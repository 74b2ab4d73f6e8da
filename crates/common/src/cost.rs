//! The calibrated cost model that turns real work into virtual time.
//!
//! The reproduction executes the storage substrate for real (records are
//! appended into segmented logs, copied into pull buffers, replayed into
//! hash tables) but runs under a discrete-event clock. Every operation
//! reports what it did — bytes copied, hash probes, checksummed bytes —
//! and the simulated server charges virtual time for that work using the
//! constants here.
//!
//! # Calibration
//!
//! Constants are calibrated so that the *baseline* system reproduces the
//! paper's anchor measurements on its CloudLab c6220 cluster (Table 1):
//!
//! | Anchor (paper) | Where it comes from here |
//! |---|---|
//! | 6 µs end-to-end read (§2) | 2 × `NicConfig::one_way_latency_ns` + [`dispatch_per_msg_ns`] + read service |
//! | 15 µs durable write (§2) | read path + synchronous 3-way segment replication |
//! | ~380 MB/s replication ceiling (§2.3) | [`replication_bytes_per_ns`] serializing the replication manager |
//! | 5.7 GB/s source pull processing, 128 B records, 12+ workers (§4.5) | [`pull_per_record_ns`] + per-byte costs |
//! | 3 GB/s target replay, 128 B records, 12+ workers (§4.5) | [`replay_per_record_ns`] + per-byte costs |
//! | 5 GB/s line rate, 40 Gbps NICs (Table 1) | `NicConfig::bytes_per_ns` |
//!
//! The network is not modelled here: `rocksteady_simnet::NicConfig`
//! (1 800 ns one way, 5.0 B/ns) is the one network model the kernel reads.
//!
//! [`dispatch_per_msg_ns`]: CostModel::dispatch_per_msg_ns
//! [`replication_bytes_per_ns`]: CostModel::replication_bytes_per_ns
//! [`pull_per_record_ns`]: CostModel::pull_per_record_ns
//! [`replay_per_record_ns`]: CostModel::replay_per_record_ns

use crate::time::Nanos;

/// Per-operation virtual-time costs for the simulated cluster.
///
/// The default values reproduce the paper's testbed (see module docs).
/// Experiments that sweep a hardware lever (e.g. Figure 5's "Skip Copy for
/// Tx") clone the model and change one field.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    // --------------------------------------------------------- dispatch --
    /// Dispatch-core cost to poll, classify, and hand off one inbound
    /// message. This is the resource that saturates in Figure 3.
    pub dispatch_per_msg_ns: Nanos,
    /// Dispatch-core cost to post one outbound message to the transport.
    pub dispatch_tx_per_msg_ns: Nanos,
    /// Dispatch-core cost for one migration-manager continuation check
    /// (scoreboard scan + possibly issuing a Pull) — §3.1.2 runs the
    /// manager on the dispatch core, so this charges dispatch time.
    pub migration_mgr_check_ns: Nanos,

    // ------------------------------------------------------- worker ops --
    /// Fixed worker cost per serviced RPC (argument parsing, response
    /// header construction).
    pub op_fixed_ns: Nanos,
    /// Worker cost per object read: hash-table lookup + log dereference +
    /// copy-out is charged separately per byte/probe.
    pub read_per_object_ns: Nanos,
    /// Worker cost per object write: log append bookkeeping + hash-table
    /// update, excluding replication (charged separately).
    pub write_per_object_ns: Nanos,
    /// Cost per hash-table probe beyond the first (collision chains and
    /// replay inserts take cache misses; §4.5 calls these out).
    pub hash_probe_ns: Nanos,
    /// Cost to compute the 64-bit key hash of one record.
    pub record_hash_ns: Nanos,
    /// Per-byte cost of copying a record through memory (staging
    /// buffers, copy-out): raw memcpy plus the allocation and cache
    /// misses that come with gathering scattered log entries. Calibrated
    /// from Figure 5's copy lever: dropping the staging copy takes the
    /// baseline from 710 MB/s to 1150 MB/s for ~160 B records, i.e.
    /// ~0.35 ns/B of copy-path cost.
    pub per_byte_copy_ns: f64,
    /// Per-byte checksum cost (log-entry CRCs on append and replay).
    pub per_byte_checksum_ns: f64,
    /// B-tree descent cost for one secondary-index lookup.
    pub index_lookup_ns: Nanos,
    /// Per-entry cost while scanning a secondary index range.
    pub index_scan_per_entry_ns: Nanos,

    // ------------------------------------------------------ replication --
    /// Throughput ceiling of a master's replication manager in bytes per
    /// nanosecond (0.38 = 380 MB/s, §2.3). Segment replication work
    /// serializes behind this resource regardless of worker parallelism.
    pub replication_bytes_per_ns: f64,
    /// Fixed backup-side cost to accept one replication RPC.
    pub backup_fixed_ns: Nanos,
    /// Per-byte backup-side cost to buffer replicated data.
    pub backup_per_byte_ns: f64,

    // -------------------------------------------------------- migration --
    /// Source-side cost per log entry examined by the *baseline*
    /// migration's sequential log scan (§2.3 — identification only; the
    /// "Skip Copy for Tx" curve of Figure 5 is this cost alone, measured
    /// at ~1.15 GB/s for 128 B records on one core).
    pub log_scan_per_entry_ns: Nanos,
    /// Fixed source-side worker cost per Pull RPC (locating the partition
    /// cursor, building the response skeleton).
    pub pull_fixed_ns: Nanos,
    /// Source-side worker cost per record gathered into a Pull response
    /// (hash-bucket walk + liveness check), excluding per-byte costs.
    pub pull_per_record_ns: Nanos,
    /// Target-side worker cost per record replayed (side-log append +
    /// hash-table insert), excluding per-byte costs.
    pub replay_per_record_ns: Nanos,
    /// Fixed source-side cost per PriorityPull RPC.
    pub priority_pull_fixed_ns: Nanos,
    /// Source-side cost per record looked up for a PriorityPull.
    pub priority_pull_per_record_ns: Nanos,
    /// Whether the transport copies records into transmit staging buffers
    /// (the DPDK-driver copy the paper measures; §3.2). `false` models the
    /// zero-copy scatter/gather DMA path.
    pub copy_for_tx: bool,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            dispatch_per_msg_ns: 900,
            dispatch_tx_per_msg_ns: 150,
            migration_mgr_check_ns: 50,
            op_fixed_ns: 350,
            read_per_object_ns: 650,
            write_per_object_ns: 1_100,
            hash_probe_ns: 120,
            record_hash_ns: 40,
            per_byte_copy_ns: 0.35,
            per_byte_checksum_ns: 0.25,
            index_lookup_ns: 1_200,
            index_scan_per_entry_ns: 150,
            replication_bytes_per_ns: 0.38,
            backup_fixed_ns: 1_000,
            backup_per_byte_ns: 0.05,
            log_scan_per_entry_ns: 110,
            pull_fixed_ns: 500,
            pull_per_record_ns: 230,
            replay_per_record_ns: 420,
            priority_pull_fixed_ns: 400,
            priority_pull_per_record_ns: 250,
            copy_for_tx: true,
        }
    }
}

impl CostModel {
    /// Per-byte cost of copying `bytes` through memory.
    pub fn copy_ns(&self, bytes: u64) -> Nanos {
        (bytes as f64 * self.per_byte_copy_ns).round() as Nanos
    }

    /// Per-byte cost of checksumming `bytes`.
    pub fn checksum_ns(&self, bytes: u64) -> Nanos {
        (bytes as f64 * self.per_byte_checksum_ns).round() as Nanos
    }

    /// Time the replication manager is occupied shipping `bytes` to all
    /// replicas. This is the serialized §2.3 bottleneck, so it covers the
    /// full replication fan-out, not a single replica.
    pub fn replication_occupancy_ns(&self, bytes: u64) -> Nanos {
        (bytes as f64 / self.replication_bytes_per_ns).round() as Nanos
    }

    /// Worker time to gather one record of `bytes` total size into a Pull
    /// response on the source (§3.1.1): bucket walk + checksum + staging
    /// copy (if the transport copies for tx).
    pub fn pull_record_ns(&self, bytes: u64) -> Nanos {
        let mut ns = self.pull_per_record_ns + self.checksum_ns(bytes);
        if self.copy_for_tx {
            ns += self.copy_ns(bytes);
        }
        ns
    }

    /// Worker time to replay one record of `bytes` total size on the
    /// target (§3.1.3): side-log append (copy) + checksum verify +
    /// hash-table insert.
    pub fn replay_record_ns(&self, bytes: u64) -> Nanos {
        self.replay_per_record_ns
            + self.checksum_ns(bytes)
            + self.copy_ns(bytes)
            + self.record_hash_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_matches_paper_ceiling() {
        let m = CostModel::default();
        // 380 MB/s: 1 MB occupies the replication manager ~2.63 ms.
        let ns = m.replication_occupancy_ns(1_000_000);
        assert!((2_500_000..2_800_000).contains(&ns), "{ns}");
    }

    #[test]
    fn source_outpaces_target_on_small_records() {
        // §4.5: source pull processing must be ~1.8-2.4x cheaper per record
        // than target replay for 128 B records.
        let m = CostModel::default();
        let pull = m.pull_record_ns(128) as f64;
        let replay = m.replay_record_ns(128) as f64;
        let ratio = replay / pull;
        assert!((1.6..=2.6).contains(&ratio), "replay/pull ratio {ratio}");
    }

    #[test]
    fn calibration_pull_replay_rates() {
        // §4.5 anchors: with 12 workers the source should sustain roughly
        // 5.7 GB/s gathering 128 B records and the target roughly 3 GB/s
        // replaying them. Allow 25% calibration slack.
        let m = CostModel::default();
        let src_gbps = 12.0 * 128.0 / m.pull_record_ns(128) as f64;
        let tgt_gbps = 12.0 * 128.0 / m.replay_record_ns(128) as f64;
        assert!((4.3..=7.2).contains(&src_gbps), "source {src_gbps} GB/s");
        assert!((2.2..=3.8).contains(&tgt_gbps), "target {tgt_gbps} GB/s");
    }

    #[test]
    fn zero_copy_reduces_pull_cost() {
        let copying = CostModel::default();
        let zero_copy = CostModel {
            copy_for_tx: false,
            ..CostModel::default()
        };
        assert!(zero_copy.pull_record_ns(1024) < copying.pull_record_ns(1024));
    }
}

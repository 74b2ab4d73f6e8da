//! The clusters every figure, test and example starts from.
//!
//! One table of 30 B keys, cut into equal tablets of the hash space and
//! preloaded as if it had been written through the replicated write
//! path. This is the only file that says what the migrating range is
//! and how a preload is ordered (`tests/structure.rs` checks); a caller that needs a
//! different topology, client mix or script still calls
//! [`ClusterBuilder`], and one that needs a different preload adds it
//! here.

use rocksteady_audit::{ClientOp, Outcome, READ_BACK};
use rocksteady_common::{key_hash, HashRange, KeyHash, MigrationId, Nanos, ServerId, TableId};
use rocksteady_proto::{Body, Envelope, Request};
use rocksteady_workload::core::primary_key;
use rocksteady_workload::{YcsbClient, YcsbConfig};

use crate::{Cluster, ClusterBuilder, ControlCmd};

/// The table every scenario uses.
pub const TABLE: TableId = TableId(1);
/// Where [`preload_split`] cuts the table: [`upper`] starts here.
const MID: KeyHash = u64::MAX / 2 + 1;

/// Tablet `i` of `n` equal contiguous slices of the hash space.
pub fn slice(i: usize, n: usize) -> HashRange {
    HashRange::full().split(n)[i]
}

/// The range the single-migration scenarios move: the upper half.
pub fn upper() -> HashRange {
    slice(1, 2)
}

/// `owners.len()` equal tablets, slice `i` on `owners[i]`, holding
/// `keys` records of `value_len` B, every log image on its backups.
pub fn preload_tablets(cluster: &mut Cluster, owners: &[ServerId], keys: u64, value_len: usize) {
    let ranges = HashRange::full().split(owners.len());
    let tablets: Vec<_> = ranges.into_iter().zip(owners.iter().copied()).collect();
    cluster.create_table(TABLE, &tablets);
    cluster.load_table(TABLE, keys, 30, value_len);
    cluster.seed_backups();
}

/// The migration preload: the whole table on server 0, split in the
/// middle so that [`upper`] is a tablet a migration can take.
pub fn preload_split(cluster: &mut Cluster, keys: u64, value_len: usize) {
    preload_tablets(cluster, &[ServerId(0)], keys, value_len);
    cluster.split_tablet(TABLE, MID);
}

/// The standard migration-under-load experiment, built and preloaded:
/// one YCSB-B client over `keys` keys at `ops_per_sec`, and at `at`
/// [`upper`] starts to move from server 0 to server 1 as migration 1.
/// `b` brings the configuration and whatever else the caller scripted
/// (a fault, a kill).
pub fn live_migration(mut b: ClusterBuilder, keys: u64, ops_per_sec: f64, at: Nanos) -> Cluster {
    b.add_ycsb(YcsbConfig::ycsb_b(b.directory(), TABLE, keys, ops_per_sec));
    let migrate = ControlCmd::migrate(MigrationId(1), TABLE, upper(), ServerId(0), ServerId(1));
    b.at(at, migrate);
    let mut cluster = b.build();
    preload_split(&mut cluster, keys, 100);
    cluster
}

/// The loss rule of a stalled migration ([`ClusterBuilder::lose`] on
/// its source): every `Pull` and `PriorityPull`, so gather makes no
/// progress (PriorityPulls too, or client misses would trickle it).
pub fn pulls(env: &Envelope) -> bool {
    matches!(
        env.body,
        Body::Req(Request::Pull { .. } | Request::PriorityPull { .. })
    )
}

/// Ends a run: asserts that each of `keys` ranks reads back through its
/// owner, and returns how many live in [`upper`]. Each read-back joins
/// the audit's client history as a read invoked after the run ended, the
/// writes still in flight as indeterminate, and the history ends — so
/// "every acknowledged write is stored" is the `linearizable` check's
/// real-time rule, and a clean run reports no violation of it.
pub fn read_back(cluster: &mut Cluster, keys: u64) -> u64 {
    let now = cluster.now();
    for &id in &cluster.ycsb {
        let client = cluster.sim.actor_as::<YcsbClient>(id);
        client.report_writes_in_flight(id, now);
    }
    let mut in_upper = 0;
    for rank in 0..keys {
        let key = primary_key(rank, 30);
        let read = cluster.read_direct(TABLE, &key);
        let (_, version) = read.unwrap_or_else(|| panic!("rank {rank} is unreadable"));
        let hash = key_hash(&key);
        cluster.audit.client_op(ClientOp {
            client: READ_BACK,
            hash,
            write: false,
            invoked: now,
            completed: now,
            outcome: Outcome::Version(version),
        });
        in_upper += u64::from(upper().contains(hash));
    }
    cluster.audit.end_history(now);
    in_upper
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_tile_the_hash_space() {
        for n in [1, 2, 3, 4, 16, 1000] {
            assert_eq!(slice(0, n).start, 0, "n={n}");
            assert_eq!(slice(n - 1, n).end, u64::MAX, "n={n}");
            for i in 1..n {
                let (before, here) = (slice(i - 1, n), slice(i, n));
                assert!(!here.is_empty(), "slice {i} of {n} is empty");
                assert_eq!(before.end + 1, here.start, "gap or overlap at {i} of {n}");
            }
        }
    }

    /// The arithmetic `slice` replaced, kept here as written where it
    /// was: the half every test and bench migrated, the two quarter
    /// helpers of `tests/`, and `day_in_the_life`'s 16-tablet layout.
    #[test]
    fn slices_reproduce_the_layouts_they_replaced() {
        let half = HashRange {
            start: MID,
            end: u64::MAX,
        };
        assert_eq!(upper(), half);
        assert_eq!(slice(0, 2).end, MID - 1);

        for i in 0..4u64 {
            let width = 1u64 << 62;
            let by_width = HashRange {
                start: i * width,
                end: if i == 3 {
                    u64::MAX
                } else {
                    (i + 1) * width - 1
                },
            };
            let by_shift = HashRange {
                start: i << 62,
                end: ((i + 1) << 62).wrapping_sub(1),
            };
            assert_eq!(slice(i as usize, 4), by_width);
            assert_eq!(slice(i as usize, 4), by_shift);
        }

        const TABLETS: u32 = 16;
        let width = (1u128 << 64) / u128::from(TABLETS);
        for b in 0..TABLETS {
            let start = (u128::from(b) * width) as u64;
            let end = if b == TABLETS - 1 {
                u64::MAX
            } else {
                ((u128::from(b) + 1) * width - 1) as u64
            };
            assert_eq!(slice(b as usize, 16), HashRange { start, end });
        }
    }
}

//! Identifier newtypes and the primary-key hash.
//!
//! RAMCloud addresses every object by `(table id, key hash)`: tables are
//! split into tablets on contiguous *key-hash* ranges (§2, Figure 2), the
//! per-master hash table is keyed by the hash, and Rocksteady's parallel
//! Pulls partition the *source's key-hash space* (§3.1.1). A single,
//! stable 64-bit hash function is therefore load-bearing for the whole
//! system and lives here.

use std::fmt;

/// Identifies a server (a master/backup pair) within one cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "server-{}", self.0)
    }
}

/// Identifies a table. Tables are unordered key-value namespaces that can
/// be split into tablets on key-hash boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(pub u64);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table-{}", self.0)
    }
}

/// Identifies a secondary index on a table. Indexes are range partitioned
/// into indexlets (Figure 2) independently of the table's tablets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexId(pub u32);

impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "index-{}", self.0)
    }
}

/// Identifies one migration run cluster-wide.
///
/// Every Rocksteady migration — operator-scripted or issued by the
/// autonomous rebalancer — carries a unique id so that the coordinator's
/// lineage bookkeeping, the target's per-run state, and the harness's
/// per-run stamps can all distinguish overlapping migrations instead of
/// assuming at most one is in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MigrationId(pub u64);

impl fmt::Display for MigrationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mig-{}", self.0)
    }
}

/// A 64-bit primary-key hash.
///
/// All partitioning in the system — tablet ownership, hash-table
/// placement, and migration pull partitions — operates on this value,
/// never on raw keys.
pub type KeyHash = u64;

/// Correlates an RPC response with its request.
///
/// Unique per (client, connection) in the simulator; the fabric never
/// generates these itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RpcId(pub u64);

/// Identifies one end-to-end client request across every node it touches.
///
/// Minted once by the client that issues the operation (deterministically
/// from its actor id and per-client operation counter — no wall clock, no
/// RNG) and inherited by every RPC done on that operation's behalf:
/// retries keep the original id, and a PriorityPull issued for a waiting
/// read carries the read's id to the source. `TraceId(0)` means "no
/// causal context" (control-plane and infrastructure traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The absent trace id carried by un-attributed traffic.
    pub const NONE: TraceId = TraceId(0);

    /// Deterministically derives the trace id for operation `op` of the
    /// client running as simulation actor `client`. Actor ids are small
    /// and op counters start at 1, so `(client + 1) << 40 | op` is unique
    /// cluster-wide and never zero.
    #[must_use]
    pub fn mint(client: u64, op: u64) -> TraceId {
        TraceId(((client + 1) << 40) | (op & 0xff_ffff_ffff))
    }

    /// Whether this is a real minted id (not [`TraceId::NONE`]).
    #[must_use]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace-{:x}", self.0)
    }
}

/// Dapper-style causal context riding every RPC envelope.
///
/// Contributes zero wire bytes in the simulator (it models header slack
/// inside the fixed message header), so carrying it unconditionally can
/// never perturb the event schedule — only trace-armed runs *record* it.
/// 16 B: the `u64` trace id aligns the `u32` hop up to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CausalCtx {
    /// The journey this RPC belongs to ([`TraceId::NONE`] if unattributed).
    pub trace_id: TraceId,
    /// Causal depth: the client's attempt counter on first issue, and
    /// +1 for every inherited fan-out (e.g. the PriorityPull issued on
    /// behalf of a waiting read).
    pub hop: u32,
}

impl CausalCtx {
    /// The empty context carried by control-plane traffic.
    pub const NONE: CausalCtx = CausalCtx {
        trace_id: TraceId::NONE,
        hop: 0,
    };

    /// Derives the context for an RPC issued *on behalf of* the request
    /// carrying `self` — same journey, one hop deeper.
    #[must_use]
    pub fn child(self) -> CausalCtx {
        CausalCtx {
            trace_id: self.trace_id,
            hop: self.hop + 1,
        }
    }
}

/// Hashes a primary key to its [`KeyHash`].
///
/// This is a from-scratch implementation of the 64-bit finalizer-strength
/// mixing construction used by MurmurHash3/SplitMix64, applied over 8-byte
/// little-endian chunks of the key. Requirements, in order of importance:
///
/// 1. **Stable** — hashes are baked into tablet ranges and migration pull
///    partitions; the function can never change between versions.
/// 2. **Well distributed** — tablet splits assume key hashes are uniform
///    over `0..=u64::MAX` (§2); the avalanche tests below check this.
/// 3. **Cheap** — it is charged against worker time via
///    [`crate::CostModel::record_hash_ns`].
///
/// # Examples
///
/// ```
/// use rocksteady_common::key_hash;
/// let h1 = key_hash(b"user:1234");
/// let h2 = key_hash(b"user:1235");
/// assert_ne!(h1, h2);
/// assert_eq!(h1, key_hash(b"user:1234"));
/// ```
pub fn key_hash(key: &[u8]) -> KeyHash {
    // Golden-ratio-derived odd constants from the SplitMix64/Murmur3
    // lineage; any high-entropy odd constants work, these are the
    // standard, well-studied ones.
    const C1: u64 = 0xff51_afd7_ed55_8ccd;
    const C2: u64 = 0xc4ce_b9fe_1a85_ec53;

    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ (key.len() as u64);
    let mut chunks = key.chunks_exact(8);
    for chunk in &mut chunks {
        // Unwrap is fine: `chunks_exact(8)` always yields 8-byte slices.
        let k = u64::from_le_bytes(chunk.try_into().unwrap());
        h ^= mix(k);
        h = h.rotate_left(27).wrapping_mul(5).wrapping_add(0x52dc_e729);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= mix(u64::from_le_bytes(tail));
    }
    // Final avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(C1);
    h ^= h >> 33;
    h = h.wrapping_mul(C2);
    h ^ (h >> 33)
}

/// One round of 64-bit mixing (Murmur3 `fmix64`).
#[inline]
fn mix(mut k: u64) -> u64 {
    k = k.wrapping_mul(0x87c3_7b91_1142_53d5);
    k = k.rotate_left(31);
    k.wrapping_mul(0x4cf5_ad43_2745_937f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(key_hash(b"alpha"), key_hash(b"alpha"));
        assert_eq!(key_hash(b""), key_hash(b""));
    }

    #[test]
    fn hash_differs_for_adjacent_keys() {
        // Sequential keys (the common YCSB pattern) must spread across the
        // full hash space; sample a few and require distinct high bits.
        let hashes: Vec<u64> = (0..64u64)
            .map(|i| key_hash(format!("user{i:08}").as_bytes()))
            .collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len(), "collision among 64 keys");
    }

    #[test]
    fn hash_depends_on_length() {
        // A key and the same key zero-padded must differ; the tail block is
        // zero-padded internally so the length must break the tie.
        assert_ne!(key_hash(b"ab"), key_hash(b"ab\0"));
        assert_ne!(key_hash(b""), key_hash(b"\0"));
    }

    #[test]
    fn hash_distributes_over_buckets() {
        // Chi-squared-lite: hashing 10k sequential keys into 64 buckets
        // should land within 3x of the expected count per bucket.
        let mut buckets = [0u32; 64];
        for i in 0..10_000u64 {
            let h = key_hash(format!("key-{i}").as_bytes());
            buckets[(h >> 58) as usize] += 1;
        }
        let expect = 10_000 / 64;
        for (b, &count) in buckets.iter().enumerate() {
            assert!(
                count > expect / 3 && count < expect * 3,
                "bucket {b} has {count}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn avalanche_single_bit_flip() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = key_hash(b"avalanche-test-key");
        let mut input = *b"avalanche-test-key";
        input[3] ^= 1;
        let flipped = key_hash(&input);
        let differing = (base ^ flipped).count_ones();
        assert!(
            (16..=48).contains(&differing),
            "only {differing} bits differ"
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(ServerId(3).to_string(), "server-3");
        assert_eq!(TableId(9).to_string(), "table-9");
        assert_eq!(IndexId(2).to_string(), "index-2");
        assert_eq!(MigrationId(7).to_string(), "mig-7");
        assert_eq!(TraceId(0xab).to_string(), "trace-ab");
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for client in 0..8u64 {
            for op in 1..=256u64 {
                let t = TraceId::mint(client, op);
                assert!(t.is_some(), "minted id must never be NONE");
                assert!(seen.insert(t), "collision for client {client} op {op}");
            }
        }
    }

    #[test]
    fn causal_child_keeps_trace_and_deepens() {
        let root = CausalCtx {
            trace_id: TraceId::mint(2, 7),
            hop: 1,
        };
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.hop, 2);
        assert_eq!(CausalCtx::NONE.trace_id, TraceId::NONE);
    }
}

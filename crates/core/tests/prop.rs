//! Property tests for the migration protocol's core invariants.
//!
//! Offline note: this environment cannot fetch `proptest`, so these are
//! seeded randomized property tests driven by the workspace's own
//! deterministic [`Prng`]. Each test runs many independent cases from
//! fixed seeds, so failures reproduce exactly.

use std::collections::HashSet;

use bytes::Bytes;
use rocksteady::{MissAnswer, PriorityPullBatcher};
use rocksteady_common::rng::Prng;
use rocksteady_common::{HashRange, ScanCursor, TableId};
use rocksteady_master::{MasterConfig, MasterService, ReplayDest, TabletRole, Work};
use rocksteady_proto::Record;

const T: TableId = TableId(1);
const CASES: u64 = 64;

fn record(hash: u64, version: u64, value: u8, tombstone: bool) -> Record {
    Record {
        table: T,
        key_hash: hash,
        version,
        key: Bytes::copy_from_slice(&hash.to_le_bytes()),
        value: if tombstone {
            Bytes::new()
        } else {
            Bytes::from(vec![value])
        },
        tombstone,
    }
}

/// Random records over a small hash domain with unique (hash, version)
/// pairs, so "same version, different payload" ambiguity (impossible in
/// the real system, where a version is written once) doesn't create
/// false positives.
fn rand_records(rng: &mut Prng, max_count: u64, with_tombstones: bool) -> Vec<Record> {
    let n = rng.next_range(1, max_count);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for _ in 0..n {
        let h = rng.next_below(16);
        let v = rng.next_range(1, 63);
        if !seen.insert((h, v)) {
            continue;
        }
        let val = rng.next_u64() as u8;
        let tomb = with_tombstones && rng.next_u64() & 1 == 0;
        out.push(record(h, v, val, tomb));
    }
    out
}

fn shuffle(records: &mut [Record], rng: &mut Prng) {
    for i in (1..records.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        records.swap(i, j);
    }
}

/// Version-max replay is order-insensitive: replaying any permutation
/// of any multiset of records (including tombstones) converges to the
/// same visible state — the invariant that makes Rocksteady's unordered
/// parallel replay and crash-recovery merge safe (§3.1.3, §3.4).
#[test]
fn replay_is_order_insensitive() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x10c0_0000 + seed);
        let records = rand_records(&mut rng, 59, true);

        let run = |order: &[Record]| {
            let mut m = MasterService::new(MasterConfig::default());
            m.add_tablet(T, HashRange::full(), TabletRole::Owner);
            for r in order {
                m.replay_record(r, ReplayDest::MainLog, &mut Work::default());
            }
            // Visible state: hash -> (version, value) for live keys.
            let mut state = Vec::new();
            for h in 0u64..16 {
                let out = m.read(T, h, Some(&h.to_le_bytes()), &mut Work::default());
                state.push(out.ok().map(|(v, ver)| (ver, v.to_vec())));
            }
            state
        };

        let forward = run(&records);
        let mut shuffled = records.clone();
        shuffle(&mut shuffled, &mut rng);
        let permuted = run(&shuffled);
        assert_eq!(forward, permuted, "seed {seed}");
    }
}

/// Replaying the same records twice (duplicate pulls, retransmits)
/// changes nothing: replay is idempotent.
#[test]
fn replay_is_idempotent() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x20c0_0000 + seed);
        let records = rand_records(&mut rng, 39, false);
        let mut m = MasterService::new(MasterConfig::default());
        m.add_tablet(T, HashRange::full(), TabletRole::Owner);
        for r in &records {
            m.replay_record(r, ReplayDest::MainLog, &mut Work::default());
        }
        let snapshot = |m: &MasterService| {
            (0u64..16)
                .map(|h| {
                    m.read(T, h, Some(&h.to_le_bytes()), &mut Work::default())
                        .ok()
                        .map(|(v, ver)| (ver, v.to_vec()))
                })
                .collect::<Vec<_>>()
        };
        let before = snapshot(&m);
        for r in &records {
            let applied = m.replay_record(r, ReplayDest::MainLog, &mut Work::default());
            assert!(!applied, "seed {seed}: duplicate replay must be rejected");
        }
        assert_eq!(before, snapshot(&m), "seed {seed}");
    }
}

/// The PriorityPull batcher never requests the same hash twice, never
/// exceeds the batch cap, and eventually resolves every miss to either a
/// served or an absent hash.
#[test]
fn batcher_invariants() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x30c0_0000 + seed);
        let misses: Vec<u64> = (0..rng.next_range(1, 199))
            .map(|_| rng.next_below(64))
            .collect();
        let cap = rng.next_range(1, 19) as usize;
        let source_has: HashSet<u64> = (0..rng.next_below(64))
            .map(|_| rng.next_below(64))
            .collect();

        let mut b = PriorityPullBatcher::new();
        let mut requested: Vec<u64> = Vec::new();
        let mut miss_iter = misses.iter();
        loop {
            // Interleave misses and round trips.
            for _ in 0..3 {
                if let Some(&h) = miss_iter.next() {
                    let _ = b.on_miss(h);
                }
            }
            if let Some(batch) = b.next_batch(cap) {
                assert!(batch.len() <= cap, "seed {seed}");
                requested.extend(&batch);
                let returned: Vec<u64> = batch
                    .iter()
                    .copied()
                    .filter(|h| source_has.contains(h))
                    .collect();
                b.on_response(returned);
            } else if miss_iter.len() == 0 {
                break;
            }
        }
        // Never requested the same hash twice (§3.3's guarantee).
        let mut sorted = requested.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            requested.len(),
            "seed {seed}: duplicate request"
        );
        assert!(b.is_idle(), "seed {seed}");
        // Post-drain misses resolve deterministically.
        for &h in &misses {
            if b.on_miss(h) == MissAnswer::NotFound {
                assert!(!source_has.contains(&h), "seed {seed}")
            }
        }
    }
}

/// Source pulls partition cleanly: gathering every partition of any
/// loaded master retrieves every record exactly once, for any batch
/// budget and partition count.
#[test]
fn pulls_cover_everything_once() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x40c0_0000 + seed);
        let keys = rng.next_range(1, 299);
        let partitions = rng.next_range(1, 9) as usize;
        let budget = rng.next_range(200, 4_999) as u32;

        let mut m = MasterService::new(MasterConfig {
            hash_buckets: 1 << 10,
            hash_stripes: 16,
            ..MasterConfig::default()
        });
        m.add_tablet(T, HashRange::full(), TabletRole::Owner);
        for i in 0..keys {
            let key = format!("key{i:06}");
            m.load_object(T, key.as_bytes(), b"value");
        }
        let mut got = Vec::new();
        for part in HashRange::full().split(partitions) {
            let mut cursor = ScanCursor::default();
            loop {
                let (records, next, _) =
                    rocksteady::source::handle_pull(&m, T, part, cursor, budget);
                for r in records {
                    assert!(part.contains(r.key_hash), "seed {seed}: partition leak");
                    got.push(r.key_hash);
                }
                match next {
                    Some(c) => cursor = c,
                    None => break,
                }
            }
        }
        got.sort_unstable();
        let before = got.len();
        got.dedup();
        assert_eq!(
            got.len(),
            before,
            "seed {seed}: duplicate records across pulls"
        );
        assert_eq!(got.len() as u64, keys, "seed {seed}: records lost");
    }
}

//! Model-based property tests: the hash table against a `HashMap`, and
//! partitioned scans against exhaustive enumeration.
//!
//! Offline note: this environment cannot fetch `proptest`, so these are
//! seeded randomized property tests driven by the workspace's own
//! deterministic [`Prng`]. Each test runs many independent cases from
//! fixed seeds, so failures reproduce exactly.

use std::collections::{HashMap, HashSet};

use rocksteady_common::rng::Prng;
use rocksteady_common::{HashRange, ScanCursor, TableId};
use rocksteady_hashtable::{HashTable, SCAN_LOOKAHEAD_BUCKETS};
use rocksteady_logstore::LogRef;

const T: TableId = TableId(1);
const CASES: u64 = 96;

/// A reference drawn from `v`, inside what a slot can hold: a 24-bit
/// segment id and an offset below 2²⁴.
fn r(v: u64) -> LogRef {
    LogRef {
        segment: v >> 40,
        offset: (v % 97) as u32,
    }
}

/// The table behaves exactly like a `HashMap<hash, LogRef>` under any
/// sequence of upserts, removes, and lookups (keys here are unique per
/// hash, so the matcher is always `true`).
#[test]
fn behaves_like_a_map() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x6a17_0000 + seed);
        let ops = rng.next_range(1, 400);
        let ht = HashTable::new(64, 8);
        let mut model: HashMap<u64, LogRef> = HashMap::new();
        for _ in 0..ops {
            let h = rng.next_below(64);
            match rng.next_below(3) {
                0 => {
                    let v = rng.next_u64();
                    ht.upsert(T, h, r(v), |_| true);
                    model.insert(h, r(v));
                }
                1 => {
                    let got = ht.remove(T, h, |_| true).value;
                    assert_eq!(got, model.remove(&h), "seed {seed}: remove({h})");
                }
                _ => {
                    let got = ht.lookup(T, h, |_| true).value;
                    assert_eq!(got, model.get(&h).copied(), "seed {seed}: lookup({h})");
                }
            }
            assert_eq!(ht.len(), model.len(), "seed {seed}: len drift");
        }
    }
}

/// A batched scan over any sub-range visits exactly the model's entries
/// in that range, once each, for any batch budget.
#[test]
fn scan_matches_enumeration() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x7a17_0000 + seed);
        let count = rng.next_range(1, 200) as usize;
        let mut hashes = HashSet::new();
        while hashes.len() < count {
            hashes.insert(rng.next_u64());
        }
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let (start, end) = if a <= b { (a, b) } else { (b, a) };
        let budget = rng.next_range(1, 49);
        let buckets_pow = rng.next_range(4, 9) as u32;

        let ht = HashTable::new(1 << buckets_pow, 8);
        for &h in &hashes {
            ht.upsert(T, h, r(h), |_| true);
        }
        let range = HashRange { start, end };
        let mut seen = Vec::new();
        let mut cursor = ScanCursor::default();
        loop {
            let out = ht.scan_range(
                T,
                range,
                cursor,
                budget,
                || (),
                |_, _| {},
                |_, slot| {
                    seen.push(slot.hash);
                    1
                },
            );
            match out.value {
                Some(next) => {
                    assert!(
                        next.bucket > cursor.bucket,
                        "seed {seed}: cursor must advance"
                    );
                    cursor = next;
                }
                None => break,
            }
        }
        seen.sort_unstable();
        let mut expect: Vec<u64> = hashes
            .iter()
            .copied()
            .filter(|h| range.contains(*h))
            .collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "seed {seed}");
    }
}

/// Splitting any range into any number of partitions and scanning each
/// partition visits every entry exactly once — the invariant Rocksteady's
/// parallel Pulls rest on (§3.1.1).
#[test]
fn partitioned_scans_are_exhaustive_and_disjoint() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x8a17_0000 + seed);
        let count = rng.next_range(1, 200) as usize;
        let mut hashes = HashSet::new();
        while hashes.len() < count {
            hashes.insert(rng.next_u64());
        }
        let partitions = rng.next_range(1, 11) as usize;

        let ht = HashTable::new(256, 8);
        for &h in &hashes {
            ht.upsert(T, h, r(h), |_| true);
        }
        let mut seen = Vec::new();
        for part in HashRange::full().split(partitions) {
            ht.for_each_in_range(T, part, |slot| seen.push(slot.hash));
        }
        seen.sort_unstable();
        let mut expect: Vec<u64> = hashes.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "seed {seed}");
    }
}

/// What one `scan_range` call must do, written the obvious way over the
/// list of inserted `(table, hash)` pairs: walk buckets in order, count
/// every resident as a probe, visit the ones of `table` inside `range`
/// in insertion order (slot order, with nothing ever removed), and stop
/// after the first bucket at which the accepted weight reaches `budget`.
fn model_scan(
    inserted: &[(TableId, u64)],
    buckets_pow: u32,
    range: HashRange,
    cursor: ScanCursor,
    budget: u64,
    weight: impl Fn(u64) -> u64,
) -> (Vec<u64>, Option<ScanCursor>, u32) {
    let bucket_of = |h: u64| h >> (64 - buckets_pow);
    let (mut visited, mut probes, mut accepted) = (Vec::new(), 0, 0);
    if range.is_empty() {
        return (visited, None, 0);
    }
    let last = bucket_of(range.end);
    let mut bucket = bucket_of(range.start).max(cursor.bucket);
    while bucket <= last {
        for &(table, hash) in inserted.iter().filter(|(_, h)| bucket_of(*h) == bucket) {
            probes += 1;
            if table == T && range.contains(hash) {
                accepted += weight(hash);
                visited.push(hash);
            }
        }
        bucket += 1;
        if accepted >= budget {
            break;
        }
    }
    let next = (bucket <= last).then_some(ScanCursor { bucket });
    (visited, next, probes)
}

/// Tables whose entries sit in a few stripes, the rest never written:
/// `scan_range` returns the same slots in the same order, the same
/// cursor and the same probe count as the bucket-by-bucket model, call
/// for call — stepping over an empty stripe is not observable. And
/// `peek` runs exactly its horizon ahead: it is shown every slot before
/// `visit` is, never a slot more than [`SCAN_LOOKAHEAD_BUCKETS`] buckets
/// past the one being visited, and what it saw beyond the end of a
/// budgeted call lies within that horizon of the returned cursor.
/// Every slot is shown through the view opened last, and one view
/// serves one stripe, each stripe at most once a call.
#[test]
fn sparse_scans_match_the_bucket_model_and_peek_keeps_its_horizon() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x9a17_0000 + seed);
        // 256..2048 buckets in stripes of 128: 2..16 stripes.
        let buckets_pow = rng.next_range(8, 12) as u32;
        let shift = 64 - buckets_pow;
        let stripes = 1u64 << (buckets_pow - 7);
        let ht = HashTable::new(1 << buckets_pow, 1);
        // One to three populated stripes; inside them a few dense
        // buckets (some past eight residents: overflow) and stragglers.
        let mut inserted: Vec<(TableId, u64)> = Vec::new();
        for _ in 0..rng.next_range(1, 4) {
            let stripe = rng.next_below(stripes);
            for _ in 0..rng.next_range(1, 60) {
                let bucket = stripe * 128
                    + if rng.next_below(3) == 0 {
                        rng.next_below(4)
                    } else {
                        rng.next_below(128)
                    };
                let hash = (bucket << shift) | (rng.next_u64() >> buckets_pow);
                let table = if rng.next_below(5) == 0 {
                    TableId(9)
                } else {
                    T
                };
                if !inserted.contains(&(table, hash)) {
                    ht.upsert(table, hash, r(hash), |_| true);
                    inserted.push((table, hash));
                }
            }
        }
        let range = if rng.next_below(3) == 0 {
            HashRange::full()
        } else {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            HashRange {
                start: a.min(b),
                end: a.max(b),
            }
        };
        let budget = rng.next_below(40); // 0 included: one bucket a call
        let weight = |hash: u64| 1 + hash % 3;
        let bucket_of = |h: u64| h >> shift;

        let mut cursor = ScanCursor::default();
        for call in 0.. {
            assert!(call < 5_000, "seed {seed}: runaway scan");
            let (want, want_next, want_probes) =
                model_scan(&inserted, buckets_pow, range, cursor, budget, weight);
            let first = bucket_of(range.start).max(cursor.bucket);
            // Shared by the closures, which run interleaved.
            let peeked = std::cell::RefCell::new(Vec::<u64>::new());
            // The stripe each view opened so far served, once it served one.
            let opened = std::cell::RefCell::new(Vec::<Option<u64>>::new());
            let serve = |view: &usize, hash: u64| {
                let mut opened = opened.borrow_mut();
                assert_eq!(*view + 1, opened.len(), "seed {seed}: a stale view");
                let stripe = bucket_of(hash) >> 7;
                let served = *opened[*view].get_or_insert(stripe);
                assert_eq!(served, stripe, "seed {seed}: a view crossed stripes");
            };
            let mut visited = Vec::new();
            let out = ht.scan_range(
                T,
                range,
                cursor,
                budget,
                || {
                    let mut opened = opened.borrow_mut();
                    opened.push(None);
                    opened.len() - 1
                },
                |view, slot| {
                    serve(view, slot.hash);
                    assert!(slot.table == T && range.contains(slot.hash));
                    peeked.borrow_mut().push(slot.hash);
                },
                |view, slot| {
                    serve(view, slot.hash);
                    let at = bucket_of(slot.hash);
                    let mut peeked = peeked.borrow_mut();
                    assert_eq!(
                        peeked.first(),
                        Some(&slot.hash),
                        "seed {seed}: visited before it was peeked, or out of order"
                    );
                    peeked.remove(0);
                    for ahead in peeked.iter() {
                        assert!(
                            (at..=at + SCAN_LOOKAHEAD_BUCKETS).contains(&bucket_of(*ahead)),
                            "seed {seed}: peeked past the horizon"
                        );
                    }
                    visited.push(slot.hash);
                    weight(slot.hash)
                },
            );
            assert_eq!(visited, want, "seed {seed} call {call}: slots or order");
            assert_eq!(out.value, want_next, "seed {seed} call {call}: cursor");
            assert_eq!(out.probes, want_probes, "seed {seed} call {call}: probes");
            let stripes: Vec<u64> = opened.borrow().iter().flatten().copied().collect();
            assert!(
                stripes.windows(2).all(|w| w[0] < w[1]),
                "seed {seed} call {call}: a stripe opened twice"
            );
            // Peeked but not visited: only past a budget stop, and only
            // as far as the scan would have looked from its last bucket.
            let stop = out.value.map_or(u64::MAX, |c| c.bucket);
            for left in peeked.borrow().iter() {
                let at = bucket_of(*left);
                assert!(
                    at >= stop && at < stop + SCAN_LOOKAHEAD_BUCKETS && stop > first,
                    "seed {seed}: stray peek"
                );
            }
            match out.value {
                Some(next) => cursor = next,
                None => break,
            }
        }
    }
}

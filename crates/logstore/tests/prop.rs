//! Property-based tests for the log-structured storage substrate.
//!
//! Offline note: this environment cannot fetch `proptest`, so these are
//! seeded randomized property tests driven by the workspace's own
//! deterministic [`Prng`]. Each test runs many independent cases from
//! fixed seeds, so failures reproduce exactly.

use std::collections::HashMap;
use std::sync::Arc;

use rocksteady_common::rng::Prng;
use rocksteady_logstore::entry::{parse, serialized_len, write_entry, ParseError};
use rocksteady_logstore::{
    Cleaner, EntryKind, Log, LogConfig, LogRef, Relocation, Relocator, SideLog,
};

const CASES: u64 = 96;

fn rand_bytes(rng: &mut Prng, max_len: u64) -> Vec<u8> {
    let len = rng.next_below(max_len) as usize;
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Any entry serializes and parses back bit-identically.
#[test]
fn entry_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x109_0000 + seed);
        let kind = if rng.next_u64() & 1 == 0 {
            EntryKind::Object
        } else {
            EntryKind::Tombstone
        };
        let (table, hash, version) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let key = rand_bytes(&mut rng, 64);
        let value = rand_bytes(&mut rng, 512);
        let mut buf = vec![0u8; serialized_len(key.len(), value.len())];
        write_entry(&mut buf, kind, table, hash, version, &key, &value);
        let (view, consumed) = parse(&buf).expect("own serialization parses");
        assert_eq!(consumed, buf.len());
        assert_eq!(view.kind, kind);
        assert_eq!(view.table_id, table);
        assert_eq!(view.key_hash, hash);
        assert_eq!(view.version, version);
        assert_eq!(view.key, &key[..]);
        assert_eq!(view.value, &value[..]);
    }
}

/// A single flipped bit anywhere in a serialized entry is detected.
#[test]
fn entry_bitflip_detected() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x209_0000 + seed);
        let key = {
            let mut k = rand_bytes(&mut rng, 31);
            k.push(rng.next_u64() as u8); // at least one byte
            k
        };
        let value = rand_bytes(&mut rng, 128);
        let mut buf = vec![0u8; serialized_len(key.len(), value.len())];
        write_entry(&mut buf, EntryKind::Object, 1, 2, 3, &key, &value);
        let bit = rng.next_below(buf.len() as u64 * 8) as usize;
        buf[bit / 8] ^= 1 << (bit % 8);
        if let Ok((view, _)) = parse(&buf) {
            // A flip inside the kind byte may map Object->Tombstone with a
            // checksum mismatch, etc.; any successful parse would be a
            // silent corruption.
            panic!(
                "seed {seed}: bit {bit} flipped silently: parsed kind {:?}",
                view.kind
            );
        }
    }
}

/// Parsing never panics on arbitrary bytes (fuzz-style).
#[test]
fn parse_never_panics() {
    for seed in 0..CASES * 4 {
        let mut rng = Prng::new(0x309_0000 + seed);
        let bytes = rand_bytes(&mut rng, 256);
        match parse(&bytes) {
            Ok((view, consumed)) => {
                assert!(consumed <= bytes.len());
                assert!(view.serialized_len() == consumed);
            }
            Err(
                ParseError::Truncated | ParseError::BadKind(_) | ParseError::BadChecksum { .. },
            ) => {}
        }
    }
}

/// Every appended entry stays readable at its returned reference, in
/// order, across arbitrary segment sizes (head rolls included).
#[test]
fn log_append_read_consistency() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x409_0000 + seed);
        let segment_kb = rng.next_range(1, 7) as usize;
        let n = rng.next_range(1, 99) as usize;
        let log = Log::new(LogConfig {
            segment_bytes: segment_kb * 256,
            max_segments: None,
        });
        let mut refs: Vec<(LogRef, u64, Vec<u8>)> = Vec::new();
        for i in 0..n {
            let hash = rng.next_u64();
            let value = rand_bytes(&mut rng, 40);
            let key = (i as u32).to_le_bytes();
            let r = log
                .append(EntryKind::Object, 1, hash, i as u64, &key, &value)
                .expect("append");
            refs.push((r, hash, value));
        }
        for (r, hash, value) in &refs {
            let e = log.entry(*r).expect("resolvable");
            assert_eq!(e.key_hash, *hash, "seed {seed}");
            assert_eq!(&e.value, value, "seed {seed}");
        }
        // Full iteration sees exactly the appended entries in order.
        let mut seen = Vec::new();
        log.for_each_entry(|_, v| seen.push(v.version));
        assert_eq!(seen, (0..n as u64).collect::<Vec<_>>(), "seed {seed}");
    }
}

/// Side-log appends stay readable through the parent before and after
/// commit, regardless of interleaving with main-log appends.
#[test]
fn sidelog_commit_preserves_entries() {
    for seed in 0..CASES {
        let mut rng = Prng::new(0x509_0000 + seed);
        let ops = rng.next_range(1, 79);
        let log = Arc::new(Log::new(LogConfig {
            segment_bytes: 512,
            max_segments: None,
        }));
        let side = SideLog::new(Arc::clone(&log));
        let mut refs = Vec::new();
        for _ in 0..ops {
            let to_side = rng.next_u64() & 1 == 0;
            let hash = rng.next_u64();
            let r = if to_side {
                side.append(EntryKind::Object, 1, hash, 1, b"k", b"v")
                    .unwrap()
            } else {
                log.append(EntryKind::Object, 1, hash, 1, b"k", b"v")
                    .unwrap()
            };
            refs.push((r, hash));
        }
        for (r, hash) in &refs {
            assert_eq!(log.entry(*r).expect("pre-commit").key_hash, *hash);
        }
        side.commit().unwrap();
        for (r, hash) in &refs {
            assert_eq!(log.entry(*r).expect("post-commit").key_hash, *hash);
        }
    }
}

/// Model-based cleaner test: after arbitrary overwrite patterns and
/// repeated cleaning, exactly the latest version of every key survives.
#[derive(Default)]
struct ModelRelocator {
    current: HashMap<u64, LogRef>,
}

impl Relocator for ModelRelocator {
    fn disposition(
        &mut self,
        view: &rocksteady_logstore::EntryView<'_>,
        old: LogRef,
    ) -> Relocation {
        if view.kind != EntryKind::Object {
            return Relocation::Keep;
        }
        if self.current.get(&view.key_hash) == Some(&old) {
            Relocation::Keep
        } else {
            Relocation::Drop
        }
    }

    fn relocated(&mut self, view: &rocksteady_logstore::EntryView<'_>, _old: LogRef, new: LogRef) {
        // Survivor commit records are kept but belong to no key.
        if view.kind == EntryKind::Object {
            self.current.insert(view.key_hash, new);
        }
    }
}

#[test]
fn cleaner_preserves_latest_versions() {
    for seed in 0..64 {
        let mut rng = Prng::new(0x609_0000 + seed);
        let writes = rng.next_range(1, 300);
        let threshold = 0.3 + rng.next_f64() * 0.7;
        let log = Arc::new(Log::new(LogConfig {
            segment_bytes: 512,
            max_segments: None,
        }));
        let mut reloc = ModelRelocator::default();
        let mut latest: HashMap<u64, (u64, u8)> = HashMap::new();
        for version in 0..writes {
            let key = rng.next_below(32);
            let val = rng.next_u64() as u8;
            let r = log
                .append(
                    EntryKind::Object,
                    1,
                    key,
                    version,
                    &key.to_le_bytes(),
                    &[val],
                )
                .unwrap();
            if let Some(old) = reloc.current.insert(key, r) {
                log.mark_dead(old, 44);
            }
            latest.insert(key, (version, val));
        }
        let cleaner = Cleaner {
            utilization_threshold: threshold,
            max_segments_per_pass: 2,
        };
        for _ in 0..200 {
            if cleaner.clean_once(&log, &mut reloc).unwrap().is_none() {
                break;
            }
        }
        for (key, (version, val)) in &latest {
            let r = reloc.current[key];
            let e = log
                .entry(r)
                .unwrap_or_else(|| panic!("seed {seed}: key {key} lost"));
            assert_eq!(e.version, *version, "seed {seed}");
            assert_eq!(e.value, vec![*val], "seed {seed}");
        }
    }
}

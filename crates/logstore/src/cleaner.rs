//! The log cleaner: cost-benefit segment compaction.
//!
//! RAMCloud sustains 80–90% memory utilization by continuously relocating
//! the live entries out of sparsely-utilized segments and reclaiming the
//! segments ([Rumble et al., FAST '14]; §2.3 of the Rocksteady paper).
//! Rocksteady's *lazy partitioning* argument leans on this component: the
//! cleaner is free to physically rearrange records at any time precisely
//! because nothing (including migration) depends on physical layout — so
//! this reproduction implements it and tests that migration survives
//! concurrent cleaning (`cleaner_interaction` integration test).
//!
//! The cleaner cannot know on its own whether an entry is live (only the
//! hash table knows if a log reference is current), so callers supply a
//! [`Relocator`] that adjudicates each entry and learns the new location
//! of anything that moves.

use std::sync::Arc;

use crate::entry::EntryView;
use crate::log::{Log, LogError, LogRef};
use crate::segment::Segment;
use crate::sidelog::{SideLog, SideLogAppender};

/// Decision for one entry in a segment being cleaned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relocation {
    /// The entry is live: relocate it and report the new reference.
    Keep,
    /// The entry is dead (superseded, deleted, or migrated away): drop it.
    Drop,
}

/// Liveness oracle + reference updater supplied by the log's owner
/// (in practice, the master wrapping its hash table).
pub trait Relocator {
    /// Returns whether the entry at `old` is still live.
    fn disposition(&mut self, view: &EntryView<'_>, old: LogRef) -> Relocation;

    /// Called after a kept entry has been copied to `new`; the
    /// implementation must repoint its references (hash table, indexes)
    /// from `old` to `new` before cleaning continues.
    fn relocated(&mut self, view: &EntryView<'_>, old: LogRef, new: LogRef);
}

/// Statistics from one cleaning pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CleanStats {
    /// Segments reclaimed.
    pub segments_cleaned: usize,
    /// Ids of the reclaimed segments. Their backup replicas may be freed
    /// once the survivor segments of this pass are durable.
    pub victims: Vec<u64>,
    /// Bytes of segment capacity returned to the system.
    pub bytes_reclaimed: u64,
    /// Live entries moved to survivor segments.
    pub entries_relocated: u64,
    /// Dead entries discarded.
    pub entries_dropped: u64,
    /// Serialized bytes of relocated entries (the cleaner's write cost).
    pub bytes_relocated: u64,
}

/// The cleaner itself; stateless apart from its policy knobs.
#[derive(Debug, Clone)]
pub struct Cleaner {
    /// Segments at or above this live fraction are never cleaned;
    /// cost-benefit favors the emptiest segments first.
    pub utilization_threshold: f64,
    /// Upper bound on segments reclaimed per [`Cleaner::clean_once`] call,
    /// so cleaning interleaves with foreground work in small steps.
    pub max_segments_per_pass: usize,
}

impl Default for Cleaner {
    fn default() -> Self {
        Cleaner {
            utilization_threshold: 0.9,
            max_segments_per_pass: 1,
        }
    }
}

impl Cleaner {
    /// Runs one cleaning pass over `log`.
    ///
    /// Selects up to `max_segments_per_pass` closed segments with the
    /// lowest utilization below the threshold, copies their live entries
    /// into a survivor [`SideLog`], commits it, and removes the victims.
    /// Survivors therefore sit in adopted segments of their own — all
    /// live, so no later pass re-selects them until entries die — and
    /// never interleave with client writes in the head; only the side
    /// log's commit record touches the head. Returns `None` when nothing
    /// qualified.
    ///
    /// # Errors
    ///
    /// Propagates [`LogError`] if a relocation append fails. Entries
    /// relocated before the failure are committed; no victim is removed.
    pub fn clean_once(
        &self,
        log: &Arc<Log>,
        relocator: &mut dyn Relocator,
    ) -> Result<Option<CleanStats>, LogError> {
        let mut victims: Vec<_> = log
            .segments_snapshot()
            .into_iter()
            .filter(|s| s.is_closed() && s.utilization() < self.utilization_threshold)
            .collect();
        if victims.is_empty() {
            return Ok(None);
        }
        // Cost-benefit (simplified): clean the emptiest segments first —
        // they return the most memory per byte of relocation work.
        victims.sort_by(|a, b| {
            a.utilization()
                .partial_cmp(&b.utilization())
                .expect("utilization is never NaN")
        });
        victims.truncate(self.max_segments_per_pass);

        let mut stats = CleanStats::default();
        let survivors = SideLog::new(Arc::clone(log));
        let relocated = survivors.append_batch(|side| {
            victims
                .iter()
                .try_for_each(|seg| relocate(seg, side, &mut *relocator, &mut stats))
        });
        // Survivors join the log before any victim leaves it.
        if stats.entries_relocated > 0 {
            survivors.commit()?;
        }
        relocated?;
        for seg in victims {
            if log.remove_segment(seg.id()).is_some() {
                stats.segments_cleaned += 1;
                stats.victims.push(seg.id());
                stats.bytes_reclaimed += seg.capacity() as u64;
            }
        }
        Ok(Some(stats))
    }
}

/// Copies `victim`'s live entries into `survivors`, repointing each
/// through `relocator`.
fn relocate(
    victim: &Segment,
    survivors: &mut SideLogAppender<'_>,
    relocator: &mut dyn Relocator,
    stats: &mut CleanStats,
) -> Result<(), LogError> {
    for (offset, view) in victim.iter_entries() {
        let old = LogRef {
            segment: victim.id(),
            offset,
        };
        match relocator.disposition(&view, old) {
            Relocation::Drop => stats.entries_dropped += 1,
            Relocation::Keep => {
                let new = survivors.append(
                    view.kind,
                    view.table_id,
                    view.key_hash,
                    view.version,
                    view.key,
                    view.value,
                )?;
                relocator.relocated(&view, old, new);
                stats.entries_relocated += 1;
                stats.bytes_relocated += view.serialized_len() as u64;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::EntryKind;
    use crate::log::LogConfig;
    use std::collections::HashMap;

    /// A minimal stand-in for the master's hash table.
    struct MapRelocator {
        current: HashMap<u64, LogRef>,
    }

    impl MapRelocator {
        fn new() -> Self {
            MapRelocator {
                current: HashMap::new(),
            }
        }
    }

    impl Relocator for MapRelocator {
        fn disposition(&mut self, view: &EntryView<'_>, old: LogRef) -> Relocation {
            if self.current.get(&view.key_hash) == Some(&old) {
                Relocation::Keep
            } else {
                Relocation::Drop
            }
        }

        fn relocated(&mut self, view: &EntryView<'_>, _old: LogRef, new: LogRef) {
            self.current.insert(view.key_hash, new);
        }
    }

    fn filled_log() -> (Arc<Log>, MapRelocator) {
        let log = Arc::new(Log::new(LogConfig {
            segment_bytes: 512,
            max_segments: None,
        }));
        let mut reloc = MapRelocator::new();
        // Write each key twice: the first copy of each is dead.
        for round in 0..2u64 {
            for i in 0..40u64 {
                let r = log
                    .append(
                        EntryKind::Object,
                        1,
                        i,
                        round + 1,
                        &i.to_le_bytes(),
                        b"0123456789",
                    )
                    .unwrap();
                if let Some(old) = reloc.current.insert(i, r) {
                    log.mark_dead(old, 53);
                }
            }
        }
        (log, reloc)
    }

    #[test]
    fn nothing_to_clean_on_fresh_log() {
        let log = Arc::new(Log::new(LogConfig::default()));
        log.append(EntryKind::Object, 1, 0, 1, b"k", b"v").unwrap();
        let mut reloc = MapRelocator::new();
        let out = Cleaner::default().clean_once(&log, &mut reloc).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn cleaning_reclaims_segments_and_preserves_live_data() {
        let (log, mut reloc) = filled_log();
        let before = log.stats();
        let cleaner = Cleaner {
            utilization_threshold: 0.95,
            max_segments_per_pass: 100,
        };
        let stats = cleaner
            .clean_once(&log, &mut reloc)
            .unwrap()
            .expect("should clean something");
        assert!(stats.segments_cleaned > 0);
        assert!(stats.entries_dropped > 0, "dead first-copies must drop");
        let after = log.stats();
        assert!(after.segments <= before.segments);
        // Every live key still resolves to its latest version.
        for (hash, r) in &reloc.current {
            let e = log.entry(*r).unwrap_or_else(|| panic!("lost key {hash}"));
            assert_eq!(e.version, 2, "key {hash} resolved to stale version");
        }
        assert_eq!(reloc.current.len(), 40);
    }

    #[test]
    fn survivors_land_in_adopted_segments_and_never_in_the_head() {
        let (log, mut reloc) = filled_log();
        let head = log.segment(log.head_segment_id()).unwrap();
        let head_before = head.committed();
        let (_, seen) = log.joined_since(0);
        let cleaner = Cleaner {
            utilization_threshold: 0.95,
            max_segments_per_pass: 100,
        };
        let stats = cleaner.clean_once(&log, &mut reloc).unwrap().unwrap();
        assert_eq!(stats.victims.len(), stats.segments_cleaned);
        assert!(stats.victims.iter().all(|v| log.segment(*v).is_none()));
        // Everything that joined during the pass is an adopted, closed,
        // all-live survivor segment holding exactly the relocated bytes.
        let (joined, _) = log.joined_since(seen);
        assert!(!joined.is_empty());
        for j in &joined {
            assert!(j.adopted && j.segment.is_closed());
            assert_eq!(j.segment.utilization(), 1.0);
        }
        let relocated: u64 = joined.iter().map(|j| j.segment.committed() as u64).sum();
        assert_eq!(relocated, stats.bytes_relocated);
        // The head did not roll and grew by the survivors' commit record
        // alone; an all-live survivor is not a candidate again.
        assert_eq!(log.head_segment_id(), head.id());
        let commit_record = crate::entry::serialized_len(0, 8 * joined.len());
        assert_eq!(head.committed() - head_before, commit_record);
        let again = cleaner.clean_once(&log, &mut reloc).unwrap();
        assert!(again.is_none_or(|s| s.entries_relocated == 0));
    }

    #[test]
    fn repeated_cleaning_converges() {
        let (log, mut reloc) = filled_log();
        let cleaner = Cleaner {
            utilization_threshold: 0.95,
            max_segments_per_pass: 1,
        };
        let mut passes = 0;
        while cleaner.clean_once(&log, &mut reloc).unwrap().is_some() {
            passes += 1;
            assert!(passes < 100, "cleaner not converging");
        }
        for r in reloc.current.values() {
            assert!(log.entry(*r).is_some());
        }
    }

    #[test]
    fn threshold_zero_cleans_nothing() {
        let (log, mut reloc) = filled_log();
        let cleaner = Cleaner {
            utilization_threshold: 0.0,
            max_segments_per_pass: 10,
        };
        assert!(cleaner.clean_once(&log, &mut reloc).unwrap().is_none());
    }

    #[test]
    fn pass_limit_respected() {
        let (log, mut reloc) = filled_log();
        let cleaner = Cleaner {
            utilization_threshold: 0.95,
            max_segments_per_pass: 1,
        };
        let stats = cleaner.clean_once(&log, &mut reloc).unwrap().unwrap();
        assert_eq!(stats.segments_cleaned, 1);
    }
}

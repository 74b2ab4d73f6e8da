//! RAMCloud's pre-existing, source-driven migration (§2.3) — the
//! baseline Rocksteady is measured against.
//!
//! The source sequentially scans its in-memory log, copies values that
//! belong to the migrating tablet into staging buffers, and ships them to
//! the target, which logically replays them into its own log and
//! re-replicates them. Ownership transfers only at the *end*. Figure 5
//! dissects this pipeline with four levers, each cutting it one stage
//! earlier: a run performs every [`BaselineStage`] up to its own.
//!
//! | last stage | effect |
//! |---|---|
//! | `Rereplicate` (full) | scan + copy + tx + replay + re-replication |
//! | `Replay` | target replays but does not replicate |
//! | `Tx` | target acks without replaying |
//! | `Copy` | source scans + copies, never transmits |
//! | `Identify` | source only identifies migrating objects |
//!
//! Because the source retains ownership, it keeps serving writes during
//! the scan; the scan is followed by catch-up passes over the log tail,
//! a brief seal (writes rejected), a final pass, and then the ownership
//! transfer — the "delta catch-up" structure of classical live migration
//! (Albatross et al., which §6 cites as the family this mechanism
//! belongs to).

use bytes::Bytes;
use rocksteady_common::{FxHashSet, HashRange, ServerId, TableId};
use rocksteady_logstore::EntryKind;
use rocksteady_master::{MasterService, TabletRole, Work};
use rocksteady_proto::msg::BaselineStage;
use rocksteady_proto::Record;

/// What the source server should do after one scan step.
#[derive(Debug)]
pub enum BaselineAction {
    /// Send this batch to the target (empty when a lever suppressed the
    /// build/tx), then run the next step when appropriate.
    SendBatch {
        /// Records to push (empty for a run that stops before `Tx`).
        records: Vec<Record>,
        /// Whether the caller must wait for the target's ack before the
        /// next step (windowed transfer; the full protocol uses 1
        /// outstanding batch).
        await_ack: bool,
        /// Migrating-record bytes this step processed, whether or not
        /// they were shipped — the Figure 5 rate metric under the
        /// levers.
        scanned_bytes: u64,
    },
    /// Scanning is complete; transfer ownership to the target via the
    /// coordinator (full protocol only — lever variants just stop).
    TransferOwnership,
    /// The migration is entirely done.
    Done,
}

/// Phase of the baseline scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Main pass + catch-up passes while writes continue.
    Scanning,
    /// Writes rejected; finishing the final delta.
    Sealed,
    /// Ownership transfer requested.
    Transferring,
    /// Finished.
    Done,
}

/// Source-side state machine for one baseline migration.
#[derive(Debug)]
pub struct BaselineMigration {
    /// Table being migrated.
    pub table: TableId,
    /// Range being migrated.
    pub range: HashRange,
    /// Destination server.
    pub target: ServerId,
    /// The last stage the run performs (Figure 5's levers).
    pub until: BaselineStage,
    /// Batch size in record bytes (matches the Pull budget for
    /// comparability).
    pub batch_bytes: u64,
    phase: Phase,
    /// Fully-scanned segment ids.
    scanned: FxHashSet<u64>,
    /// Current position: segment id + entry offset.
    pos: Option<(u64, u32)>,
    /// Per-segment scan bounds captured at seal time: entries beyond
    /// these were appended after the seal and cannot belong to the
    /// (now immutable) migrating range.
    seal_bounds: Option<Vec<(u64, usize)>>,
    /// Total records identified as migrating (statistics).
    pub records_identified: u64,
    /// Total record bytes shipped (statistics).
    pub bytes_shipped: u64,
}

impl BaselineMigration {
    /// Starts a baseline migration on the source. Marks the tablet
    /// `BaselineSourceTo` (still serving clients, §2.3).
    pub fn new(
        master: &mut MasterService,
        table: TableId,
        range: HashRange,
        target: ServerId,
        until: BaselineStage,
        batch_bytes: u64,
    ) -> Option<Self> {
        if !master.set_tablet_role(table, range, TabletRole::BaselineSourceTo { target }) {
            return None;
        }
        Some(BaselineMigration {
            table,
            range,
            target,
            until,
            batch_bytes,
            phase: Phase::Scanning,
            scanned: FxHashSet::default(),
            pos: None,
            seal_bounds: None,
            records_identified: 0,
            bytes_shipped: 0,
        })
    }

    /// Whether the migration has fully completed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Whether any Figure 5 lever is active (measurement-only run).
    fn lever_active(&self) -> bool {
        self.until < BaselineStage::Rereplicate
    }

    /// Runs one scan step on a worker: walks the log from the current
    /// position, gathering up to `batch_bytes` of matching records.
    /// Returns the next action and the work performed (the server
    /// charges it as a Background task).
    pub fn step(&mut self, master: &mut MasterService) -> (BaselineAction, Work) {
        let mut work = Work::default();
        match self.phase {
            Phase::Transferring | Phase::Done => return (BaselineAction::Done, work),
            Phase::Scanning | Phase::Sealed => {}
        }

        let mut records = Vec::new();
        let mut batch_bytes = 0u64;
        let segments = master.log.segments_snapshot();

        'segments: for seg in &segments {
            if self.scanned.contains(&seg.id()) {
                continue;
            }
            // Bound the scan: up to the seal snapshot if sealed, else up
            // to what is committed right now.
            let bound = match &self.seal_bounds {
                Some(bounds) => bounds
                    .iter()
                    .find(|(id, _)| *id == seg.id())
                    .map(|(_, b)| *b)
                    .unwrap_or(0),
                None => seg.committed(),
            };
            let mut offset = match self.pos {
                Some((id, off)) if id == seg.id() => off,
                _ => 0,
            };
            while (offset as usize) < bound {
                let Ok((view, len)) = seg.entry_at(offset) else {
                    break;
                };
                work.scanned_entries += 1;
                let matches = view.table_id == self.table.0
                    && self.range.contains(view.key_hash)
                    && view.kind != EntryKind::SideLogCommit;
                if matches {
                    self.records_identified += 1;
                    if self.until >= BaselineStage::Copy {
                        let rec = Record {
                            table: self.table,
                            key_hash: view.key_hash,
                            version: view.version,
                            key: Bytes::copy_from_slice(view.key),
                            value: Bytes::copy_from_slice(view.value),
                            tombstone: view.kind == EntryKind::Tombstone,
                        };
                        let wire = rec.wire_size();
                        // Staging copy into transmit buffers (§2.3: the
                        // copy costs more than the transmission itself).
                        work.copied_bytes += wire;
                        work.checksummed_bytes += wire;
                        batch_bytes += wire;
                        records.push(rec);
                    } else {
                        batch_bytes += view.serialized_len() as u64;
                    }
                }
                offset += len as u32;
                if batch_bytes >= self.batch_bytes {
                    self.pos = Some((seg.id(), offset));
                    break 'segments;
                }
            }
            // Segment consumed up to its bound.
            if seg.is_closed() || self.seal_bounds.is_some() {
                self.scanned.insert(seg.id());
                self.pos = None;
            } else {
                // Open head scanned to its current committed length;
                // remember where to resume the catch-up.
                self.pos = Some((seg.id(), offset));
            }
        }

        if batch_bytes > 0 {
            let send = self.until >= BaselineStage::Tx;
            self.bytes_shipped += if send { batch_bytes } else { 0 };
            return (
                BaselineAction::SendBatch {
                    records: if send { records } else { Vec::new() },
                    await_ack: send,
                    scanned_bytes: batch_bytes,
                },
                work,
            );
        }

        // Nothing new found: either seal now, or finish.
        if self.lever_active() && self.phase == Phase::Scanning {
            // Figure 5 lever variants are measurement-only: they never
            // seal the tablet or transfer ownership (several are unsafe
            // by construction, §2.3).
            self.phase = Phase::Done;
            master.set_tablet_role(self.table, self.range, TabletRole::Owner);
            return (BaselineAction::Done, work);
        }
        match self.phase {
            Phase::Scanning => {
                // Freeze the range (writes now rejected) and capture the
                // final bounds; one more pass drains the delta.
                master.set_tablet_role(
                    self.table,
                    self.range,
                    TabletRole::MigratingOutTo {
                        target: self.target,
                    },
                );
                self.seal_bounds = Some(
                    master
                        .log
                        .segments_snapshot()
                        .iter()
                        .map(|s| (s.id(), s.committed()))
                        .collect(),
                );
                self.phase = Phase::Sealed;
                // Immediately try the final pass.
                let (action, mut extra) = self.step(master);
                extra.add(&work);
                (action, extra)
            }
            Phase::Sealed => {
                self.phase = Phase::Transferring;
                (BaselineAction::TransferOwnership, work)
            }
            Phase::Transferring | Phase::Done => (BaselineAction::Done, work),
        }
    }

    /// The coordinator acknowledged the ownership transfer.
    pub fn on_ownership_transferred(&mut self, master: &mut MasterService) {
        self.phase = Phase::Done;
        master.drop_tablet(self.table, self.range);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::key_hash;
    use rocksteady_master::{MasterConfig, ReplayDest};

    const T: TableId = TableId(1);

    fn source_with(n: u64) -> MasterService {
        let mut m = MasterService::new(MasterConfig {
            log: rocksteady_logstore::LogConfig {
                segment_bytes: 4096,
                max_segments: None,
            },
            ..MasterConfig::default()
        });
        m.add_tablet(T, HashRange::full(), TabletRole::Owner);
        for i in 0..n {
            let key = format!("user{i:06}");
            m.load_object(T, key.as_bytes(), &[7u8; 100]);
        }
        m
    }

    fn drain(
        mig: &mut BaselineMigration,
        src: &mut MasterService,
        mut on_batch: impl FnMut(Vec<Record>),
    ) {
        for _ in 0..100_000 {
            let (action, _work) = mig.step(src);
            match action {
                BaselineAction::SendBatch { records, .. } => on_batch(records),
                BaselineAction::TransferOwnership => {
                    mig.on_ownership_transferred(src);
                    return;
                }
                BaselineAction::Done => return,
            }
        }
        panic!("baseline migration did not converge");
    }

    #[test]
    fn full_scan_ships_everything_and_transfers() {
        let mut src = source_with(300);
        let mut mig = BaselineMigration::new(
            &mut src,
            T,
            HashRange::full(),
            ServerId(2),
            BaselineStage::default(),
            20_000,
        )
        .unwrap();
        let mut tgt = MasterService::new(MasterConfig::default());
        tgt.add_tablet(T, HashRange::full(), TabletRole::Owner);
        drain(&mut mig, &mut src, |records| {
            for r in records {
                tgt.replay_record(&r, ReplayDest::MainLog, &mut Work::default());
            }
        });
        assert!(mig.is_done());
        assert_eq!(mig.records_identified, 300);
        // Target serves every record.
        for i in 0..300u64 {
            let key = format!("user{i:06}");
            let (value, _) = tgt
                .read(
                    T,
                    key_hash(key.as_bytes()),
                    Some(key.as_bytes()),
                    &mut Work::default(),
                )
                .unwrap();
            assert_eq!(&value[..], &[7u8; 100]);
        }
        // Source dropped the tablet.
        assert!(src.tablet_covering(T, key_hash(b"user000000")).is_none());
    }

    #[test]
    fn writes_during_scan_are_caught_up() {
        let mut src = source_with(100);
        let mut mig = BaselineMigration::new(
            &mut src,
            T,
            HashRange::full(),
            ServerId(2),
            BaselineStage::default(),
            2_000,
        )
        .unwrap();
        let mut tgt = MasterService::new(MasterConfig::default());
        tgt.add_tablet(T, HashRange::full(), TabletRole::Owner);
        let mut batches = 0;
        let mut wrote_midway = false;
        for _ in 0..100_000 {
            let (action, _) = mig.step(&mut src);
            match action {
                BaselineAction::SendBatch { records, .. } => {
                    batches += 1;
                    for r in records {
                        tgt.replay_record(&r, ReplayDest::MainLog, &mut Work::default());
                    }
                    if batches == 2 && !wrote_midway {
                        // Concurrent client write during the scan.
                        wrote_midway = true;
                        src.write(
                            T,
                            key_hash(b"user000001"),
                            b"user000001",
                            b"updated-mid-scan",
                            &mut Work::default(),
                        )
                        .unwrap();
                    }
                }
                BaselineAction::TransferOwnership => {
                    mig.on_ownership_transferred(&mut src);
                    break;
                }
                BaselineAction::Done => break,
            }
        }
        assert!(wrote_midway, "test never exercised the catch-up path");
        let (value, _) = tgt
            .read(
                T,
                key_hash(b"user000001"),
                Some(b"user000001"),
                &mut Work::default(),
            )
            .unwrap();
        assert_eq!(&value[..], b"updated-mid-scan");
    }

    #[test]
    fn seal_rejects_writes() {
        let mut src = source_with(10);
        let mut mig = BaselineMigration::new(
            &mut src,
            T,
            HashRange::full(),
            ServerId(2),
            BaselineStage::default(),
            1 << 20,
        )
        .unwrap();
        // One big batch, then the seal + final pass happen.
        loop {
            let (action, _) = mig.step(&mut src);
            match action {
                BaselineAction::SendBatch { .. } => continue,
                BaselineAction::TransferOwnership => break,
                BaselineAction::Done => break,
            }
        }
        let err = src
            .write(T, key_hash(b"late"), b"late", b"v", &mut Work::default())
            .unwrap_err();
        assert_eq!(err, rocksteady_master::OpError::UnknownTablet);
    }

    #[test]
    fn skip_copy_identifies_without_building() {
        let mut src = source_with(200);
        let mut mig = BaselineMigration::new(
            &mut src,
            T,
            HashRange::full(),
            ServerId(2),
            BaselineStage::Identify,
            20_000,
        )
        .unwrap();
        let mut saw_records = false;
        drain(&mut mig, &mut src, |records| {
            saw_records |= !records.is_empty();
        });
        assert!(!saw_records, "an Identify run must not build records");
        assert_eq!(mig.records_identified, 200);
        assert_eq!(mig.bytes_shipped, 0);
    }

    /// Each stage runs what the lever it replaces ran. The old levers'
    /// formulas, inline: copy `!skip_copy`, send `!skip_copy &&
    /// !skip_tx`, and of what was sent, replay `!skip_replay` and
    /// re-replicate `!skip_replay && !skip_rereplication`;
    /// measurement-only if any lever is set. Copy and send are read off
    /// a run's first step; replay and re-replication are the target's
    /// comparisons on the stage its `PushRecords` carries.
    #[test]
    fn each_stage_runs_what_its_lever_ran() {
        // (stage, skip_copy, skip_tx, skip_replay, skip_rereplication)
        let table = [
            (BaselineStage::Identify, true, false, false, false),
            (BaselineStage::Copy, false, true, false, false),
            (BaselineStage::Tx, false, false, true, false),
            (BaselineStage::Replay, false, false, false, true),
            (BaselineStage::Rereplicate, false, false, false, false),
        ];
        for (until, skip_copy, skip_tx, skip_replay, skip_rereplication) in table {
            let mut src = source_with(50);
            let full = HashRange::full();
            let mut mig = BaselineMigration::new(&mut src, T, full, ServerId(2), until, 20_000)
                .expect("owned");
            let (action, work) = mig.step(&mut src);
            let BaselineAction::SendBatch {
                records, await_ack, ..
            } = action
            else {
                panic!("{until:?}: the first step found no batch");
            };
            assert_eq!(work.copied_bytes > 0, !skip_copy, "{until:?} copies");
            let send = !skip_copy && !skip_tx;
            assert_eq!(!records.is_empty() && await_ack, send, "{until:?} sends");
            let replay = until >= BaselineStage::Replay;
            assert_eq!(replay, send && !skip_replay, "{until:?} replays");
            let rereplicate = until >= BaselineStage::Rereplicate;
            let old = send && !skip_replay && !skip_rereplication;
            assert_eq!(rereplicate, old, "{until:?} re-replicates");
            let lever = skip_copy || skip_tx || skip_replay || skip_rereplication;
            assert_eq!(mig.lever_active(), lever, "{until:?} is a lever run");
        }
    }

    #[test]
    fn only_matching_range_is_shipped() {
        let mut src = source_with(200);
        // Migrate only the upper half of the hash space.
        let upper = HashRange {
            start: u64::MAX / 2 + 1,
            end: u64::MAX,
        };
        let mid = u64::MAX / 2 + 1;
        src.split_tablet(T, mid).unwrap();
        let mut mig = BaselineMigration::new(
            &mut src,
            T,
            upper,
            ServerId(2),
            BaselineStage::default(),
            20_000,
        )
        .unwrap();
        let mut shipped = Vec::new();
        drain(&mut mig, &mut src, |records| shipped.extend(records));
        assert!(!shipped.is_empty());
        for r in &shipped {
            assert!(upper.contains(r.key_hash));
        }
        // Lower half still served by the source.
        let mut found_lower = false;
        for i in 0..200u64 {
            let key = format!("user{i:06}");
            let h = key_hash(key.as_bytes());
            if !upper.contains(h) {
                src.read(T, h, Some(key.as_bytes()), &mut Work::default())
                    .unwrap();
                found_lower = true;
            }
        }
        assert!(found_lower);
    }
}

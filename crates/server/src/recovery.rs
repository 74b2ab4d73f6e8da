//! Lineage-driven crash recovery (§3.4), one tablet at a time.
//!
//! A recovery master fetches the crashed server's replicated segments
//! from every backup, keeps the longest image of each (replicas of the
//! open head segment may trail one another), and replays the records of
//! the recovering range once every fetch is accounted for. A backup
//! that dies mid-fetch is failed over to a survivor; only when none
//! remain is the fetch written off as a gap.

use bytes::Bytes;
use rocksteady_common::{CostModel, FxHashMap, HashRange, Nanos, RpcId, ServerId, TableId};
use rocksteady_logstore::{entry, EntryKind};
use rocksteady_proto::msg::SegmentImage;
use rocksteady_proto::{Record, Request};
use rocksteady_simnet::ActorId;

pub(crate) struct RecoveryRun {
    pub(crate) table: TableId,
    pub(crate) range: HashRange,
    /// The coordinator's `RecoverTablet`, answered after the replay.
    pub(crate) coordinator_rpc: (ActorId, RpcId),
    pending_fetches: u32,
    images: FxHashMap<u64, Bytes>,
    /// Whose log we are recovering, and from which segment on — kept so
    /// a fetch to a dead backup can be re-issued elsewhere.
    crashed: ServerId,
    from_segment: u64,
    /// The coordinator's backup list for `crashed`.
    backups: Vec<ServerId>,
    /// Backups that died while we were fetching from them.
    failed_backups: Vec<ServerId>,
}

/// What to do about a fetch whose backup died.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FetchFailure {
    /// Re-issue the fetch against this surviving backup.
    Failover(ServerId),
    /// No backup is left: whatever only that fetch held is lost.
    Gap,
}

/// The records to replay, with their modeled cost.
pub(crate) struct RecoveryReplay {
    pub(crate) records: Vec<Record>,
    /// Worker time to replay `records`.
    pub(crate) replay_ns: Nanos,
    /// Log entries walked (and checksummed) to find them.
    pub(crate) scanned_entries: u64,
}

impl RecoveryRun {
    /// A run with one fetch pending per backup.
    pub(crate) fn new(
        table: TableId,
        range: HashRange,
        coordinator_rpc: (ActorId, RpcId),
        crashed: ServerId,
        from_segment: u64,
        backups: Vec<ServerId>,
    ) -> Self {
        RecoveryRun {
            table,
            range,
            coordinator_rpc,
            pending_fetches: backups.len() as u32,
            images: FxHashMap::default(),
            crashed,
            from_segment,
            backups,
            failed_backups: Vec::new(),
        }
    }

    pub(crate) fn backups(&self) -> &[ServerId] {
        &self.backups
    }

    /// The fetch every backup is asked (and a failover re-asks).
    pub(crate) fn fetch_request(&self) -> Request {
        Request::FetchSegments {
            owner: self.crashed,
            min_segment: self.from_segment,
        }
    }

    /// Whether every fetch is accounted for, so the replay may run.
    pub(crate) fn ready(&self) -> bool {
        self.pending_fetches == 0
    }

    /// One backup answered: the longest image of each segment wins.
    pub(crate) fn on_segments(&mut self, segments: Vec<SegmentImage>) {
        for img in segments {
            match self.images.get_mut(&img.id) {
                Some(have) if have.len() >= img.data.len() => {}
                Some(have) => *have = img.data,
                None => {
                    self.images.insert(img.id, img.data);
                }
            }
        }
        self.pending_fetches -= 1;
    }

    /// The backup `dead` died with a fetch outstanding.
    pub(crate) fn on_fetch_failed(&mut self, dead: ServerId) -> FetchFailure {
        if !self.failed_backups.contains(&dead) {
            self.failed_backups.push(dead);
        }
        let survivor = self
            .backups
            .iter()
            .find(|b| !self.failed_backups.contains(b));
        match survivor {
            Some(backup) => FetchFailure::Failover(*backup),
            None => {
                self.pending_fetches = self.pending_fetches.saturating_sub(1);
                FetchFailure::Gap
            }
        }
    }

    /// Walks the merged images in segment order and collects the
    /// recovering range's records, as refcounted slices of the images —
    /// no per-record copy. The CRC verification in `parse` (these are
    /// foreign bytes) is what recovery pays for; a corrupt or truncated
    /// tail ends that segment's walk.
    pub(crate) fn replay(&self, cost: &CostModel) -> RecoveryReplay {
        let mut out = RecoveryReplay {
            records: Vec::new(),
            replay_ns: 0,
            scanned_entries: 0,
        };
        let mut ids: Vec<u64> = self.images.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let data = &self.images[&id];
            let mut offset = 0usize;
            while offset < data.len() {
                let Ok((view, len)) = entry::parse(&data[offset..]) else {
                    break;
                };
                out.scanned_entries += 1;
                if view.table_id == self.table.0
                    && self.range.contains(view.key_hash)
                    && view.kind != EntryKind::SideLogCommit
                {
                    let hdr = offset + entry::ENTRY_HEADER_BYTES;
                    let record = Record {
                        table: self.table,
                        key_hash: view.key_hash,
                        version: view.version,
                        key: data.slice(hdr..hdr + view.key.len()),
                        value: data.slice(hdr + view.key.len()..offset + len),
                        tombstone: view.kind == EntryKind::Tombstone,
                    };
                    out.replay_ns += cost.replay_record_ns(record.wire_size());
                    out.records.push(record);
                }
                offset += len;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_logstore::Segment;
    use std::sync::Arc;

    const T: TableId = TableId(1);
    const LOW: HashRange = HashRange { start: 0, end: 999 };

    /// A segment image holding one object per `(key_hash, version)`.
    fn image(id: u64, entries: &[(u64, u64)]) -> SegmentImage {
        let seg = Arc::new(Segment::new(id, 1 << 16));
        for (hash, version) in entries {
            seg.append(EntryKind::Object, T.0, *hash, *version, b"key", b"value")
                .expect("fits");
        }
        SegmentImage {
            id,
            data: seg.committed_as_bytes(),
        }
    }

    fn run(backups: &[u32]) -> RecoveryRun {
        let backups = backups.iter().map(|b| ServerId(*b)).collect();
        RecoveryRun::new(T, LOW, (0, RpcId(1)), ServerId(9), 4, backups)
    }

    #[test]
    fn longest_image_wins_and_replay_waits_for_the_last_fetch() {
        let mut r = run(&[1, 2, 3]);
        assert!(!r.ready());
        // Backup 1 trails on the head segment; backup 2 has it all;
        // backup 3 answers last with a shorter copy again.
        r.on_segments(vec![image(4, &[(1, 1), (2, 1)]), image(5, &[(3, 1)])]);
        assert!(!r.ready());
        r.on_segments(vec![image(5, &[(3, 1), (4, 1), (5, 1)])]);
        assert!(!r.ready());
        r.on_segments(vec![image(5, &[(3, 1), (4, 1)])]);
        assert!(r.ready(), "replay is due exactly when no fetch is pending");

        let replay = r.replay(&CostModel::default());
        let hashes: Vec<u64> = replay.records.iter().map(|rec| rec.key_hash).collect();
        assert_eq!(hashes, vec![1, 2, 3, 4, 5], "segment order, longest image");
        assert_eq!(replay.scanned_entries, 5);
        assert!(replay.records.iter().all(|rec| &rec.key[..] == b"key"));
        assert!(replay.records.iter().all(|rec| &rec.value[..] == b"value"));
        assert!(replay.replay_ns > 0);
    }

    #[test]
    fn replay_keeps_only_the_recovering_range_and_stops_at_corruption() {
        let mut r = run(&[1]);
        let mut img = image(4, &[(1, 1), (5_000, 1), (2, 7)]);
        let mut bytes = img.data.to_vec();
        // A torn tail: half an entry header after the last whole entry.
        bytes.extend_from_slice(&[0u8; 10]);
        img.data = Bytes::from(bytes);
        r.on_segments(vec![img]);
        let replay = r.replay(&CostModel::default());
        let got: Vec<(u64, u64)> = replay
            .records
            .iter()
            .map(|rec| (rec.key_hash, rec.version))
            .collect();
        assert_eq!(got, vec![(1, 1), (2, 7)], "hash 5000 is outside the range");
        assert_eq!(replay.scanned_entries, 3);
    }

    /// The cleaner copied victim 4's live records into survivor 9 and
    /// frees the victim only once the survivor is durable — so whichever
    /// moment the master dies at, the images left cover every record.
    #[test]
    fn a_cleaned_victim_or_its_survivors_always_cover_the_live_records() {
        let victim = || image(4, &[(1, 1), (1, 3), (2, 5)]);
        let hashes_and_versions = |r: &RecoveryRun| -> Vec<(u64, u64)> {
            let replay = r.replay(&CostModel::default());
            let records = replay.records.iter();
            records.map(|rec| (rec.key_hash, rec.version)).collect()
        };
        // Died before the survivor's last ack: nobody was told to free
        // the victim, one backup has a torn prefix of the survivor.
        let mut r = run(&[1, 2]);
        r.on_segments(vec![victim()]);
        r.on_segments(vec![victim(), image(9, &[(1, 3)])]);
        assert_eq!(
            hashes_and_versions(&r),
            [(1, 1), (1, 3), (2, 5), (1, 3)],
            "the duplicate is the master's version check to drop"
        );
        // Died after: backup 1 already freed the victim, backup 2 had
        // not yet; both hold the whole survivor.
        let mut r = run(&[1, 2]);
        r.on_segments(vec![image(9, &[(1, 3), (2, 5)])]);
        r.on_segments(vec![victim(), image(9, &[(1, 3), (2, 5)])]);
        assert_eq!(
            hashes_and_versions(&r),
            [(1, 1), (1, 3), (2, 5), (1, 3), (2, 5)]
        );
        // Freed everywhere: the survivor alone has the live versions.
        let mut r = run(&[1]);
        r.on_segments(vec![image(9, &[(1, 3), (2, 5)])]);
        assert_eq!(hashes_and_versions(&r), [(1, 3), (2, 5)]);
    }

    #[test]
    fn a_dead_backup_fails_over_until_none_remain() {
        let mut r = run(&[1, 2]);
        assert_eq!(r.backups(), &[ServerId(1), ServerId(2)]);
        assert!(matches!(
            r.fetch_request(),
            Request::FetchSegments {
                owner: ServerId(9),
                min_segment: 4
            }
        ));
        // Backup 1 dies: its fetch moves to backup 2, still pending.
        assert_eq!(
            r.on_fetch_failed(ServerId(1)),
            FetchFailure::Failover(ServerId(2))
        );
        assert!(!r.ready());
        // Backup 2 answers its own fetch; the failed-over one is still out.
        r.on_segments(vec![image(4, &[(1, 1)])]);
        assert!(!r.ready());
        // Then backup 2 dies too: nobody is left, the fetch is a gap,
        // and the replay proceeds with what arrived.
        assert_eq!(r.on_fetch_failed(ServerId(2)), FetchFailure::Gap);
        assert!(r.ready());
        assert_eq!(r.replay(&CostModel::default()).records.len(), 1);
    }

    #[test]
    fn no_backups_means_ready_at_once() {
        assert!(run(&[]).ready());
    }
}

//! Lineage-driven crash recovery (§3.4), one tablet at a time.
//!
//! A recovery master fetches the crashed server's replicated segments
//! from every live server and keeps the longest image of each (replicas
//! of the open head segment may trail one another). Every live server
//! was asked, so a fetch to one that dies counts as an empty answer: what
//! only it held is a gap. Once every fetch is accounted for, each merged
//! image becomes one replay batch, which a worker walks and replays into
//! its own side log of the run, the way a migration target replays
//! (§3.1.3). After the last batch the side logs are committed once, and
//! the tablet is claimed when they and the log heads are durable.

use std::collections::BTreeMap;

use bytes::Bytes;
use rocksteady_common::{HashRange, RpcId, TableId};
use rocksteady_logstore::{EntryKind, EntrySlices, SegmentIter, SideLog};
use rocksteady_master::service::record_of;
use rocksteady_proto::msg::SegmentImage;
use rocksteady_proto::Record;
use rocksteady_simnet::ActorId;

/// What a recovery run asks of the node next.
pub(crate) enum Step {
    /// Fetches or replay batches are still out.
    Wait,
    /// Replay each merged image, in segment order, as one batch.
    Replay(Vec<Bytes>),
    /// Every batch ended: hand the side logs over and claim the tablet
    /// once they and the log heads are durable.
    Claim,
}

pub(crate) struct RecoveryRun {
    pub(crate) table: TableId,
    pub(crate) range: HashRange,
    /// The coordinator's `RecoverTablet`, answered once the replayed log
    /// is durable.
    pub(crate) coordinator_rpc: (ActorId, RpcId),
    pending_fetches: u32,
    /// The longest image of each segment, by segment id.
    images: BTreeMap<u64, Bytes>,
    /// Per-worker side logs the batches replay into.
    pub(crate) sidelogs: Vec<Option<SideLog>>,
    /// Batches queued or in service.
    pending_batches: u32,
    /// Records the batches applied.
    pub(crate) replayed: u64,
}

impl RecoveryRun {
    /// A run with `fetches` fetches pending, on a node of `workers`
    /// worker cores.
    pub(crate) fn new(
        table: TableId,
        range: HashRange,
        coordinator_rpc: (ActorId, RpcId),
        fetches: usize,
        workers: usize,
    ) -> Self {
        RecoveryRun {
            table,
            range,
            coordinator_rpc,
            pending_fetches: fetches as u32,
            images: BTreeMap::new(),
            sidelogs: (0..workers).map(|_| None).collect(),
            pending_batches: 0,
            replayed: 0,
        }
    }

    /// One fetch was answered, or lost with its server (no segments):
    /// the longest image of each segment wins.
    pub(crate) fn on_segments(&mut self, segments: Vec<SegmentImage>) -> Step {
        for img in segments {
            let have = self.images.entry(img.id).or_default();
            if have.len() < img.data.len() {
                *have = img.data;
            }
        }
        self.pending_fetches -= 1;
        self.next()
    }

    /// A replay batch's service ended.
    pub(crate) fn batch_done(&mut self) -> Step {
        self.pending_batches -= 1;
        self.next()
    }

    /// Replay once no fetch is pending, then the claim once no batch is
    /// (at once with no image to replay).
    pub(crate) fn next(&mut self) -> Step {
        if self.pending_fetches > 0 || self.pending_batches > 0 {
            return Step::Wait;
        }
        if self.images.is_empty() {
            return Step::Claim;
        }
        let images = std::mem::take(&mut self.images);
        self.pending_batches = images.len() as u32;
        Step::Replay(images.into_values().collect())
    }

    /// The recovering range's records in `image`, as refcounted slices
    /// of it (no per-record copy), and how many entries the walk
    /// checked. The walk verifies each entry's checksum (these are
    /// foreign bytes); a torn or corrupt tail ends it.
    pub(crate) fn walk(&self, image: &Bytes) -> (Vec<Record>, u64) {
        let (mut records, mut scanned) = (Vec::new(), 0);
        for (at, view) in SegmentIter::new(image) {
            scanned += 1;
            if view.table_id == self.table.0
                && self.range.contains(view.key_hash)
                && view.kind != EntryKind::SideLogCommit
            {
                records.push(record_of(self.table, EntrySlices::of(image, at, &view)));
            }
        }
        (records, scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_logstore::SegmentWriter;

    const T: TableId = TableId(1);
    const LOW: HashRange = HashRange { start: 0, end: 999 };

    /// A segment image holding one object per `(key_hash, version)`.
    fn image(id: u64, entries: &[(u64, u64)]) -> SegmentImage {
        let mut seg = SegmentWriter::new(id, 1 << 16);
        for (hash, version) in entries {
            seg.append(EntryKind::Object, T.0, *hash, *version, b"key", b"value")
                .expect("fits");
        }
        SegmentImage {
            id,
            data: seg.segment().committed_as_bytes(),
        }
    }

    fn run(fetches: usize) -> RecoveryRun {
        RecoveryRun::new(T, LOW, (0, RpcId(1)), fetches, 2)
    }

    /// The batches `step` asks to replay; panics on any other step.
    fn replay(step: Step) -> Vec<Bytes> {
        match step {
            Step::Replay(images) => images,
            Step::Wait => panic!("waits"),
            Step::Claim => panic!("claims"),
        }
    }

    /// The `(key_hash, version)`s each of `images` replays, in order.
    fn walked(r: &RecoveryRun, images: &[Bytes]) -> Vec<Vec<(u64, u64)>> {
        let walks = images.iter().map(|img| r.walk(img).0);
        let keys = |recs: Vec<Record>| recs.iter().map(|rec| (rec.key_hash, rec.version)).collect();
        walks.map(keys).collect()
    }

    /// [`walked`] of the batches the run's last fetch, `segments`, sets off.
    fn last_fetch(r: &mut RecoveryRun, segments: Vec<SegmentImage>) -> Vec<Vec<(u64, u64)>> {
        let images = replay(r.on_segments(segments));
        walked(r, &images)
    }

    #[test]
    fn longest_image_wins_and_replay_waits_for_the_last_fetch() {
        let mut r = run(3);
        assert!(matches!(r.next(), Step::Wait));
        // Backup 1 trails on the head segment; backup 2 has it all;
        // backup 3 answers last with a shorter copy again.
        let first = vec![image(4, &[(1, 1), (2, 1)]), image(5, &[(3, 1)])];
        assert!(matches!(r.on_segments(first), Step::Wait));
        let second = vec![image(5, &[(3, 1), (4, 1), (5, 1)])];
        assert!(matches!(r.on_segments(second), Step::Wait));
        let images = replay(r.on_segments(vec![image(5, &[(3, 1), (4, 1)])]));
        assert_eq!(
            walked(&r, &images),
            [vec![(1, 1), (2, 1)], vec![(3, 1), (4, 1), (5, 1)]],
            "one batch per segment, in segment order, the longest image"
        );
        let walks: Vec<(Vec<Record>, u64)> = images.iter().map(|img| r.walk(img)).collect();
        assert_eq!(walks.iter().map(|(_, n)| *n).collect::<Vec<_>>(), [2, 3]);
        let records = || walks.iter().flat_map(|(recs, _)| recs);
        assert!(records().all(|rec| &rec.key[..] == b"key"));
        assert!(records().all(|rec| &rec.value[..] == b"value"));
        // The run claims after its last batch, whichever order they end in.
        assert!(matches!(r.batch_done(), Step::Wait));
        assert!(matches!(r.batch_done(), Step::Claim));
    }

    #[test]
    fn replay_keeps_only_the_recovering_range_and_stops_at_corruption() {
        let mut r = run(1);
        let torn = image(4, &[(1, 1), (5_000, 1), (2, 7)]);
        let mut bytes = torn.data.to_vec();
        // A torn tail: half an entry header after the last whole entry.
        bytes.extend_from_slice(&[0u8; 10]);
        let torn = SegmentImage {
            id: 4,
            data: Bytes::from(bytes),
        };
        // A corrupt entry ends its own image's walk, not the next one's.
        let mut bytes = image(6, &[(3, 1), (4, 1)]).data.to_vec();
        *bytes.last_mut().expect("an entry") ^= 1;
        let corrupt = SegmentImage {
            id: 6,
            data: Bytes::from(bytes),
        };
        let images = replay(r.on_segments(vec![torn, corrupt, image(7, &[(6, 2)])]));
        let scanned: Vec<u64> = images.iter().map(|img| r.walk(img).1).collect();
        assert_eq!(scanned, [3, 1, 1]);
        assert_eq!(
            walked(&r, &images),
            [vec![(1, 1), (2, 7)], vec![(3, 1)], vec![(6, 2)]],
            "hash 5000 is outside the range"
        );
    }

    /// The cleaner copied victim 4's live records into survivor 9 and
    /// frees the victim only once the survivor is durable — so whichever
    /// moment the master dies at, the images left cover every record.
    #[test]
    fn a_cleaned_victim_or_its_survivors_always_cover_the_live_records() {
        let victim = || image(4, &[(1, 1), (1, 3), (2, 5)]);
        // Died before the survivor's last ack: nobody was told to free
        // the victim, one backup has a torn prefix of the survivor.
        let mut r = run(2);
        r.on_segments(vec![victim()]);
        assert_eq!(
            last_fetch(&mut r, vec![victim(), image(9, &[(1, 3)])]),
            [vec![(1, 1), (1, 3), (2, 5)], vec![(1, 3)]],
            "the duplicate is the master's version check to drop"
        );
        // Died after: backup 1 already freed the victim, backup 2 had
        // not yet; both hold the whole survivor.
        let mut r = run(2);
        r.on_segments(vec![image(9, &[(1, 3), (2, 5)])]);
        assert_eq!(
            last_fetch(&mut r, vec![victim(), image(9, &[(1, 3), (2, 5)])]),
            [vec![(1, 1), (1, 3), (2, 5)], vec![(1, 3), (2, 5)]]
        );
        // Freed everywhere: the survivor alone has the live versions.
        let mut r = run(1);
        assert_eq!(
            last_fetch(&mut r, vec![image(9, &[(1, 3), (2, 5)])]),
            [vec![(1, 3), (2, 5)]]
        );
    }

    #[test]
    fn a_lost_fetch_counts_as_an_empty_answer() {
        let mut r = run(2);
        assert!(matches!(
            r.on_segments(vec![image(4, &[(1, 1)])]),
            Step::Wait
        ));
        // The other server died with its fetch outstanding: the replay
        // proceeds with what arrived.
        assert_eq!(last_fetch(&mut r, Vec::new()), [vec![(1, 1)]]);
    }

    #[test]
    fn no_backups_means_ready_at_once() {
        assert!(matches!(run(0).next(), Step::Claim));
        // Nor does a fetch that found nothing leave anything to replay.
        assert!(matches!(run(1).on_segments(Vec::new()), Step::Claim));
    }
}

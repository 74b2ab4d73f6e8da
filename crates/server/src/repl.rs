//! The replication manager (§2.3): a serialized ~380 MB/s resource with
//! two lanes, plus the ack groups durable writes wait on.
//!
//! Foreground (write-path) replication preempts bulk (lazy
//! re-replication, §3.4) traffic: bulk chunks queue behind both lanes,
//! foreground chunks only behind their own. [`ReplManager::plan`]
//! decides *what* leaves *when*; the shell allocates the RPCs and sends.

use std::sync::Arc;

use bytes::Bytes;
use rocksteady_common::{CostModel, FxHashMap, Nanos, RpcId};
use rocksteady_logstore::Segment;
use rocksteady_proto::{Envelope, Response};
use rocksteady_simnet::ActorId;

/// Cap on chunk size, so bulk re-replication interleaves with foreground
/// responses on the NIC instead of hogging it with whole-segment
/// transmissions.
const CHUNK: usize = 64 * 1024;

/// One replication chunk bound for one backup.
#[derive(Debug)]
pub(crate) struct ChunkSend {
    /// How long the replication manager holds the chunk before it
    /// leaves (0 = send now).
    pub(crate) delay: Nanos,
    pub(crate) backup: ActorId,
    pub(crate) segment: u64,
    pub(crate) offset: u32,
    /// A refcounted slice of the segment, not a copy.
    pub(crate) data: Bytes,
}

/// A group of replication acks someone waits on.
#[derive(Debug)]
pub(crate) struct AckGroup {
    remaining: u32,
    /// Worker to release.
    pub(crate) worker: Option<usize>,
    /// Client to answer.
    pub(crate) respond: (ActorId, RpcId, Response),
}

#[derive(Default)]
pub(crate) struct ReplManager {
    free_at: Nanos,
    bulk_free_at: Nanos,
    /// Bytes of each segment already handed to the backups.
    cursor: FxHashMap<u64, usize>,
    groups: FxHashMap<u64, AckGroup>,
    last_group: u64,
    /// Chunks whose lane is still busy, held until their delay elapses.
    parked: FxHashMap<u64, (ActorId, Envelope)>,
    last_parked: u64,
}

impl ReplManager {
    /// Marks the first `committed` bytes of `segment` as replicated.
    pub(crate) fn mark_durable(&mut self, segment: u64, committed: usize) {
        self.cursor.insert(segment, committed);
    }

    /// Chunks every not-yet-shipped byte of `segments` for every backup,
    /// in (segment, offset, backup) order, and advances the cursors.
    /// Each chunk occupies its lane for its whole fan-out before the
    /// copies leave together.
    pub(crate) fn plan(
        &mut self,
        now: Nanos,
        segments: &[Arc<Segment>],
        backups: &[ActorId],
        bulk: bool,
        cost: &CostModel,
    ) -> Vec<ChunkSend> {
        let mut sends = Vec::new();
        for seg in segments {
            let committed = seg.committed();
            let mut done = self.cursor.get(&seg.id()).copied().unwrap_or(0);
            if committed <= done {
                continue;
            }
            let window = seg.committed_as_bytes();
            while done < committed {
                let end = (done + CHUNK).min(committed);
                let data = window.slice(done..end);
                let mut start = now.max(self.free_at);
                let lane = if bulk {
                    start = start.max(self.bulk_free_at);
                    &mut self.bulk_free_at
                } else {
                    &mut self.free_at
                };
                *lane = start + cost.replication_occupancy_ns(data.len() as u64);
                let delay = *lane - now;
                sends.extend(backups.iter().map(|b| ChunkSend {
                    delay,
                    backup: *b,
                    segment: seg.id(),
                    offset: done as u32,
                    data: data.clone(),
                }));
                done = end;
            }
            self.cursor.insert(seg.id(), committed);
        }
        sends
    }

    /// Holds a delayed chunk's message; the ticket redeems it once.
    pub(crate) fn park(&mut self, backup: ActorId, env: Envelope) -> u64 {
        self.last_parked += 1;
        self.parked.insert(self.last_parked, (backup, env));
        self.last_parked
    }

    pub(crate) fn unpark(&mut self, ticket: u64) -> Option<(ActorId, Envelope)> {
        self.parked.remove(&ticket)
    }

    /// Opens a group that completes after `chunks` acks.
    pub(crate) fn open_group(
        &mut self,
        chunks: u32,
        worker: Option<usize>,
        respond: (ActorId, RpcId, Response),
    ) -> u64 {
        self.last_group += 1;
        let group = AckGroup {
            remaining: chunks,
            worker,
            respond,
        };
        self.groups.insert(self.last_group, group);
        self.last_group
    }

    /// One chunk of `group` was acked — or its backup died, which counts
    /// the same (we degrade to R-1 replicas rather than wedge the
    /// writer). Returns the group when that was its last chunk.
    pub(crate) fn credit(&mut self, group: u64) -> Option<AckGroup> {
        let g = self.groups.get_mut(&group)?;
        g.remaining -= 1;
        if g.remaining == 0 {
            self.groups.remove(&group)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 byte/ns: a chunk's occupancy equals its length.
    fn cost() -> CostModel {
        CostModel {
            replication_bytes_per_ns: 1.0,
            ..CostModel::default()
        }
    }

    fn segment(id: u64, bytes: usize) -> Arc<Segment> {
        let seg = Segment::new(id, 1 << 20);
        seg.append_raw(&vec![id as u8; bytes]).expect("fits");
        Arc::new(seg)
    }

    #[test]
    fn bulk_queues_behind_both_lanes_and_foreground_only_behind_its_own() {
        let mut r = ReplManager::default();
        // Plans one fresh `bytes`-long segment; returns its chunk's delay.
        let mut delay = |id, now, bytes, bulk| {
            let sends = r.plan(now, &[segment(id, bytes)], &[7], bulk, &cost());
            assert_eq!(sends.len(), 1);
            sends[0].delay
        };
        // Bulk at t=100 occupies the bulk lane until 1100.
        assert_eq!(delay(1, 100, 1_000, true), 1_000);
        // Foreground at t=200 ignores the bulk lane, then queues behind
        // itself: free at 250, then 300.
        assert_eq!(delay(2, 200, 50, false), 50);
        assert_eq!(delay(3, 200, 50, false), 100);
        // Bulk starts at max(now = 250, free_at = 300, bulk_free_at = 1100).
        assert_eq!(delay(4, 250, 10, true), 1_100 + 10 - 250);
        // With the bulk lane idle, bulk still yields to foreground.
        assert_eq!(delay(5, 2_000, 500, false), 500);
        assert_eq!(delay(6, 2_000, 10, true), 510);
        // A drained lane adds no delay beyond occupancy.
        assert_eq!(delay(7, 9_000, 10, false), 10);
    }

    #[test]
    fn segments_ship_in_64k_chunks_per_backup_and_only_once() {
        let mut r = ReplManager::default();
        let seg = segment(9, 150_000);
        let sends = r.plan(0, &[Arc::clone(&seg)], &[3, 4], false, &cost());
        let shape: Vec<_> = sends
            .iter()
            .map(|s| (s.segment, s.backup, s.offset, s.data.len(), s.delay))
            .collect();
        let expected = [
            (9, 3, 0, 65_536, 65_536),
            (9, 4, 0, 65_536, 65_536),
            (9, 3, 65_536, 65_536, 131_072),
            (9, 4, 65_536, 65_536, 131_072),
            (9, 3, 131_072, 18_928, 150_000),
            (9, 4, 131_072, 18_928, 150_000),
        ];
        assert_eq!(shape, expected);
        // The cursor advanced: nothing to re-ship until the segment
        // grows, and then only the delta goes.
        assert!(r
            .plan(0, &[Arc::clone(&seg)], &[3], false, &cost())
            .is_empty());
        seg.append_raw(&[1; 100]).expect("fits");
        let sends = r.plan(0, &[Arc::clone(&seg)], &[3], false, &cost());
        assert_eq!(sends.len(), 1);
        assert_eq!((sends[0].offset, sends[0].data.len()), (150_000, 100));
        // Preloaded bytes marked durable are never shipped.
        let mut r = ReplManager::default();
        r.mark_durable(9, seg.committed());
        assert!(r.plan(0, &[seg], &[3], false, &cost()).is_empty());
    }

    #[test]
    fn ack_group_answers_exactly_once_after_the_last_credit() {
        let mut r = ReplManager::default();
        let a = r.open_group(3, Some(2), (5, RpcId(8), Response::Ok));
        let b = r.open_group(1, None, (6, RpcId(9), Response::Ok));
        assert_ne!(a, b);
        // Acks and dead backups credit through the same call.
        assert!(r.credit(a).is_none() && r.credit(a).is_none());
        let done = r.credit(a).expect("third credit completes the group");
        assert_eq!(
            (done.worker, done.respond.0, done.respond.1),
            (Some(2), 5, RpcId(8))
        );
        assert!(
            r.credit(a).is_none(),
            "a finished group never answers twice"
        );
        assert_eq!(r.credit(b).map(|g| g.respond.0), Some(6));
    }

    #[test]
    fn a_parked_chunk_is_redeemed_once() {
        let mut r = ReplManager::default();
        let env = || Envelope::resp(RpcId(1), Response::Ok);
        let (a, b) = (r.park(3, env()), r.park(4, env()));
        assert_eq!(r.unpark(b).map(|(backup, _)| backup), Some(4));
        assert!(r.unpark(b).is_none());
        assert_eq!(r.unpark(a).map(|(backup, _)| backup), Some(3));
    }
}

//! The replication manager (§2.3): a serialized ~380 MB/s resource with
//! two lanes, plus the ack groups that wait on its shipments.
//!
//! The lane is a property of the *segment*, and a segment never changes
//! lane. Head bytes — client writes, baseline replay, and the commit
//! records of side logs — ride the foreground lane; adopted segments —
//! the side logs of migration and crash-recovery replay (§3.4's lazy
//! re-replication), cleaner survivors — ride the bulk lane. Bulk chunks
//! queue behind both lanes, foreground chunks only behind their own, so
//! bulk bytes never sit inside a client write's ack group; a recovery
//! master's answer waits on both, as its recovered bytes are adopted.
//! Each segment's chunks leave in offset order, as a backup's append
//! check needs. The manager keeps the segments that still have unshipped
//! bytes instead of re-deriving them from the whole log on every write;
//! it decides *what* leaves *when*, the shell allocates the RPCs and
//! sends.

use std::sync::Arc;

use bytes::Bytes;
use rocksteady_common::{CostModel, FxHashMap, Nanos, RpcId};
use rocksteady_logstore::{Log, Segment};
use rocksteady_proto::{Envelope, Response};
use rocksteady_simnet::ActorId;

use crate::recovery::RecoveryRun;

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

/// What the last ack of a group sets off.
pub(crate) enum Durable {
    /// A client's bytes are durable: answer it and release the worker
    /// held for it.
    Respond {
        worker: usize,
        respond: (ActorId, RpcId, Response),
    },
    /// A finished recovery run's committed side logs and the log heads
    /// are durable: the node owns its tablet from now on, and answers
    /// the coordinator. No worker waits on it. Boxed, so every group
    /// stays the size of a write's.
    Claim(Box<RecoveryRun>),
    /// A cleaner pass's survivors are durable: these victims' replicas
    /// are garbage.
    FreeVictims(Vec<u64>),
}

struct AckGroup {
    remaining: u32,
    then: Durable,
}

/// A segment with bytes the backups have not been handed yet.
struct Unshipped {
    seg: Arc<Segment>,
    shipped: usize,
    /// Adopted from a side log: bulk lane. Otherwise a head, current or
    /// rolled: foreground lane.
    adopted: bool,
}

/// Which unshipped segments one plan covers, and so on which lane.
#[derive(Clone, Copy)]
pub(crate) enum Scope {
    /// The head, and heads rolled since, on the foreground lane: the
    /// write path's delta, and any commit record appended since.
    Heads,
    /// Adopted segments only, on the bulk lane, none leaving before
    /// `not_before` (a cleaner pass ships its survivors once the modeled
    /// copy is paid for; committed side logs leave at once).
    Adopted { not_before: Nanos },
}

#[derive(Default)]
pub(crate) struct ReplManager {
    free_at: Nanos,
    bulk_free_at: Nanos,
    /// The current head and every other segment with unshipped bytes,
    /// in the order they joined the log.
    unshipped: Vec<Unshipped>,
    /// [`Log::joins`] as of the last look at the log.
    seen: u64,
    groups: FxHashMap<u64, AckGroup>,
    last_group: u64,
    /// Messages held until their delay elapses: chunks whose lane is
    /// still busy, frees that must not overtake them.
    parked: FxHashMap<u64, (ActorId, Envelope)>,
    last_parked: u64,
}

impl ReplManager {
    /// Picks up heads opened and side segments adopted since the last
    /// look: one atomic load when there are none.
    fn sync(&mut self, log: &Log) {
        if log.joins() == self.seen {
            return;
        }
        let (joined, seen) = log.joined_since(self.seen);
        self.unshipped.extend(joined.into_iter().map(|j| Unshipped {
            seg: j.segment,
            shipped: 0,
            adopted: j.adopted,
        }));
        self.seen = seen;
    }

    /// Everything in `log` right now already sits on the backups: the
    /// committed image of each non-empty segment, returned for the
    /// caller to place there.
    pub(crate) fn mark_durable(&mut self, log: &Log) -> Vec<(u64, Bytes)> {
        self.sync(log);
        for u in &mut self.unshipped {
            u.shipped = u.seg.committed();
        }
        self.retire();
        let segments = log.segments_snapshot();
        let written = segments.iter().filter(|s| s.committed() > 0);
        written.map(|s| (s.id(), s.committed_as_bytes())).collect()
    }

    /// Drops closed segments with nothing left to ship; the open head
    /// stays, it will grow.
    fn retire(&mut self) {
        self.unshipped
            .retain(|u| !u.seg.is_closed() || u.shipped < u.seg.committed());
    }

    /// The cleaner removed `victims` from the log: whatever of them was
    /// not shipped yet never will be (their live entries moved on).
    pub(crate) fn forget(&mut self, victims: &[u64]) {
        self.unshipped.retain(|u| !victims.contains(&u.seg.id()));
    }

    /// Chunks the unshipped bytes `scope` covers for every backup, in
    /// (segment, offset, backup) order. Each chunk occupies its lane for
    /// its whole fan-out before the copies leave together.
    pub(crate) fn plan(
        &mut self,
        scope: Scope,
        now: Nanos,
        log: &Log,
        backups: &[ActorId],
        cost: &CostModel,
    ) -> Vec<ChunkSend> {
        self.sync(log);
        let (bulk, not_before) = match scope {
            Scope::Heads => (false, now),
            Scope::Adopted { not_before } => (true, not_before),
        };
        let mut sends = Vec::new();
        for u in &mut self.unshipped {
            let committed = u.seg.committed();
            if u.adopted != bulk || committed <= u.shipped {
                continue;
            }
            let window = u.seg.committed_as_bytes();
            while u.shipped < committed {
                let end = (u.shipped + CHUNK).min(committed);
                let data = window.slice(u.shipped..end);
                let mut start = not_before.max(self.free_at);
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
                    segment: u.seg.id(),
                    offset: u.shipped as u32,
                    data: data.clone(),
                }));
                u.shipped = end;
            }
        }
        self.retire();
        sends
    }

    /// When the last chunk planned so far leaves: both lanes are FIFO,
    /// so anything sent at or after this cannot overtake one.
    pub(crate) fn drained_at(&self) -> Nanos {
        self.free_at.max(self.bulk_free_at)
    }

    /// Holds a delayed message; the ticket redeems it once.
    pub(crate) fn park(&mut self, backup: ActorId, env: Envelope) -> u64 {
        self.last_parked += 1;
        self.parked.insert(self.last_parked, (backup, env));
        self.last_parked
    }

    pub(crate) fn unpark(&mut self, ticket: u64) -> Option<(ActorId, Envelope)> {
        self.parked.remove(&ticket)
    }

    /// Opens a group that completes after `chunks` acks.
    pub(crate) fn open_group(&mut self, chunks: u32, then: Durable) -> u64 {
        self.last_group += 1;
        let group = AckGroup {
            remaining: chunks,
            then,
        };
        self.groups.insert(self.last_group, group);
        self.last_group
    }

    /// One chunk of `group` was acked — or its backup died, which counts
    /// the same: a dead backup is an ack (ROADMAP.md gap 1 (c)), so the
    /// writer is answered with R−1 replicas or, at R = 1, none. Returns
    /// what to do when that was its last chunk.
    pub(crate) fn credit(&mut self, group: u64) -> Option<Durable> {
        let g = self.groups.get_mut(&group)?;
        g.remaining -= 1;
        if g.remaining == 0 {
            self.groups.remove(&group).map(|g| g.then)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::rng::Prng;
    use rocksteady_logstore::{EntryKind, LogConfig, SegmentWriter, SideLog, ENTRY_HEADER_BYTES};

    /// 1 byte/ns: a chunk's occupancy equals its length.
    fn cost() -> CostModel {
        CostModel {
            replication_bytes_per_ns: 1.0,
            ..CostModel::default()
        }
    }

    fn log() -> Log {
        Log::new(LogConfig::default())
    }

    /// One client write of exactly `bytes` serialized bytes.
    fn write(log: &Log, bytes: usize) {
        let value = vec![7; bytes - ENTRY_HEADER_BYTES];
        log.append(EntryKind::Object, 1, 0, 1, b"", &value)
            .expect("fits");
    }

    /// One `bytes`-long side segment (migration replay, cleaner
    /// survivors) holding one entry, adopted; returns its id. `bytes` is
    /// at least an entry header.
    fn adopt(log: &Log, bytes: usize) -> u64 {
        let mut seg = SegmentWriter::new(log.alloc_segment_id(), bytes);
        let value = vec![9; bytes - ENTRY_HEADER_BYTES];
        seg.append(EntryKind::Object, 1, 0, 1, b"", &value)
            .expect("fits");
        let id = seg.id();
        log.adopt_segment(seg.close());
        id
    }

    fn unshipped_ids(r: &ReplManager) -> Vec<u64> {
        r.unshipped.iter().map(|u| u.seg.id()).collect()
    }

    #[test]
    fn bulk_queues_behind_both_lanes_and_foreground_only_behind_its_own() {
        let (mut r, log) = (ReplManager::default(), log());
        // Plans what one write / one adopted segment added; returns the
        // single chunk's delay.
        let mut delay = |now, bytes, bulk| {
            let sends = if bulk {
                adopt(&log, bytes);
                r.plan(Scope::Adopted { not_before: now }, now, &log, &[7], &cost())
            } else {
                write(&log, bytes);
                r.plan(Scope::Heads, now, &log, &[7], &cost())
            };
            assert_eq!(sends.len(), 1);
            sends[0].delay
        };
        // Bulk at t=100 occupies the bulk lane until 1100.
        assert_eq!(delay(100, 1_000, true), 1_000);
        // Foreground at t=200 ignores the bulk lane, then queues behind
        // itself: free at 250, then 300.
        assert_eq!(delay(200, 50, false), 50);
        assert_eq!(delay(200, 50, false), 100);
        // Bulk starts at max(now = 250, free_at = 300, bulk_free_at = 1100).
        assert_eq!(delay(250, 40, true), 1_100 + 40 - 250);
        // With the bulk lane idle, bulk still yields to foreground.
        assert_eq!(delay(2_000, 500, false), 500);
        assert_eq!(delay(2_000, 40, true), 540);
        // A drained lane adds no delay beyond occupancy.
        assert_eq!(delay(9_000, 50, false), 50);
        // Nothing sent from 9050 on can overtake a planned chunk.
        assert_eq!(r.drained_at(), 9_050);
    }

    #[test]
    fn segments_ship_in_64k_chunks_per_backup_and_only_once() {
        let (mut r, log) = (ReplManager::default(), log());
        write(&log, 150_000);
        let sends = r.plan(Scope::Heads, 0, &log, &[3, 4], &cost());
        let shape: Vec<_> = sends
            .iter()
            .map(|s| (s.segment, s.backup, s.offset, s.data.len(), s.delay))
            .collect();
        let expected = [
            (0, 3, 0, 65_536, 65_536),
            (0, 4, 0, 65_536, 65_536),
            (0, 3, 65_536, 65_536, 131_072),
            (0, 4, 65_536, 65_536, 131_072),
            (0, 3, 131_072, 18_928, 150_000),
            (0, 4, 131_072, 18_928, 150_000),
        ];
        assert_eq!(shape, expected);
        // Nothing to re-ship until the head grows, and then only the
        // delta goes.
        assert!(r.plan(Scope::Heads, 0, &log, &[3], &cost()).is_empty());
        write(&log, 100);
        let sends = r.plan(Scope::Heads, 0, &log, &[3], &cost());
        assert_eq!(sends.len(), 1);
        assert_eq!((sends[0].offset, sends[0].data.len()), (150_000, 100));
        // Preloaded bytes marked durable are never shipped.
        let mut r = ReplManager::default();
        r.mark_durable(&log);
        assert!(r.plan(Scope::Heads, 0, &log, &[3], &cost()).is_empty());
        let adopted = Scope::Adopted { not_before: 0 };
        assert!(r.plan(adopted, 0, &log, &[3], &cost()).is_empty());
    }

    #[test]
    fn a_rolled_head_ships_its_tail_before_the_new_head() {
        let (mut r, log) = (ReplManager::default(), log());
        write(&log, 600_000);
        assert_eq!(r.plan(Scope::Heads, 0, &log, &[3], &cost()).len(), 10);
        // The second write lands in head 0, the third rolls it.
        write(&log, 400_000);
        write(&log, 500_000);
        let new_head = log.head_segment_id();
        let sends = r.plan(Scope::Heads, 0, &log, &[3], &cost());
        let first_of_new = sends.iter().position(|s| s.segment == new_head);
        assert_eq!(first_of_new, Some(7));
        assert_eq!((sends[0].segment, sends[0].offset), (0, 600_000));
        assert_eq!(sends[7].offset, 0);
        // The closed, fully shipped ex-head is no longer tracked.
        assert_eq!(unshipped_ids(&r), [new_head]);
    }

    #[test]
    fn an_adopted_segment_rides_the_bulk_lane_and_never_a_write() {
        let (mut r, log) = (ReplManager::default(), log());
        r.mark_durable(&log);
        let side = adopt(&log, 1 << 20);
        assert_eq!(unshipped_ids(&r), [0], "not looked at yet");
        // A write made before anyone planned the adopted segment ships
        // its own bytes only.
        write(&log, 100);
        let sends = r.plan(Scope::Heads, 1_000, &log, &[3, 4], &cost());
        assert!(sends.iter().all(|s| s.segment == 0 && s.delay == 100));
        assert_eq!(unshipped_ids(&r), [0, side]);
        // The adopted MiB: 16 chunks x 2 backups on the bulk lane, none
        // leaving before `not_before`, the last 1 MiB of occupancy later.
        let sends = r.plan(
            Scope::Adopted { not_before: 5_000 },
            2_000,
            &log,
            &[3, 4],
            &cost(),
        );
        assert_eq!(sends.len(), 32);
        assert!(sends.iter().all(|s| s.segment == side));
        assert_eq!(sends[0].delay, 5_000 + 65_536 - 2_000);
        assert_eq!(sends[31].delay, 5_000 + (1 << 20) - 2_000);
        // Fully planned: the unshipped set is the head again.
        assert_eq!(unshipped_ids(&r), [0]);
        // A write while those chunks are in flight waits for its own
        // bytes' occupancy and nothing else.
        write(&log, 200);
        let sends = r.plan(Scope::Heads, 6_000, &log, &[3, 4], &cost());
        assert_eq!(sends.len(), 2);
        assert!(sends.iter().all(|s| s.segment == 0 && s.delay == 200));
        assert!(r
            .plan(
                Scope::Adopted { not_before: 6_000 },
                6_000,
                &log,
                &[3],
                &cost()
            )
            .is_empty());
    }

    #[test]
    fn a_committed_side_log_ships_on_the_bulk_lane_and_its_record_with_the_heads() {
        let (mut r, log) = (ReplManager::default(), Arc::new(log()));
        write(&log, 100);
        assert_eq!(r.plan(Scope::Heads, 0, &log, &[3], &cost())[0].delay, 100);
        let side = SideLog::new(Arc::clone(&log));
        let value = vec![9; 1_000 - ENTRY_HEADER_BYTES];
        side.append(EntryKind::Object, 1, 0, 1, b"", &value)
            .expect("fits");
        let id = side.commit().expect("commit")[0];
        // The hand-off ships the side segment alone, on the bulk lane,
        // behind the head's chunk on the foreground lane (free at 100).
        let shape = |sends: Vec<ChunkSend>| -> Vec<_> {
            let shape = sends
                .iter()
                .map(|s| (s.segment, s.offset, s.data.len(), s.delay));
            shape.collect()
        };
        let sends = r.plan(Scope::Adopted { not_before: 0 }, 0, &log, &[3], &cost());
        assert_eq!(shape(sends), [(id, 0, 1_000, 1_100)]);
        // The commit record, naming one segment, leaves with the next
        // write's delta: right after the head's first chunk, and not
        // behind the busy bulk lane.
        write(&log, 50);
        let sends = r.plan(Scope::Heads, 0, &log, &[3], &cost());
        let bytes = ENTRY_HEADER_BYTES + 8 + 50;
        assert_eq!(shape(sends), [(0, 100, bytes, 100 + bytes as Nanos)]);
    }

    /// Seeded walks of writes, adoptions and both kinds of plan: each
    /// (segment, backup) stream leaves in offset order, every chunk
    /// starting where the last one ended and departing no earlier.
    #[test]
    fn every_segment_departs_in_offset_order_whatever_the_interleaving() {
        for seed in 0..10 {
            let (mut r, log, mut rng) = (ReplManager::default(), log(), Prng::new(seed));
            let mut now = 0;
            // (segment, backup) → (end of the last chunk, its departure).
            let mut streams: FxHashMap<(u64, ActorId), (u32, Nanos)> = FxHashMap::default();
            for step in 0..1_000 {
                now += rng.next_below(2_000);
                let sends = match rng.next_below(4) {
                    0 => {
                        let bytes = rng.next_range(ENTRY_HEADER_BYTES as u64, 60_000);
                        write(&log, bytes as usize);
                        continue;
                    }
                    1 => {
                        adopt(
                            &log,
                            rng.next_range(ENTRY_HEADER_BYTES as u64, 100_000) as usize,
                        );
                        continue;
                    }
                    2 => r.plan(Scope::Heads, now, &log, &[3, 4], &cost()),
                    _ => {
                        let not_before = now + rng.next_below(5_000);
                        r.plan(Scope::Adopted { not_before }, now, &log, &[3, 4], &cost())
                    }
                };
                for s in sends {
                    let departs = now + s.delay;
                    let (end, last) = streams.entry((s.segment, s.backup)).or_default();
                    assert!(
                        s.offset == *end && departs >= *last,
                        "seed {seed} step {step}: segment {}'s chunk at {} departs at {departs}, \
                         after one ending at {end} that departs at {last}",
                        s.segment,
                        s.offset,
                    );
                    *end = s.offset + s.data.len() as u32;
                    *last = departs;
                }
            }
        }
    }

    #[test]
    fn a_cleaned_segment_is_forgotten_unshipped_tail_and_all() {
        let (mut r, log) = (ReplManager::default(), log());
        write(&log, 600_000);
        assert_eq!(r.plan(Scope::Heads, 0, &log, &[3], &cost()).len(), 10);
        // Head 0 gets a tail, rolls, and an adopted segment joins — then
        // the cleaner takes both before either was planned.
        write(&log, 400_000);
        write(&log, 500_000);
        let side = adopt(&log, 1_000);
        for victim in [0, side] {
            log.remove_segment(victim).expect("closed");
        }
        r.forget(&[0, side]);
        assert!(r
            .plan(Scope::Adopted { not_before: 0 }, 0, &log, &[3], &cost())
            .is_empty());
        let sends = r.plan(Scope::Heads, 0, &log, &[3], &cost());
        assert_eq!(sends.len(), 8);
        assert!(sends.iter().all(|s| s.segment == log.head_segment_id()));
    }

    #[test]
    fn ack_group_answers_exactly_once_after_the_last_credit() {
        let mut r = ReplManager::default();
        let respond = |to, rpc| Durable::Respond {
            worker: 2,
            respond: (to, RpcId(rpc), Response::Ok),
        };
        let a = r.open_group(3, respond(5, 8));
        let b = r.open_group(1, respond(6, 9));
        assert_ne!(a, b);
        // Acks and dead backups credit through the same call.
        assert!(r.credit(a).is_none() && r.credit(a).is_none());
        let done = r.credit(a).expect("third credit completes the group");
        assert!(matches!(
            done,
            Durable::Respond {
                worker: 2,
                respond: (5, RpcId(8), _)
            }
        ));
        assert!(
            r.credit(a).is_none(),
            "a finished group never answers twice"
        );
        assert!(matches!(
            r.credit(b),
            Some(Durable::Respond {
                respond: (6, ..),
                ..
            })
        ));
    }

    #[test]
    fn the_last_survivor_ack_yields_the_victims_exactly_once() {
        let (mut r, log) = (ReplManager::default(), log());
        r.mark_durable(&log);
        adopt(&log, 100_000);
        let sends = r.plan(Scope::Adopted { not_before: 0 }, 0, &log, &[3, 4], &cost());
        assert_eq!(sends.len(), 4);
        let g = r.open_group(sends.len() as u32, Durable::FreeVictims(vec![11, 12]));
        // Two acks from backup 3, one from backup 4 — whose death then
        // credits its outstanding chunk like an ack.
        for _ in 0..3 {
            assert!(r.credit(g).is_none());
        }
        let Some(Durable::FreeVictims(victims)) = r.credit(g) else {
            panic!("the fourth credit ends the survivor shipment");
        };
        assert_eq!(victims, [11, 12]);
        assert!(r.credit(g).is_none(), "victims are freed once");
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

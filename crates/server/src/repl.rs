//! The replication manager (§2.3): a serialized ~380 MB/s resource with
//! two lanes, and the one place that decides when replicated bytes are
//! durable.
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
//! bytes instead of re-deriving them from the whole log on every write.
//!
//! It takes one input per event — [`ReplManager::ship`],
//! [`ReplManager::cleaned`], [`ReplManager::acked`],
//! [`ReplManager::lost`] — and answers with an ordered list of [`Out`]s:
//! what leaves when, which [`Durable`] waiter is answered, and when a
//! cleaner's victims are freed. The shell allocates the RPCs, sends, and
//! answers. An ack group counts acks
//! without knowing which bytes they cover, and two decisions lean on
//! that (ROADMAP.md item 1). Each is one line here:
//! - *gap (a)*, in `ship`: a waiter whose call planned no chunk is
//!   answered at once, though its bytes may ride another call's chunk
//!   that no backup has acked yet;
//! - *gap (c)*, `lost`: a chunk lost with its backup credits its group
//!   like an ack, so a write is answered on R−1 replicas, or on none at
//!   R = 1.

use std::collections::hash_map::Entry;
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

/// What a shipment sets off once its bytes are durable.
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
}

/// One step for the shell to carry out, in the order the manager lists
/// them.
pub(crate) enum Out {
    /// Send the chunk once its `delay` elapses; its ack (or its
    /// backup's death) is handed back as `acked(group)` (`lost(group)`).
    Chunk(ChunkSend, Option<u64>),
    /// `(delay, backup, victim)`: tell `backup`, `delay` from now, to
    /// drop its replica of the cleaned segment `victim`.
    Free(Nanos, ActorId, u64),
    /// A waiter's bytes are durable: answer it.
    Durable(Durable),
}

/// What an ack group sets off once its last chunk is in.
pub(crate) enum Then {
    /// Answer a waiter.
    Answer(Durable),
    /// A cleaner pass's survivors are durable: these victims' replicas
    /// are garbage, one [`Out::Free`] per victim and backup.
    Free(Vec<u64>),
}

struct AckGroup {
    remaining: u32,
    then: Then,
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

    /// Chunks the unshipped bytes each of `scopes` covers, in turn, for
    /// every backup, in (segment, offset, backup) order. Each chunk
    /// occupies its lane for its whole fan-out before the copies leave
    /// together.
    fn plan(
        &mut self,
        scopes: &[Scope],
        now: Nanos,
        log: &Log,
        backups: &[ActorId],
        cost: &CostModel,
    ) -> Vec<ChunkSend> {
        self.sync(log);
        let mut sends = Vec::new();
        for scope in scopes {
            let (bulk, not_before) = match *scope {
                Scope::Heads => (false, now),
                Scope::Adopted { not_before } => (true, not_before),
            };
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
        }
        self.retire();
        sends
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

    /// Ships what `scopes` (one or more, planned in turn) cover of the
    /// log and the backups lack, each on its lane, and hands `then` back
    /// once that is durable: the chunks' acks credit one ack group for
    /// `then`, or none if nothing waits. With no chunk to wait on,
    /// victims are freed once every chunk planned so far has left (a
    /// free must not overtake a victim's own chunk still parked).
    pub(crate) fn ship(
        &mut self,
        scopes: &[Scope],
        now: Nanos,
        log: &Log,
        backups: &[ActorId],
        cost: &CostModel,
        then: Option<Then>,
    ) -> Vec<Out> {
        let sends = self.plan(scopes, now, log, backups, cost);
        let group = match then {
            Some(then) if sends.is_empty() => {
                // Both lanes are FIFO: nothing sent from `drained` on can
                // overtake a chunk planned so far.
                let drained = now.max(self.free_at).max(self.bulk_free_at);
                let at = scopes.iter().fold(drained, |at, s| match *s {
                    Scope::Heads => at,
                    Scope::Adopted { not_before } => at.max(not_before),
                });
                // Gap (a): planning nothing answers a waiter now, even
                // when its bytes ride another call's unacked chunk.
                return settle(then, at - now, backups);
            }
            Some(then) => {
                self.last_group += 1;
                let (group, remaining) = (self.last_group, sends.len() as u32);
                self.groups.insert(group, AckGroup { remaining, then });
                Some(group)
            }
            None => None,
        };
        sends.into_iter().map(|c| Out::Chunk(c, group)).collect()
    }

    /// A cleaner pass moved the live entries of `victims` into adopted
    /// segments and removed the victims from the log: ships those
    /// survivors on the bulk lane, none leaving before `not_before`, and
    /// frees the victims' replicas once the survivors are durable. What
    /// of a victim was not shipped yet never will be: its live entries
    /// moved on.
    pub(crate) fn cleaned(
        &mut self,
        victims: Vec<u64>,
        not_before: Nanos,
        now: Nanos,
        log: &Log,
        backups: &[ActorId],
        cost: &CostModel,
    ) -> Vec<Out> {
        self.unshipped.retain(|u| !victims.contains(&u.seg.id()));
        let (survivors, free) = ([Scope::Adopted { not_before }], Then::Free(victims));
        self.ship(&survivors, now, log, backups, cost, Some(free))
    }

    /// A backup acked one chunk of `group` (none: nothing waits on it):
    /// what to carry out, on `backups`, when that was its last.
    pub(crate) fn acked(&mut self, group: Option<u64>, backups: &[ActorId]) -> Vec<Out> {
        let Some(Entry::Occupied(mut g)) = group.map(|g| self.groups.entry(g)) else {
            return Vec::new();
        };
        g.get_mut().remaining -= 1;
        if g.get().remaining > 0 {
            return Vec::new();
        }
        settle(g.remove().then, 0, backups)
    }

    /// A chunk of `group` was in flight to a backup that died.
    pub(crate) fn lost(&mut self, group: Option<u64>, backups: &[ActorId]) -> Vec<Out> {
        // Gap (c): a lost chunk credits its group like an ack.
        self.acked(group, backups)
    }
}

/// What `then` comes to once durable: every one of `backups` is told
/// to free each victim `delay` from now; a waiter is answered at once.
fn settle(then: Then, delay: Nanos, backups: &[ActorId]) -> Vec<Out> {
    match then {
        Then::Free(victims) => {
            let each = |victim| backups.iter().map(move |&b| Out::Free(delay, b, victim));
            victims.into_iter().flat_map(each).collect()
        }
        Then::Answer(waiter) => vec![Out::Durable(waiter)],
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
                r.plan(
                    &[Scope::Adopted { not_before: now }],
                    now,
                    &log,
                    &[7],
                    &cost(),
                )
            } else {
                write(&log, bytes);
                r.plan(&[Scope::Heads], now, &log, &[7], &cost())
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
        // Nothing sent from 9050 on can overtake a planned chunk: a free
        // with no survivors to wait on leaves then.
        let outs = r.cleaned(vec![1], 9_000, 9_000, &log, &[7], &cost());
        assert!(matches!(outs[..], [Out::Free(50, 7, 1)]));
    }

    #[test]
    fn segments_ship_in_64k_chunks_per_backup_and_only_once() {
        let (mut r, log) = (ReplManager::default(), log());
        write(&log, 150_000);
        let sends = r.plan(&[Scope::Heads], 0, &log, &[3, 4], &cost());
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
        assert!(r.plan(&[Scope::Heads], 0, &log, &[3], &cost()).is_empty());
        write(&log, 100);
        let sends = r.plan(&[Scope::Heads], 0, &log, &[3], &cost());
        assert_eq!(sends.len(), 1);
        assert_eq!((sends[0].offset, sends[0].data.len()), (150_000, 100));
        // Preloaded bytes marked durable are never shipped.
        let mut r = ReplManager::default();
        r.mark_durable(&log);
        assert!(r.plan(&[Scope::Heads], 0, &log, &[3], &cost()).is_empty());
        let adopted = Scope::Adopted { not_before: 0 };
        assert!(r.plan(&[adopted], 0, &log, &[3], &cost()).is_empty());
    }

    #[test]
    fn a_rolled_head_ships_its_tail_before_the_new_head() {
        let (mut r, log) = (ReplManager::default(), log());
        write(&log, 600_000);
        assert_eq!(r.plan(&[Scope::Heads], 0, &log, &[3], &cost()).len(), 10);
        // The second write lands in head 0, the third rolls it.
        write(&log, 400_000);
        write(&log, 500_000);
        let new_head = log.head_segment_id();
        let sends = r.plan(&[Scope::Heads], 0, &log, &[3], &cost());
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
        let sends = r.plan(&[Scope::Heads], 1_000, &log, &[3, 4], &cost());
        assert!(sends.iter().all(|s| s.segment == 0 && s.delay == 100));
        assert_eq!(unshipped_ids(&r), [0, side]);
        // The adopted MiB: 16 chunks x 2 backups on the bulk lane, none
        // leaving before `not_before`, the last 1 MiB of occupancy later.
        let sends = r.plan(
            &[Scope::Adopted { not_before: 5_000 }],
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
        let sends = r.plan(&[Scope::Heads], 6_000, &log, &[3, 4], &cost());
        assert_eq!(sends.len(), 2);
        assert!(sends.iter().all(|s| s.segment == 0 && s.delay == 200));
        assert!(r
            .plan(
                &[Scope::Adopted { not_before: 6_000 }],
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
        assert_eq!(
            r.plan(&[Scope::Heads], 0, &log, &[3], &cost())[0].delay,
            100
        );
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
        let sends = r.plan(&[Scope::Adopted { not_before: 0 }], 0, &log, &[3], &cost());
        assert_eq!(shape(sends), [(id, 0, 1_000, 1_100)]);
        // The commit record, naming one segment, leaves with the next
        // write's delta: right after the head's first chunk, and not
        // behind the busy bulk lane.
        write(&log, 50);
        let sends = r.plan(&[Scope::Heads], 0, &log, &[3], &cost());
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
                    2 => r.plan(&[Scope::Heads], now, &log, &[3, 4], &cost()),
                    _ => {
                        let not_before = now + rng.next_below(5_000);
                        r.plan(
                            &[Scope::Adopted { not_before }],
                            now,
                            &log,
                            &[3, 4],
                            &cost(),
                        )
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
        assert_eq!(r.plan(&[Scope::Heads], 0, &log, &[3], &cost()).len(), 10);
        // Head 0 gets a tail, rolls, and an adopted segment joins — then
        // the cleaner takes both before either was planned.
        write(&log, 400_000);
        write(&log, 500_000);
        let side = adopt(&log, 1_000);
        for victim in [0, side] {
            log.remove_segment(victim).expect("closed");
        }
        // The pass ships its survivors (none) and frees its victims.
        let outs = r.cleaned(vec![0, side], 0, 0, &log, &[3], &cost());
        assert!(matches!(outs[..], [Out::Free(_, 3, 0), Out::Free(_, 3, s)] if s == side));
        let sends = r.plan(&[Scope::Heads], 0, &log, &[3], &cost());
        assert_eq!(sends.len(), 8);
        assert!(sends.iter().all(|s| s.segment == log.head_segment_id()));
    }

    /// Answer `Ok` to client `to`'s call `rpc`, holding worker 2.
    fn respond(to: ActorId, rpc: u64) -> Then {
        Then::Answer(Durable::Respond {
            worker: 2,
            respond: (to, RpcId(rpc), Response::Ok),
        })
    }

    /// The group that each of `outs`, `n` chunks, credits.
    fn group_of(outs: &[Out], n: usize) -> Option<u64> {
        let groups: Vec<Option<u64>> = outs
            .iter()
            .map(|o| match o {
                Out::Chunk(_, group) => *group,
                _ => panic!("not a chunk"),
            })
            .collect();
        assert_eq!(groups.len(), n);
        assert!(groups.iter().all(|g| *g == groups[0]));
        assert!(groups[0].is_some(), "the chunks credit a group");
        groups[0]
    }

    /// Client `to`'s answer, the one thing `outs` holds.
    fn answers(outs: &[Out], to: ActorId) -> bool {
        matches!(
            outs,
            [Out::Durable(Durable::Respond {
                worker: 2,
                respond: (client, ..),
            })] if *client == to
        )
    }

    #[test]
    fn ack_group_answers_exactly_once_after_the_last_credit() {
        let (mut r, log) = (ReplManager::default(), log());
        write(&log, 100);
        let outs = r.ship(
            &[Scope::Heads],
            0,
            &log,
            &[3, 4, 5],
            &cost(),
            Some(respond(5, 8)),
        );
        let a = group_of(&outs, 3);
        write(&log, 100);
        let outs = r.ship(&[Scope::Heads], 0, &log, &[3], &cost(), Some(respond(6, 9)));
        let b = group_of(&outs, 1);
        assert_ne!(a, b);
        assert!(r.acked(a, &[3]).is_empty() && r.acked(a, &[3]).is_empty());
        assert!(answers(&r.acked(a, &[3]), 5), "the third ack answers");
        assert!(
            r.acked(a, &[3]).is_empty(),
            "a finished group never answers twice"
        );
        assert!(answers(&r.acked(b, &[3]), 6));
        assert!(r.acked(None, &[3]).is_empty(), "nothing waits on no group");
    }

    #[test]
    fn the_last_survivor_ack_yields_the_victims_exactly_once() {
        let (mut r, log) = (ReplManager::default(), log());
        r.mark_durable(&log);
        adopt(&log, 100_000);
        let outs = r.cleaned(vec![11, 12], 0, 0, &log, &[3, 4], &cost());
        let g = group_of(&outs, 4);
        for _ in 0..3 {
            assert!(r.acked(g, &[3, 4]).is_empty());
        }
        // Backup 4 died meanwhile: the frees go to the backups left.
        let frees = r.acked(g, &[3]);
        assert!(
            matches!(frees[..], [Out::Free(0, 3, 11), Out::Free(0, 3, 12)]),
            "the fourth ack ends the survivor shipment"
        );
        assert!(r.acked(g, &[3]).is_empty(), "victims are freed once");
        // No survivors to wait on: the frees leave once the chunks
        // planned so far have (the bulk lane is busy until 100 000), and
        // not before `not_before`.
        for (now, not_before, delay) in [(0, 50, 100_000), (200_000, 250_000, 50_000)] {
            let outs = r.cleaned(vec![13], not_before, now, &log, &[3, 4], &cost());
            assert!(
                matches!(outs[..], [Out::Free(d3, 3, 13), Out::Free(d4, 4, 13)] if d3 == delay && d4 == delay),
                "at {now}, not before {not_before}"
            );
        }
    }

    /// ROADMAP.md item 1, gap (a).
    #[test]
    #[ignore = "ROADMAP item 1 gap (a): a waiter whose call planned no chunk is answered at once"]
    fn a_waiter_riding_another_calls_chunk_waits_for_its_acks() {
        let (mut r, log) = (ReplManager::default(), log());
        // Two writes land before either ships: the first call's chunk
        // carries both.
        write(&log, 100);
        write(&log, 100);
        let outs = r.ship(
            &[Scope::Heads],
            0,
            &log,
            &[3, 4],
            &cost(),
            Some(respond(5, 8)),
        );
        let a = group_of(&outs, 2);
        let outs = r.ship(
            &[Scope::Heads],
            0,
            &log,
            &[3, 4],
            &cost(),
            Some(respond(6, 9)),
        );
        assert!(
            !outs.iter().any(|o| matches!(o, Out::Durable(_))),
            "the second write was answered before group {a:?}'s acks"
        );
    }

    /// ROADMAP.md item 1, gap (c).
    #[test]
    #[ignore = "ROADMAP item 1 gap (c): a chunk lost with its backup credits its group like an ack"]
    fn with_one_backup_a_lost_chunk_answers_no_waiter() {
        let (mut r, log) = (ReplManager::default(), log());
        write(&log, 100);
        let outs = r.ship(&[Scope::Heads], 0, &log, &[3], &cost(), Some(respond(5, 8)));
        let g = group_of(&outs, 1);
        assert!(
            r.lost(g, &[]).is_empty(),
            "a write was answered with its only replica lost"
        );
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

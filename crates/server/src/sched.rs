//! The dispatch core and the worker pool (§3.1) as a pure state machine.
//!
//! One dispatch core polls an rx queue and pays a per-message cost; W
//! worker cores run [`Task`]s non-preemptively out of strict-priority
//! FIFOs. Nothing here sends a message or sets a timer: the shell asks
//! "when should the next poll fire", "what runs next and where", and
//! performs the answer. Dispatch-busy bookkeeping is batched into
//! *quanta* — maximal back-to-back runs of polls — so the shell reports
//! one [`Quantum`] per run instead of one counter add per message.

use std::collections::VecDeque;

use bytes::Bytes;
use rocksteady::PriorityPulls;
use rocksteady_common::{CausalCtx, MigrationId, Nanos, RpcId};
use rocksteady_proto::msg::{BaselineStage, PRIORITY_LEVELS};
use rocksteady_proto::{Envelope, Priority, Request};
use rocksteady_simnet::ActorId;

use crate::repl::Durable;

/// Where the answer to an inbound request goes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplyTo {
    pub(crate) src: ActorId,
    pub(crate) rpc: RpcId,
    /// Causal context the request arrived with; inherited by any RPC
    /// issued on the requester's behalf (e.g. the PriorityPull a read
    /// miss spawns) and echoed on the response.
    pub(crate) cctx: CausalCtx,
}

/// A message in the rx queue, with the simulation kernel's stamps.
#[derive(Debug)]
pub(crate) struct Inbound {
    pub(crate) src: ActorId,
    /// When the sender's NIC accepted it.
    pub(crate) sent_at: Nanos,
    /// When its last byte left the sender's NIC.
    pub(crate) departed_at: Nanos,
    /// When it entered the rx queue.
    pub(crate) arrived: Nanos,
    pub(crate) env: Envelope,
}

/// A unit of worker work.
#[derive(Debug)]
pub(crate) enum Task {
    /// Service an inbound RPC.
    Rpc { to: ReplyTo, req: Request },
    /// One baseline-migration scan step (source).
    BaselineStep,
    /// Replay one merged segment image of a crash recovery into this
    /// worker's side log of the run `recovery` names.
    RecoveryBatch { recovery: u64, image: Bytes },
    /// One log-cleaner pass (background system task, §2.3).
    CleanerPass,
}

impl Task {
    /// Whether the task can hold its worker past its service time,
    /// waiting on a remote ack (see [`Sched::next_placement`]).
    fn may_hold(&self, reads_hold: bool) -> bool {
        let Task::Rpc { req, .. } = self else {
            return false;
        };
        match req {
            Request::Write { .. } | Request::Delete { .. } => true,
            Request::PushRecords { until, .. } => *until >= BaselineStage::Rereplicate,
            Request::Read { .. } => reads_hold,
            _ => false,
        }
    }
}

/// Effects released when a worker task's service time elapses.
pub(crate) enum Deferred {
    /// Plain message send.
    Send(ActorId, Envelope),
    /// Tell the named migration's manager a replay finished.
    ReplayDone(MigrationId, Option<usize>),
    /// Tell the named recovery run one of its replay batches finished.
    RecoveryBatch(u64),
    /// Schedule the next baseline scan step.
    BaselineContinue,
    /// Ship un-replicated log bytes to the backups, the worker held,
    /// and do what the [`Durable`] says once every replica acked (the
    /// durable-write path).
    ShipLog(Durable),
}

#[derive(Default)]
pub(crate) struct Worker {
    pub(crate) busy: bool,
    /// Held past its service time (awaiting replication acks or a
    /// synchronous PriorityPull).
    pub(crate) held: bool,
    /// When the hold began (service end), for busy-time accounting —
    /// a blocked core is a busy core (§4.4 measures exactly this).
    hold_since: Nanos,
    pub(crate) deferred: Vec<Deferred>,
}

/// One flushed dispatch quantum: a maximal run of back-to-back polls
/// (each firing exactly at the previous poll's busy horizon, so
/// `[start, start + busy)` is contiguous). Because the polls tile the
/// interval with no gaps, charging the lump lands in exactly the buckets
/// per-poll charges would have.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Quantum {
    /// Virtual time the quantum's first poll fired.
    pub(crate) start: Nanos,
    /// Total dispatch busy time accrued by the quantum's polls.
    pub(crate) busy: Nanos,
    /// Portion of `busy` that is outbound-tx cost.
    pub(crate) tx: Nanos,
    /// Portion of `busy` spent in migration-manager polls.
    pub(crate) mgr: Nanos,
}

/// Upper bound on polls per quantum, so a saturated dispatch core still
/// publishes its busy counter at a bounded staleness (the harness
/// sampler windows the counter every millisecond; a full quantum is a
/// few microseconds of busy time).
const QUANTUM_POLLS: u32 = 64;

/// What [`Sched::next_placement`] decided.
#[derive(Debug)]
pub(crate) enum Placement {
    /// Run `task` on `worker` (already marked busy).
    Run { worker: usize, task: Task },
    /// Nothing above the Replay class is runnable and a core is idle:
    /// offer it to the migration managers (§3.1.2), then ask again —
    /// with `declined` reset to 0 if they took it, incremented if not.
    Offer,
    /// Nothing can be placed until a worker or a message arrives.
    Blocked,
}

pub(crate) struct Sched {
    rx: VecDeque<Inbound>,
    busy_until: Nanos,
    poll_scheduled: bool,
    /// Dispatch cost accrued while handling the current event, with its
    /// tx and manager portions.
    charge: Nanos,
    charge_tx: Nanos,
    charge_mgr: Nanos,
    /// The open quantum; `polls == 0` means closed.
    open: Quantum,
    polls: u32,
    pub(crate) workers: Vec<Worker>,
    queues: [VecDeque<Task>; PRIORITY_LEVELS],
    /// Reads block their worker on a synchronous PriorityPull
    /// (Figure 13b/14b), so they count as hold-capable.
    reads_hold: bool,
}

impl Sched {
    pub(crate) fn new(workers: usize, priority_pulls: PriorityPulls) -> Self {
        Sched {
            rx: VecDeque::new(),
            busy_until: 0,
            poll_scheduled: false,
            charge: 0,
            charge_tx: 0,
            charge_mgr: 0,
            open: Quantum::default(),
            polls: 0,
            workers: (0..workers).map(|_| Worker::default()).collect(),
            queues: Default::default(),
            reads_hold: priority_pulls == PriorityPulls::Sync,
        }
    }

    // ---------------------------------------------------------- dispatch --

    /// A message arrived.
    pub(crate) fn receive(&mut self, msg: Inbound) {
        self.rx.push_back(msg);
    }

    /// The delay after which the next dispatch poll must fire, if one
    /// is due and not already scheduled (the caller sets the timer).
    pub(crate) fn poll_due(&mut self, now: Nanos) -> Option<Nanos> {
        if self.poll_scheduled || self.rx.is_empty() {
            return None;
        }
        self.poll_scheduled = true;
        Some(self.busy_until.saturating_sub(now))
    }

    /// The poll timer fired: pops the next message and opens its charge
    /// at `per_msg`. Also returns the previous quantum if this poll
    /// closed it — the queue ran dry, or the poll fired past the busy
    /// horizon (the chain broke with an idle gap).
    pub(crate) fn begin_poll(
        &mut self,
        now: Nanos,
        per_msg: Nanos,
    ) -> (Option<Inbound>, Option<Quantum>) {
        self.poll_scheduled = false;
        let Some(msg) = self.rx.pop_front() else {
            return (None, self.flush());
        };
        let flushed = if now > self.busy_until {
            self.flush()
        } else {
            None
        };
        if self.polls == 0 {
            self.open.start = now;
        }
        self.charge = per_msg;
        self.charge_tx = 0;
        self.charge_mgr = 0;
        (Some(msg), flushed)
    }

    /// The message is handled: accrues its charge into the open quantum
    /// and advances the busy horizon (per message — only the
    /// bookkeeping is batched). Returns the quantum if it closed.
    pub(crate) fn end_poll(&mut self, now: Nanos) -> Option<Quantum> {
        self.open.busy += self.charge;
        self.open.tx += self.charge_tx;
        self.open.mgr += self.charge_mgr;
        self.polls += 1;
        self.busy_until = now + self.charge;
        self.charge = 0;
        self.charge_tx = 0;
        self.charge_mgr = 0;
        if self.rx.is_empty() || self.polls >= QUANTUM_POLLS {
            self.flush()
        } else {
            None
        }
    }

    /// Closes the open quantum, if any.
    pub(crate) fn flush(&mut self) -> Option<Quantum> {
        if self.polls == 0 {
            return None;
        }
        self.polls = 0;
        Some(std::mem::take(&mut self.open))
    }

    /// Charges one outbound message to the dispatch core.
    pub(crate) fn charge_tx(&mut self, ns: Nanos) {
        self.charge += ns;
        self.charge_tx += ns;
    }

    /// Charges one migration-manager poll to the dispatch core.
    pub(crate) fn charge_mgr(&mut self, ns: Nanos) {
        self.charge += ns;
        self.charge_mgr += ns;
    }

    /// Takes the `(tx, mgr)` cost accrued *outside* a dispatch poll
    /// (worker-completion sends, deferred replication sends, cleaner
    /// scheduling). These never reach the busy horizon — the next poll
    /// has always overwritten the accumulator — but the caller ledgers
    /// them.
    pub(crate) fn take_offpoll_charge(&mut self) -> (Nanos, Nanos) {
        self.charge = 0;
        (
            std::mem::take(&mut self.charge_tx),
            std::mem::take(&mut self.charge_mgr),
        )
    }

    // ----------------------------------------------------------- workers --

    pub(crate) fn enqueue(&mut self, priority: Priority, task: Task) {
        self.queues[priority as usize].push_back(task);
    }

    pub(crate) fn idle_workers(&self) -> usize {
        self.workers.iter().filter(|w| !w.busy).count()
    }

    /// Claims any idle worker, including the reserved one.
    pub(crate) fn claim_idle(&mut self) -> Option<usize> {
        let worker = self.workers.iter().position(|w| !w.busy)?;
        self.workers[worker].busy = true;
        Some(worker)
    }

    /// The next placement under strict priority: Urgent, Foreground,
    /// then the migration managers' held replay batches, then the
    /// Replay/Background queues (§3.1, §3.1.2). A head that cannot be
    /// placed blocks every class below it.
    ///
    /// Hold-capable tasks never take worker 0: without that reserve a
    /// ring of fully-loaded servers deadlocks, every core held awaiting
    /// an ack that only another held core could produce. Non-holding
    /// work (reads, pulls, replay, replication service) runs anywhere.
    pub(crate) fn next_placement(&mut self, migrations: bool, declined: u32) -> Placement {
        let can_offer = migrations && self.idle_workers() > 0;
        for q in 0..self.queues.len() {
            let Some(front) = self.queues[q].front() else {
                if q == Priority::Foreground as usize && declined == 0 && can_offer {
                    return Placement::Offer;
                }
                continue;
            };
            let reserve = usize::from(front.may_hold(self.reads_hold) && self.workers.len() > 1);
            let Some(worker) = (reserve..self.workers.len()).find(|w| !self.workers[*w].busy)
            else {
                return Placement::Blocked;
            };
            self.workers[worker].busy = true;
            let task = self.queues[q].pop_front().expect("peeked above");
            return Placement::Run { worker, task };
        }
        if declined < 2 && can_offer {
            Placement::Offer
        } else {
            Placement::Blocked
        }
    }

    /// The task's service time elapsed: the worker goes idle, or — if
    /// held — starts its blocked window now.
    pub(crate) fn service_done(&mut self, worker: usize, now: Nanos) {
        let w = &mut self.workers[worker];
        if w.held {
            w.hold_since = now;
        } else {
            w.busy = false;
        }
    }

    /// Frees `worker`. If it was held, returns `(since, waited)`: the
    /// blocked window, which is busy time (a stalled worker serves
    /// nobody, §4.4).
    pub(crate) fn release(&mut self, worker: usize, now: Nanos) -> Option<(Nanos, Nanos)> {
        let w = &mut self.workers[worker];
        w.busy = false;
        std::mem::take(&mut w.held).then(|| (w.hold_since, now.saturating_sub(w.hold_since)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::TableId;
    use rocksteady_proto::Response;

    const BATCHED: PriorityPulls = PriorityPulls::Batched;

    fn rpc(req: Request) -> Task {
        let to = ReplyTo {
            src: 9,
            rpc: RpcId(1),
            cctx: CausalCtx::NONE,
        };
        Task::Rpc { to, req }
    }

    fn read() -> Task {
        rpc(Request::Read {
            table: TableId(1),
            key: Bytes::new(),
            key_hash: 0,
        })
    }

    /// A baseline push that runs to `until`.
    fn push(until: BaselineStage) -> Task {
        let records = Vec::new();
        rpc(Request::PushRecords { records, until })
    }

    /// Deletes hold their worker for replication acks, like writes.
    fn delete() -> Task {
        rpc(Request::Delete {
            table: TableId(1),
            key: Bytes::new(),
            key_hash: 0,
        })
    }

    /// Queues `task` on a fresh `workers`-core pool and places it.
    fn placed_on(workers: usize, priority_pulls: PriorityPulls, task: Task) -> Option<usize> {
        let mut s = Sched::new(workers, priority_pulls);
        s.enqueue(Priority::Foreground, task);
        placed(&mut s)
    }

    fn placed(s: &mut Sched) -> Option<usize> {
        match s.next_placement(false, 0) {
            Placement::Run { worker, .. } => Some(worker),
            _ => None,
        }
    }

    #[test]
    fn hold_capable_tasks_never_take_worker_zero() {
        assert_eq!(placed_on(2, BATCHED, delete()), Some(1));
        // A read does not hold, so it may take the reserved core —
        // unless reads block on synchronous PriorityPulls.
        assert_eq!(placed_on(2, BATCHED, read()), Some(0));
        assert_eq!(placed_on(2, PriorityPulls::Off, read()), Some(0));
        assert_eq!(placed_on(2, PriorityPulls::Sync, read()), Some(1));
        // A baseline push holds only while its target re-replicates.
        assert_eq!(placed_on(2, BATCHED, push(BaselineStage::Replay)), Some(0));
        assert_eq!(
            placed_on(2, BATCHED, push(BaselineStage::Rereplicate)),
            Some(1)
        );
        // A single-worker server has nothing to reserve.
        assert_eq!(placed_on(1, BATCHED, delete()), Some(0));
        // With worker 1 taken, a second delete waits though worker 0 idles.
        let mut s = Sched::new(2, BATCHED);
        s.enqueue(Priority::Foreground, delete());
        s.enqueue(Priority::Foreground, delete());
        assert_eq!((placed(&mut s), placed(&mut s)), (Some(1), None));
        assert_eq!(s.idle_workers(), 1);
    }

    #[test]
    fn an_unplaceable_head_blocks_lower_classes() {
        let mut s = Sched::new(2, BATCHED);
        s.workers[1].busy = true;
        s.enqueue(Priority::Foreground, delete());
        s.enqueue(Priority::Background, Task::CleanerPass);
        // The cleaner pass could run on worker 0, but the delete ahead of
        // it cannot, and strict priority does not let it jump the queue.
        assert!(matches!(s.next_placement(true, 0), Placement::Blocked));
        s.release(1, 0);
        assert_eq!((placed(&mut s), placed(&mut s)), (Some(1), Some(0)));
    }

    #[test]
    fn idle_cores_are_offered_to_migrations_between_foreground_and_replay() {
        let mut s = Sched::new(2, BATCHED);
        s.enqueue(Priority::Background, Task::CleanerPass);
        // The managers are asked before the Background queue; once they
        // decline it drains, and the trailing offer comes exactly once.
        assert!(matches!(s.next_placement(true, 0), Placement::Offer));
        assert!(matches!(s.next_placement(true, 1), Placement::Run { .. }));
        assert!(matches!(s.next_placement(true, 0), Placement::Offer));
        assert!(matches!(s.next_placement(true, 1), Placement::Offer));
        assert!(matches!(s.next_placement(true, 2), Placement::Blocked));
        // No migrations or no idle core: no offer.
        assert!(matches!(s.next_placement(false, 0), Placement::Blocked));
        s.workers[1].busy = true;
        assert!(matches!(s.next_placement(true, 0), Placement::Blocked));
    }

    #[test]
    fn quantum_flushes_at_64_polls_and_on_an_idle_gap() {
        let env = |arrived| Inbound {
            src: 1,
            sent_at: 0,
            departed_at: 0,
            arrived,
            env: Envelope::resp(RpcId(0), Response::Ok),
        };
        let mut s = Sched::new(1, BATCHED);
        for _ in 0..100 {
            s.receive(env(0));
        }
        assert_eq!(s.poll_due(0), Some(0));
        assert_eq!(s.poll_due(0), None, "one poll timer at a time");
        // 100 back-to-back polls at 10 ns each; the fourth also sends.
        let (mut now, mut flushed) = (0, Vec::new());
        for i in 0..100 {
            let (msg, early) = s.begin_poll(now, 10);
            assert!(msg.is_some() && early.is_none());
            if i == 3 {
                s.charge_tx(5);
                s.charge_mgr(2);
            }
            flushed.extend(s.end_poll(now));
            now += s.poll_due(now).unwrap_or(0);
        }
        let quantum = |start, busy, tx, mgr| Quantum {
            start,
            busy,
            tx,
            mgr,
        };
        assert_eq!(flushed, [quantum(0, 647, 5, 2), quantum(647, 360, 0, 0)]);

        // Two queued messages: the first poll leaves the quantum open...
        s.receive(env(now));
        s.receive(env(now));
        let horizon = now + s.poll_due(now).expect("poll due");
        assert!(s.begin_poll(horizon, 10).0.is_some());
        assert_eq!(s.end_poll(horizon), None);
        // ...and the next fires late: the gap closes it before a new one
        // starts.
        let late = horizon + 500;
        let (msg, early) = s.begin_poll(late, 10);
        assert!(msg.is_some());
        assert_eq!(early, Some(quantum(horizon, 10, 0, 0)));
        assert_eq!(s.end_poll(late), Some(quantum(late, 10, 0, 0)));
        // A poll that finds the queue empty has nothing left to flush.
        assert!(matches!(s.begin_poll(late + 10, 10), (None, None)));
        // Charges outside a poll are handed over once.
        s.charge_tx(7);
        s.charge_mgr(3);
        assert_eq!(s.take_offpoll_charge(), (7, 3));
        assert_eq!(s.take_offpoll_charge(), (0, 0));
    }

    #[test]
    fn a_held_worker_stays_busy_until_released() {
        let mut s = Sched::new(1, BATCHED);
        assert_eq!(s.claim_idle(), Some(0));
        s.workers[0].held = true;
        s.service_done(0, 100);
        assert_eq!(s.idle_workers(), 0);
        assert_eq!(s.release(0, 130), Some((100, 30)));
        // An unheld worker frees at service end; releasing is a no-op.
        assert_eq!(s.claim_idle(), Some(0));
        s.service_done(0, 200);
        assert_eq!((s.idle_workers(), s.release(0, 210)), (1, None));
    }
}

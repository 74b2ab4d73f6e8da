//! Deterministic discrete-event simulation kernel with a NIC/link model.
//!
//! This is the substitution for the paper's 24-node CloudLab cluster (see
//! DESIGN.md §1): servers, backups, the coordinator, and clients are
//! [`Actor`]s exchanging messages under a virtual nanosecond clock. The
//! kernel provides exactly two event kinds — message delivery and timer
//! expiry — plus a transmit-side NIC model:
//!
//! - every actor has a NIC with a line rate; a message of `n` bytes
//!   occupies the sender's NIC for `n / line_rate` (transmit
//!   serialization), so bulk migration traffic and foreground responses
//!   queue behind each other exactly as they would on a real 40 Gbps
//!   port (§2.2, §3.2);
//! - delivery adds a fixed one-way latency (propagation + switch);
//! - messages to dead actors are dropped (crash testing, §3.4), and an
//!   actor's loss rule drops the messages it names (a lossy link);
//! - the kernel keeps each message's stamps itself: the send time sits
//!   next to the payload in the slab, the departure is the delivery time
//!   less the one-way latency, and both reach the receiver as fields of
//!   [`Event::Message`]. A payload is never written between its send and
//!   its delivery ([`SimMessage`] declares no method).
//!
//! Execution is single-threaded and fully deterministic: events are
//! ordered by `(time, sequence number)`, so the same setup and seed
//! replays the same trace (the `determinism` integration test depends on
//! this).
//!
//! # Scheduler
//!
//! Two event-queue implementations exist behind [`SchedulerKind`]: the
//! original global binary heap and a calendar queue (a sorted near
//! bucket, a timing wheel over the current ≈ 1 ms epoch, and a heap for
//! later epochs) that makes insert and pop O(1) amortized for the
//! events that stay within an epoch, nearly all of them. Both pop events
//! in exactly `(time, sequence)` order, so traces are byte-identical
//! across the swap (the determinism suite asserts this); the calendar
//! queue is the default. See DESIGN.md §3.11.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rocksteady_common::rng::Prng;
use rocksteady_common::Nanos;

pub use rocksteady_common::wire::{SimMessage, WireSized};

/// Identifies an actor within one simulation.
pub type ActorId = usize;

/// Who lives where in the simulation: maps logical server ids to actor
/// ids plus the coordinator. Shared by servers and clients for routing.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    /// The coordinator's actor id.
    pub coordinator: ActorId,
    /// Actor id of each server, indexed by `ServerId` (ids are dense:
    /// a cluster numbers its servers `0..n`).
    pub servers: Vec<ActorId>,
}

impl Directory {
    /// Actor id for a server.
    ///
    /// # Panics
    ///
    /// Panics if the server is unknown (a wiring bug, not a runtime
    /// condition).
    pub fn actor_of(&self, id: rocksteady_common::ServerId) -> ActorId {
        *self
            .servers
            .get(id.0 as usize)
            .unwrap_or_else(|| panic!("unknown server {id}"))
    }
}

/// An event delivered to an actor.
#[derive(Debug)]
pub enum Event<M> {
    /// A message arrived from `src`.
    Message {
        /// Sending actor.
        src: ActorId,
        /// The payload.
        payload: M,
        /// When the sender's NIC accepted the message: the time of its
        /// [`Ctx::send`]. Receivers subtract it from the arrival time to
        /// measure an RPC's network segment.
        sent_at: Nanos,
        /// When the message's last byte left the sender's NIC, after
        /// serialization and queueing behind earlier sends: the arrival
        /// time minus [`NicConfig::one_way_latency_ns`]. `departed_at -
        /// sent_at` is the NIC time the critical-path analysis separates
        /// from propagation.
        departed_at: Nanos,
    },
    /// A timer armed with [`Ctx::timer`] fired.
    Timer {
        /// The token passed when arming.
        token: u64,
    },
}

/// Simulation participants implement this.
pub trait Actor<M> {
    /// Called once when the simulation starts; arm initial timers here.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Called for every delivered event.
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: Event<M>);

    /// Downcasting hook so the harness can reach concrete actor state
    /// between steps (preloading tables, inspecting masters). Implement
    /// as `self`.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Network parameters shared by all links (single-switch fabric,
/// Table 1).
#[derive(Debug, Clone, Copy)]
pub struct NicConfig {
    /// Line rate in bytes per nanosecond (5.0 ≈ 40 Gbps).
    pub bytes_per_ns: f64,
    /// One-way latency between any two actors, in nanoseconds.
    pub one_way_latency_ns: Nanos,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            bytes_per_ns: 5.0,
            one_way_latency_ns: 1_800,
        }
    }
}

/// The per-event interface an actor uses to act on the world.
pub struct Ctx<'a, M> {
    now: Nanos,
    self_id: ActorId,
    /// Deterministic per-simulation RNG (actors should derive their own
    /// streams at setup; this one is for ad-hoc jitter).
    pub rng: &'a mut Prng,
    actions: &'a mut Vec<Action>,
    slab: &'a mut EventSlab<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The id of the actor handling this event.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Sends `payload` to `dst` through the NIC model. Delivery time is
    /// `max(now, sender nic free) + wire + one_way_latency`.
    pub fn send(&mut self, dst: ActorId, payload: M) {
        let idx = self.slab.alloc(payload, self.now);
        self.actions.push(Action::Send { dst, idx });
    }

    /// Arms a timer that fires back on this actor after `delay`.
    pub fn timer(&mut self, delay: Nanos, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }

    /// Marks another actor dead as of now (crash injection: the control
    /// actor kills a server mid-run, §3.4). All of its queued and future
    /// traffic is dropped.
    pub fn kill(&mut self, actor: ActorId) {
        self.actions.push(Action::Kill { actor });
    }
}

/// What an event asked the kernel to do, applied in order once the
/// handler returns. A send names its payload's [`EventSlab`] slot, so
/// the buffer moves 24-byte handles, never a message.
enum Action {
    Send { dst: ActorId, idx: u32 },
    Timer { delay: Nanos, token: u64 },
    Kill { actor: ActorId },
}

/// [`QRef::src`] of a timer: it comes from no actor.
const TIMER: u32 = u32::MAX;

/// A queued event's scheduling ticket: deadline, global sequence
/// number (total order tie-break), destination, and the event itself —
/// a timer's token, or a message's sender and slab index. 32 bytes,
/// `Copy` — the only thing the queue tiers move around. A timer is
/// whole in its ticket; a message's payload stays in the
/// [`EventSlab`] from the send until its delivery.
#[derive(Clone, Copy)]
struct QRef {
    at: Nanos,
    seq: u64,
    dst: u32,
    /// The sending actor, or [`TIMER`].
    src: u32,
    /// A timer's token, or a message's slab index.
    key: u64,
}

impl PartialEq for QRef {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QRef {}
impl PartialOrd for QRef {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QRef {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Slab holding the payloads of messages in flight, each next to its
/// send time: [`Ctx::send`] moves a payload in, the kernel only reads
/// its wire size, and delivery moves it out — one copy in and one out,
/// however often the scheduler reshuffles its [`QRef`] (heap sifts,
/// wheel-to-near migration, bucket sorts). Timers never come here.
/// Freed slots recycle LIFO, so the hot working set stays small and
/// cache-resident.
struct EventSlab<M> {
    slots: Vec<Option<(M, Nanos)>>,
    free: Vec<u32>,
}

impl<M> EventSlab<M> {
    fn new() -> Self {
        EventSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, payload: M, sent_at: Nanos) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none());
                self.slots[idx as usize] = Some((payload, sent_at));
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(Some((payload, sent_at)));
                idx
            }
        }
    }

    fn get(&self, idx: u32) -> &M {
        &self.slots[idx as usize]
            .as_ref()
            .expect("empty slab slot")
            .0
    }

    /// The payload and its send time.
    fn take(&mut self, idx: u32) -> (M, Nanos) {
        let sent = self.slots[idx as usize].take().expect("empty slab slot");
        self.free.push(idx);
        sent
    }
}

/// Which messages a lossy link drops: true for each one it loses. It
/// sees every message to its actor in delivery order, and may keep state
/// of its own (e.g. lose only the first of a kind).
pub type LossRule<M> = Box<dyn FnMut(&M) -> bool>;

struct Slot<M> {
    actor: Box<dyn Actor<M>>,
    alive: bool,
    /// Which inbound messages the network loses ([`Simulation::lose`]).
    lose: Option<LossRule<M>>,
    /// Earliest time this actor's NIC can begin the next transmission.
    nic_free: Nanos,
}

/// Which event-queue implementation a [`Simulation`] runs on. Both pop
/// events in exactly `(time, sequence)` order; the calendar queue is
/// O(1) amortized and the default, the binary heap is kept so the
/// determinism suite can assert byte-identical traces across the swap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Hierarchical calendar queue (timing wheel + sorted near bucket).
    #[default]
    Calendar,
    /// The original single global `BinaryHeap`.
    BinaryHeap,
}

/// Calendar-queue bucket width: `1 << BUCKET_SHIFT` nanoseconds. One
/// microsecond sits well under the NIC one-way latency (1.8 µs), so a
/// delivered message's follow-up sends land in *future* buckets
/// (unsorted O(1) pushes); only sub-µs timer re-arms hit the sorted
/// near bucket.
const BUCKET_SHIFT: u32 = 10;
/// Wheel span in buckets (must be a power of two): ~1 ms of horizon,
/// covering exactly one *epoch* (`cur >> WHEEL_SHIFT`).
const WHEEL_SLOTS: usize = 1024;
const WHEEL_SHIFT: u32 = WHEEL_SLOTS.trailing_zeros();
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// An event's epoch is `at >> EPOCH_SHIFT`.
const EPOCH_SHIFT: u32 = BUCKET_SHIFT + WHEEL_SHIFT;

/// Hierarchical calendar queue over `(at, seq)`-ordered events.
///
/// Three tiers by distance from the cursor:
/// - `near`: the bucket the cursor is in, sorted so that pops come off
///   its end in `(at, seq)` order ("near-bucket sorting" — a bucket is
///   sorted once, when the cursor enters it).
/// - `wheel`: unsorted per-bucket event lists for the *current epoch*
///   (the `WHEEL_SLOTS`-bucket window aligned at `cur >> WHEEL_SHIFT`);
///   O(1) push.
/// - `far`: a binary heap for every later epoch; when the wheel runs
///   dry, the head's epoch moves into it whole. Under 4 % of events
///   land here (DESIGN.md §3.11 has the census).
struct CalendarQueue {
    /// Absolute bucket index (`at >> BUCKET_SHIFT`) of `near`.
    cur: u64,
    /// The current bucket, sorted *descending* by `(at, seq)` so pops
    /// come off the tail in O(1). A plain Vec (not a deque) so refill
    /// can swap buffers with a wheel slot and recycle capacity instead
    /// of allocating per bucket.
    near: Vec<QRef>,
    wheel: Vec<Vec<QRef>>,
    /// One bit per wheel slot with events queued, for O(words) scans.
    occupied: [u64; WHEEL_WORDS],
    far: BinaryHeap<Reverse<QRef>>,
    len: usize,
}

impl CalendarQueue {
    fn new() -> Self {
        CalendarQueue {
            cur: 0,
            near: Vec::new(),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_WORDS],
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    fn push(&mut self, q: QRef) {
        self.len += 1;
        let b = q.at >> BUCKET_SHIFT;
        debug_assert!(b >= self.cur, "push into the past");
        if b <= self.cur {
            // Lands in the bucket being drained: keep `near` sorted
            // (descending; pops come off the tail). `at >= now` means
            // the event sorts at or after everything already popped,
            // so ordering stays exact.
            let idx = self.near.partition_point(|e| (e.at, e.seq) > (q.at, q.seq));
            self.near.insert(idx, q);
        } else if b >> WHEEL_SHIFT == self.cur >> WHEEL_SHIFT {
            self.push_wheel(q);
        } else {
            self.far.push(Reverse(q));
        }
    }

    /// Files an event of the current epoch under its bucket's slot.
    fn push_wheel(&mut self, q: QRef) {
        let slot = ((q.at >> BUCKET_SHIFT) as usize) & (WHEEL_SLOTS - 1);
        self.wheel[slot].push(q);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Moves the cursor to the next non-empty bucket and sorts it into
    /// `near`. Caller guarantees `near` is empty and `len > 0`.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty() && self.len > 0);
        let epoch_base = self.cur & !(WHEEL_SLOTS as u64 - 1);
        self.cur = match self.next_slot_from((self.cur as usize & (WHEEL_SLOTS - 1)) + 1) {
            Some(slot) => epoch_base + slot as u64,
            None => self.advance_epoch(),
        };
        let slot = (self.cur as usize) & (WHEEL_SLOTS - 1);
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        // Swap buffers with the slot: the drained (empty) `near` Vec
        // becomes the slot's list, keeping its capacity for the next
        // events hashed there — zero allocation in steady state.
        std::mem::swap(&mut self.near, &mut self.wheel[slot]);
        // Descending, so pops come off the tail.
        self.near
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
    }

    /// First occupied wheel slot at index `start` or later within
    /// the current epoch (no wraparound — the wheel is epoch-aligned).
    fn next_slot_from(&self, start: usize) -> Option<usize> {
        if start >= WHEEL_SLOTS {
            return None;
        }
        let mut word_idx = start / 64;
        let mut word = self.occupied[word_idx] & (!0u64 << (start % 64));
        loop {
            if word != 0 {
                return Some(word_idx * 64 + word.trailing_zeros() as usize);
            }
            word_idx += 1;
            if word_idx == WHEEL_WORDS {
                return None;
            }
            word = self.occupied[word_idx];
        }
    }

    /// The current epoch's wheel is drained: enter the far heap head's
    /// epoch, move all of that epoch's events into the wheel, and
    /// return the first occupied bucket. An event passes through the
    /// heap at most once: O(log n) for the few that land there, O(1)
    /// amortized for the rest.
    fn advance_epoch(&mut self) -> u64 {
        let Some(Reverse(head)) = self.far.peek() else {
            unreachable!("len > 0 with empty near, wheel and far")
        };
        let epoch = head.at >> EPOCH_SHIFT;
        while let Some(Reverse(q)) = self.far.peek() {
            if q.at >> EPOCH_SHIFT != epoch {
                break;
            }
            let Some(Reverse(q)) = self.far.pop() else {
                unreachable!()
            };
            self.push_wheel(q);
        }
        let slot = self
            .next_slot_from(0)
            .expect("entered epoch must hold at least one event");
        (epoch << WHEEL_SHIFT) + slot as u64
    }

    fn next_at(&mut self) -> Option<Nanos> {
        if self.near.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        self.near.last().map(|q| q.at)
    }

    fn pop(&mut self) -> Option<QRef> {
        if self.near.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        let q = self.near.pop();
        debug_assert!(q.is_some());
        self.len -= 1;
        q
    }
}

/// The event queue behind a simulation: one of the two scheduler
/// implementations ([`SchedulerKind`]).
enum EventQueue {
    Heap(BinaryHeap<Reverse<QRef>>),
    Calendar(CalendarQueue),
}

impl EventQueue {
    fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::BinaryHeap => EventQueue::Heap(BinaryHeap::new()),
            SchedulerKind::Calendar => EventQueue::Calendar(CalendarQueue::new()),
        }
    }

    fn push(&mut self, q: QRef) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse(q)),
            EventQueue::Calendar(c) => c.push(q),
        }
    }

    fn pop(&mut self) -> Option<QRef> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(q)| q),
            EventQueue::Calendar(c) => c.pop(),
        }
    }

    /// Deadline of the next event. `&mut` because the calendar queue
    /// may advance its cursor to answer.
    fn next_at(&mut self) -> Option<Nanos> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse(q)| q.at),
            EventQueue::Calendar(c) => c.next_at(),
        }
    }
}

/// The simulation: actors, the event queue, and the clock.
pub struct Simulation<M: SimMessage> {
    now: Nanos,
    seq: u64,
    queue: EventQueue,
    slab: EventSlab<M>,
    slots: Vec<Slot<M>>,
    nic: NicConfig,
    rng: Prng,
    started: bool,
    events_processed: u64,
    actions: Vec<Action>,
}

impl<M: SimMessage> Simulation<M> {
    /// Creates an empty simulation on the default scheduler.
    pub fn new(nic: NicConfig, seed: u64) -> Self {
        Simulation::with_scheduler(nic, seed, SchedulerKind::default())
    }

    /// Creates an empty simulation on an explicit scheduler (the
    /// determinism suite runs both and compares traces).
    pub fn with_scheduler(nic: NicConfig, seed: u64, scheduler: SchedulerKind) -> Self {
        Simulation {
            now: 0,
            seq: 0,
            queue: EventQueue::new(scheduler),
            slab: EventSlab::new(),
            slots: Vec::new(),
            nic,
            rng: Prng::new(seed),
            started: false,
            events_processed: 0,
            actions: Vec::new(),
        }
    }

    /// Adds an actor; returns its id. All actors must be added before the
    /// first [`Simulation::step`].
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        assert!(!self.started, "actors must be added before the run starts");
        self.slots.push(Slot {
            actor,
            alive: true,
            lose: None,
            nic_free: 0,
        });
        self.slots.len() - 1
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Total events processed so far (a cheap trace digest for
    /// determinism checks).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Marks an actor dead: it receives no further events and all traffic
    /// to it is silently dropped (a crashed server, §3.4).
    pub fn kill(&mut self, id: ActorId) {
        self.slots[id].alive = false;
    }

    /// Makes the network lose every message to `id` that `rule` names.
    /// A lost message reaches the receiver and counts in
    /// [`Simulation::events_processed`]; the actor never sees it.
    pub fn lose(&mut self, id: ActorId, rule: LossRule<M>) {
        self.slots[id].lose = Some(rule);
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.slots.len() {
            let mut ctx = Ctx {
                now: self.now,
                self_id: id,
                rng: &mut self.rng,
                actions: &mut self.actions,
                slab: &mut self.slab,
            };
            self.slots[id].actor.on_start(&mut ctx);
            self.flush_actions(id);
        }
    }

    fn flush_actions(&mut self, src: ActorId) {
        // Drain and put the buffer back: consuming the `Vec` would free
        // it, and the next event that sends or arms a timer would grow a
        // new one.
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                Action::Send { dst, idx } => {
                    let bytes = self.slab.get(idx).wire_size();
                    let wire = (bytes as f64 / self.nic.bytes_per_ns).round() as Nanos;
                    let depart = self.now.max(self.slots[src].nic_free) + wire;
                    self.slots[src].nic_free = depart;
                    let at = depart + self.nic.one_way_latency_ns;
                    self.push(at, dst, src as u32, idx.into());
                }
                Action::Timer { delay, token } => {
                    self.push(self.now + delay, src, TIMER, token);
                }
                Action::Kill { actor } => {
                    self.slots[actor].alive = false;
                }
            }
        }
        self.actions = actions;
    }

    /// Typed access to an actor's concrete state, for harness
    /// setup/inspection between steps.
    ///
    /// # Panics
    ///
    /// Panics if the actor is not a `T` (a harness wiring bug).
    pub fn actor_as<T: 'static>(&mut self, id: ActorId) -> &mut T {
        self.slots[id]
            .actor
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("actor type mismatch")
    }

    fn push(&mut self, at: Nanos, dst: ActorId, src: u32, key: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(QRef {
            at,
            seq,
            dst: dst as u32,
            src,
            key,
        });
    }

    /// Processes one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.start_if_needed();
        let Some(q) = self.queue.pop() else {
            return false;
        };
        let dst = q.dst as ActorId;
        debug_assert!(q.at >= self.now, "time went backwards");
        self.now = q.at;
        // Taken before the liveness check: a message to a dead actor
        // still frees its slot.
        let event = match q.src {
            TIMER => Event::Timer { token: q.key },
            src => {
                let (payload, sent_at) = self.slab.take(q.key as u32);
                Event::Message {
                    src: src as ActorId,
                    payload,
                    sent_at,
                    departed_at: q.at - self.nic.one_way_latency_ns,
                }
            }
        };
        if !self.slots[dst].alive {
            return true;
        }
        self.events_processed += 1;
        if let (Event::Message { payload, .. }, Some(lose)) = (&event, &mut self.slots[dst].lose) {
            if lose(payload) {
                return true;
            }
        }
        let mut ctx = Ctx {
            now: self.now,
            self_id: dst,
            rng: &mut self.rng,
            actions: &mut self.actions,
            slab: &mut self.slab,
        };
        self.slots[dst].actor.on_event(&mut ctx, event);
        self.flush_actions(dst);
        true
    }

    /// Runs until the clock reaches `deadline` (events at exactly
    /// `deadline` still run) or the queue empties.
    pub fn run_until(&mut self, deadline: Nanos) {
        self.start_if_needed();
        loop {
            match self.queue.next_at() {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until no events remain.
    pub fn run_to_idle(&mut self) {
        while self.step() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Default)]
    struct Ping {
        bytes: u64,
        tag: u64,
    }

    fn ping(bytes: u64) -> Ping {
        Ping {
            bytes,
            ..Ping::default()
        }
    }

    impl WireSized for Ping {
        fn wire_size(&self) -> u64 {
            self.bytes
        }
    }

    impl SimMessage for Ping {}

    /// Replies to every message; logs delivery times.
    struct Echo {
        log: Rc<RefCell<Vec<(Nanos, ActorId)>>>,
        reply: bool,
    }

    impl Actor<Ping> for Echo {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, Ping>, event: Event<Ping>) {
            if let Event::Message { src, payload, .. } = event {
                self.log.borrow_mut().push((ctx.now(), src));
                if self.reply {
                    ctx.send(src, ping(payload.bytes));
                }
            }
        }
    }

    /// Sends `n` messages of `bytes` each to `dst` at start.
    struct Blaster {
        dst: ActorId,
        n: usize,
        bytes: u64,
        responses: Rc<RefCell<Vec<Nanos>>>,
    }

    impl Actor<Ping> for Blaster {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for _ in 0..self.n {
                ctx.send(self.dst, ping(self.bytes));
            }
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, Ping>, event: Event<Ping>) {
            if let Event::Message { .. } = event {
                self.responses.borrow_mut().push(ctx.now());
            }
        }
    }

    fn nic() -> NicConfig {
        NicConfig {
            bytes_per_ns: 5.0,
            one_way_latency_ns: 1_000,
        }
    }

    #[test]
    fn message_delivery_time_includes_wire_and_latency() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(nic(), 1);
        let echo = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
            reply: false,
        }));
        let responses = Rc::new(RefCell::new(Vec::new()));
        sim.add_actor(Box::new(Blaster {
            dst: echo,
            n: 1,
            bytes: 5_000, // 1 us of wire time at 5 B/ns
            responses,
        }));
        sim.run_to_idle();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        // wire (1000 ns) + latency (1000 ns).
        assert_eq!(log[0].0, 2_000);
    }

    /// Logs each message's arrival time and the two stamps delivered
    /// with it.
    struct ArrivalLog {
        log: Rc<RefCell<Vec<(Nanos, Nanos, Nanos)>>>,
    }

    impl Actor<Ping> for ArrivalLog {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, Ping>, event: Event<Ping>) {
            if let Event::Message {
                sent_at,
                departed_at,
                ..
            } = event
            {
                self.log
                    .borrow_mut()
                    .push((ctx.now(), sent_at, departed_at));
            }
        }
    }

    /// The kernel keeps a message's send time in its slab slot and
    /// derives its departure at delivery: the receiver sees the send
    /// time and the departure that the wire and the NIC queue set.
    #[test]
    fn the_kernels_stamps_reach_the_receiver() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(nic(), 1);
        let dst = sim.add_actor(Box::new(ArrivalLog {
            log: Rc::clone(&log),
        }));
        sim.add_actor(Box::new(Blaster {
            dst,
            n: 2,
            bytes: 5_000,
            responses: Rc::new(RefCell::new(Vec::new())),
        }));
        sim.run_to_idle();
        // Both sent at 0; 1 µs of wire each, the second queued behind the
        // first; then 1 µs of latency.
        assert_eq!(*log.borrow(), vec![(2_000, 0, 1_000), (3_000, 0, 2_000)]);
    }

    #[test]
    fn tickets_and_actions_stay_small() {
        assert!(std::mem::size_of::<Action>() <= 24);
        assert!(std::mem::size_of::<QRef>() <= 32);
    }

    #[test]
    fn nic_serializes_back_to_back_sends() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(nic(), 1);
        let echo = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
            reply: false,
        }));
        let responses = Rc::new(RefCell::new(Vec::new()));
        sim.add_actor(Box::new(Blaster {
            dst: echo,
            n: 3,
            bytes: 5_000,
            responses,
        }));
        sim.run_to_idle();
        let times: Vec<Nanos> = log.borrow().iter().map(|&(t, _)| t).collect();
        // Transmissions queue on the sender NIC: 1us apart.
        assert_eq!(times, vec![2_000, 3_000, 4_000]);
    }

    #[test]
    fn round_trip() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let responses = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(nic(), 1);
        let echo = sim.add_actor(Box::new(Echo { log, reply: true }));
        sim.add_actor(Box::new(Blaster {
            dst: echo,
            n: 1,
            bytes: 100,
            responses: Rc::clone(&responses),
        }));
        sim.run_to_idle();
        let responses = responses.borrow();
        assert_eq!(responses.len(), 1);
        // 2 * (20ns wire + 1000ns latency).
        assert_eq!(responses[0], 2_040);
    }

    #[test]
    fn dead_actors_drop_traffic() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let responses = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(nic(), 1);
        let echo = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
            reply: true,
        }));
        sim.add_actor(Box::new(Blaster {
            dst: echo,
            n: 5,
            bytes: 100,
            responses: Rc::clone(&responses),
        }));
        sim.kill(echo);
        sim.run_to_idle();
        assert!(log.borrow().is_empty());
        assert!(responses.borrow().is_empty());
        // The five dropped messages gave their slots back.
        assert_eq!(sim.slab.slots.len(), 5);
        assert_eq!(sim.slab.free.len(), sim.slab.slots.len());
    }

    #[test]
    fn lost_messages_count_and_free_their_slots() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let responses = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(nic(), 1);
        let echo = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
            reply: false,
        }));
        for bytes in [100, 200, 300] {
            sim.add_actor(Box::new(Blaster {
                dst: echo,
                n: 2,
                bytes,
                responses: Rc::clone(&responses),
            }));
        }
        sim.lose(echo, Box::new(|p| p.bytes == 200));
        sim.run_to_idle();
        // The four messages the rule rejects reach the echo; the two it
        // names are lost there, yet each still counts as an event.
        let srcs: Vec<ActorId> = log.borrow().iter().map(|&(_, src)| src).collect();
        assert_eq!(srcs, [1, 1, 3, 3]);
        assert_eq!(sim.events_processed(), 6);
        // The two lost messages gave their slots back too.
        assert_eq!(sim.slab.slots.len(), 6);
        assert_eq!(sim.slab.free.len(), sim.slab.slots.len());
    }

    /// Timer-based ticker counting fires.
    struct Ticker {
        period: Nanos,
        fires: Rc<RefCell<Vec<Nanos>>>,
        remaining: u32,
    }

    impl Actor<Ping> for Ticker {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            ctx.timer(self.period, 7);
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, Ping>, event: Event<Ping>) {
            if let Event::Timer { token } = event {
                assert_eq!(token, 7);
                self.fires.borrow_mut().push(ctx.now());
                self.remaining -= 1;
                if self.remaining > 0 {
                    ctx.timer(self.period, 7);
                }
            }
        }
    }

    #[test]
    fn timers_fire_periodically() {
        let fires = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(nic(), 1);
        sim.add_actor(Box::new(Ticker {
            period: 500,
            fires: Rc::clone(&fires),
            remaining: 4,
        }));
        sim.run_to_idle();
        assert_eq!(*fires.borrow(), vec![500, 1_000, 1_500, 2_000]);
        // A timer lives in its ticket: the slab never held one.
        assert!(sim.slab.slots.is_empty());
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let fires = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(nic(), 1);
        sim.add_actor(Box::new(Ticker {
            period: 100,
            fires: Rc::clone(&fires),
            remaining: 1_000,
        }));
        sim.run_until(350);
        assert_eq!(fires.borrow().len(), 3);
        assert_eq!(sim.now(), 350);
        sim.run_until(400);
        assert_eq!(fires.borrow().len(), 4);
    }

    /// Drives one identical workload on both schedulers and compares
    /// delivery logs, or returns a single scheduler's log.
    fn delivery_log(kind: SchedulerKind) -> Vec<(Nanos, ActorId)> {
        let log = Rc::new(RefCell::new(Vec::new()));
        let responses = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::with_scheduler(nic(), 99, kind);
        let echo = sim.add_actor(Box::new(Echo {
            log: Rc::clone(&log),
            reply: true,
        }));
        sim.add_actor(Box::new(Blaster {
            dst: echo,
            n: 40,
            bytes: 333,
            responses,
        }));
        sim.add_actor(Box::new(Ticker {
            period: 700,
            fires: Rc::new(RefCell::new(Vec::new())),
            remaining: 200,
        }));
        sim.run_to_idle();
        let out = log.borrow().clone();
        out
    }

    /// Alternately arms a timer and sends itself an empty message (no
    /// wire time), all due after `delay`; logs tokens and tags as they
    /// arrive.
    struct MixedArmer {
        delay: Nanos,
        arrived: Rc<RefCell<Vec<u64>>>,
    }

    impl Actor<Ping> for MixedArmer {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for i in 0..64 {
                if i % 2 == 0 {
                    ctx.timer(self.delay, i);
                } else {
                    let me = ctx.self_id();
                    ctx.send(me, Ping { tag: i, ..ping(0) });
                }
            }
        }

        fn on_event(&mut self, _ctx: &mut Ctx<'_, Ping>, event: Event<Ping>) {
            let id = match event {
                Event::Timer { token } => token,
                Event::Message { payload, .. } => payload.tag,
            };
            self.arrived.borrow_mut().push(id);
        }
    }

    fn mixed_log(kind: SchedulerKind, delay: Nanos) -> Vec<u64> {
        let arrived = Rc::new(RefCell::new(Vec::new()));
        let nic = NicConfig {
            one_way_latency_ns: delay,
            ..nic()
        };
        let mut sim = Simulation::with_scheduler(nic, 1, kind);
        sim.add_actor(Box::new(MixedArmer {
            delay,
            arrived: Rc::clone(&arrived),
        }));
        sim.run_to_idle();
        let out = arrived.borrow().clone();
        out
    }

    #[test]
    fn schedulers_deliver_identical_orders() {
        assert_eq!(
            delivery_log(SchedulerKind::Calendar),
            delivery_log(SchedulerKind::BinaryHeap)
        );
        // Timers (in the ticket) and messages (in the slab) due at one
        // deadline pop in arm/send order, whichever calendar tier —
        // near bucket, wheel, heap — they were pushed into: the last
        // wheel bucket of the first epoch, the first of the next, and
        // 2.5 s out.
        let epoch = 1 << (BUCKET_SHIFT + WHEEL_SHIFT);
        for delay in [1_000, 5_000, epoch - 1, epoch, 3_000_000, 2_500_000_000] {
            for kind in [SchedulerKind::Calendar, SchedulerKind::BinaryHeap] {
                assert_eq!(mixed_log(kind, delay), (0..64).collect::<Vec<u64>>());
            }
        }
    }

    /// Many timers armed for the *same* deadline must fire in arming
    /// (sequence) order on both schedulers.
    struct SameTickArmer {
        fired: Rc<RefCell<Vec<u64>>>,
    }

    impl Actor<Ping> for SameTickArmer {
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn on_start(&mut self, ctx: &mut Ctx<'_, Ping>) {
            for token in 0..64 {
                ctx.timer(1_000, token);
            }
        }

        fn on_event(&mut self, _ctx: &mut Ctx<'_, Ping>, event: Event<Ping>) {
            if let Event::Timer { token } = event {
                self.fired.borrow_mut().push(token);
            }
        }
    }

    #[test]
    fn equal_deadline_events_pop_fifo_on_both_schedulers() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::BinaryHeap] {
            let fired = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulation::with_scheduler(nic(), 1, kind);
            sim.add_actor(Box::new(SameTickArmer {
                fired: Rc::clone(&fired),
            }));
            sim.run_to_idle();
            assert_eq!(
                *fired.borrow(),
                (0..64).collect::<Vec<u64>>(),
                "{kind:?}: equal-deadline events must pop in arming order"
            );
        }
    }

    /// Timers past the wheel's epoch (and re-arming across it) must move
    /// inward in order: the whole run pops in the reference heap's order.
    #[test]
    fn far_horizon_timers_fire_in_order() {
        let mut orders = Vec::new();
        for kind in [SchedulerKind::Calendar, SchedulerKind::BinaryHeap] {
            let fires = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulation::with_scheduler(nic(), 1, kind);
            // 3 ms period: three wheel horizons out.
            sim.add_actor(Box::new(Ticker {
                period: 3_000_000,
                fires: Rc::clone(&fires),
                remaining: 5,
            }));
            // One epoch and 1 ns: each deadline sits 1 ns further into
            // its epoch, and is armed from the epoch before it.
            let epochal = Rc::new(RefCell::new(Vec::new()));
            sim.add_actor(Box::new(Ticker {
                period: 1_048_577,
                fires: Rc::clone(&epochal),
                remaining: 14,
            }));
            // A fast ticker interleaved within the horizon.
            let fast = Rc::new(RefCell::new(Vec::new()));
            sim.add_actor(Box::new(Ticker {
                period: 250_000,
                fires: Rc::clone(&fast),
                remaining: 60,
            }));
            let mut popped = Vec::new();
            while sim.step() {
                popped.push(sim.now());
            }
            orders.push(popped);
            assert_eq!(
                *fires.borrow(),
                vec![3_000_000, 6_000_000, 9_000_000, 12_000_000, 15_000_000]
            );
            assert_eq!(
                *epochal.borrow(),
                (1..=14).map(|k| k * 1_048_577).collect::<Vec<_>>()
            );
            assert_eq!(fast.borrow().len(), 60);
            assert!(fast.borrow().windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(
            orders[0], orders[1],
            "Calendar pops out of the heap's order"
        );
    }

    #[test]
    fn deterministic_event_counts() {
        let count = |seed| {
            let fires = Rc::new(RefCell::new(Vec::new()));
            let responses = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulation::new(nic(), seed);
            let echo = sim.add_actor(Box::new(Echo {
                log: fires,
                reply: true,
            }));
            sim.add_actor(Box::new(Blaster {
                dst: echo,
                n: 50,
                bytes: 777,
                responses,
            }));
            sim.run_to_idle();
            sim.events_processed()
        };
        assert_eq!(count(1), count(1));
        assert_eq!(count(1), count(2), "seed must not change this workload");
    }
}

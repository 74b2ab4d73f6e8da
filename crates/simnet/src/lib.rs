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
//! - messages to dead actors are dropped (crash testing, §3.4).
//!
//! Execution is single-threaded and fully deterministic: events are
//! ordered by `(time, sequence number)`, so the same setup and seed
//! replays the same trace (the `determinism` integration test depends on
//! this).
//!
//! # Scheduler
//!
//! Two event-queue implementations exist behind [`SchedulerKind`]: the
//! original global binary heap and a hierarchical calendar queue
//! (timing wheel + sorted near bucket + far heap) that makes insert and
//! pop O(1) amortized at paper-scale event populations. Both pop events
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
    /// Actor id of each server.
    pub servers: std::collections::HashMap<rocksteady_common::ServerId, ActorId>,
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
            .get(&id)
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
    actions: &'a mut Vec<Action<M>>,
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
        self.actions.push(Action::Send { dst, payload });
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

enum Action<M> {
    Send { dst: ActorId, payload: M },
    Timer { delay: Nanos, token: u64 },
    Kill { actor: ActorId },
}

/// A queued event's scheduling ticket: deadline, global sequence
/// number (total order tie-break), destination lane, and the payload's
/// slab index. 24 bytes, `Copy` — the only thing the queue tiers move
/// around; the payload itself is written into the [`EventSlab`] once
/// at push and read out once at pop.
#[derive(Clone, Copy)]
struct QRef {
    at: Nanos,
    seq: u64,
    dst: u32,
    idx: u32,
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

/// Slab interning pending event payloads: a payload is moved in once
/// when queued and out once when delivered, no matter how many times
/// the scheduler reshuffles its [`QRef`] (heap sifts, wheel-to-near
/// migration, bucket sorts). Freed slots recycle LIFO, so the hot
/// working set stays small and cache-resident.
struct EventSlab<M> {
    slots: Vec<Option<Event<M>>>,
    free: Vec<u32>,
}

impl<M> EventSlab<M> {
    fn new() -> Self {
        EventSlab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn alloc(&mut self, event: Event<M>) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx as usize].is_none());
                self.slots[idx as usize] = Some(event);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("event slab overflow");
                self.slots.push(Some(event));
                idx
            }
        }
    }

    fn take(&mut self, idx: u32) -> Event<M> {
        let event = self.slots[idx as usize].take().expect("empty slab slot");
        self.free.push(idx);
        event
    }
}

struct Slot<M> {
    actor: Box<dyn Actor<M>>,
    alive: bool,
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
/// Inner-wheel span in buckets (must be a power of two): ~1 ms of
/// horizon, covering exactly one *epoch* (`cur >> WHEEL_SHIFT`).
const WHEEL_SLOTS: usize = 1024;
const WHEEL_SHIFT: u32 = WHEEL_SLOTS.trailing_zeros();
const WHEEL_WORDS: usize = WHEEL_SLOTS / 64;
/// Outer-wheel span in epochs: each outer slot is one ~1 ms epoch, so
/// the outer wheel covers ~1.07 s — RPC timeouts, sampler ticks, and
/// series timers all land here in O(1) instead of the far heap.
const OUTER_SLOTS: usize = 1024;
const OUTER_WORDS: usize = OUTER_SLOTS / 64;

/// Hierarchical calendar queue over `(at, seq)`-ordered events.
///
/// Four tiers by distance from the cursor:
/// - `near`: the bucket the cursor is in, sorted ascending; pops come
///   off the front ("near-bucket sorting" — a bucket is sorted once,
///   when the cursor enters it).
/// - `wheel`: unsorted per-bucket event lists for the *current epoch*
///   (the `WHEEL_SLOTS`-bucket window aligned at `cur >> WHEEL_SHIFT`);
///   O(1) push.
/// - `outer`: unsorted per-epoch event lists for the next
///   `OUTER_SLOTS - 1` epochs (~1 s); a whole epoch scatters into the
///   inner wheel when the cursor enters it.
/// - `far`: a binary heap for everything past the outer horizon
///   (timers many seconds out); each event migrates inward at most
///   once per tier.
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
    /// Per-epoch lists for epochs after the current one.
    outer: Vec<Vec<QRef>>,
    outer_occupied: [u64; OUTER_WORDS],
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
            outer: (0..OUTER_SLOTS).map(|_| Vec::new()).collect(),
            outer_occupied: [0; OUTER_WORDS],
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
            return;
        }
        let epoch = b >> WHEEL_SHIFT;
        let cur_epoch = self.cur >> WHEEL_SHIFT;
        if epoch == cur_epoch {
            let slot = (b as usize) & (WHEEL_SLOTS - 1);
            self.wheel[slot].push(q);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else if epoch - cur_epoch < OUTER_SLOTS as u64 {
            // Slots can't alias two epochs: live outer entries all lie
            // within `(cur_epoch, cur_epoch + OUTER_SLOTS)`.
            let slot = (epoch as usize) & (OUTER_SLOTS - 1);
            self.outer[slot].push(q);
            self.outer_occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.far.push(Reverse(q));
        }
    }

    /// Moves the cursor to the next non-empty bucket and sorts it into
    /// `near`. Caller guarantees `near` is empty and `len > 0`.
    fn refill(&mut self) {
        debug_assert!(self.near.is_empty() && self.len > 0);
        let epoch_base = self.cur & !(WHEEL_SLOTS as u64 - 1);
        self.cur = match self.next_inner_from((self.cur as usize & (WHEEL_SLOTS - 1)) + 1) {
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

    /// First occupied inner-wheel slot at index `start` or later within
    /// the current epoch (no wraparound — the wheel is epoch-aligned).
    fn next_inner_from(&self, start: usize) -> Option<usize> {
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

    /// The current epoch's wheel is drained: advance to the next epoch
    /// holding events (nearest occupied outer slot vs. the far head),
    /// scatter that epoch into the inner wheel, migrate far events now
    /// within the outer horizon, and return the first occupied bucket.
    /// Each event crosses each tier boundary at most once, so the whole
    /// hierarchy stays amortized O(1) per event.
    fn advance_epoch(&mut self) -> u64 {
        let cur_epoch = self.cur >> WHEEL_SHIFT;
        let outer_next = self.next_outer_delta().map(|d| cur_epoch + d);
        let far_next = self
            .far
            .peek()
            .map(|Reverse(q)| q.at >> (BUCKET_SHIFT + WHEEL_SHIFT));
        let epoch = match (outer_next, far_next) {
            (Some(o), Some(f)) => o.min(f),
            (Some(o), None) => o,
            (None, Some(f)) => f,
            (None, None) => unreachable!("len > 0 with empty near, wheel, outer, and far"),
        };
        // Scatter the entered epoch's events into the inner wheel.
        let outer_slot = (epoch as usize) & (OUTER_SLOTS - 1);
        self.outer_occupied[outer_slot / 64] &= !(1 << (outer_slot % 64));
        let mut entering = std::mem::take(&mut self.outer[outer_slot]);
        for q in entering.drain(..) {
            let slot = ((q.at >> BUCKET_SHIFT) as usize) & (WHEEL_SLOTS - 1);
            self.wheel[slot].push(q);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        }
        // Hand the (empty) buffer back so its capacity is recycled.
        self.outer[outer_slot] = entering;
        // Migrate far events inside the new outer horizon: the entered
        // epoch's go straight to the inner wheel, later ones to outer.
        let horizon = epoch + OUTER_SLOTS as u64;
        while let Some(Reverse(q)) = self.far.peek() {
            let e = q.at >> (BUCKET_SHIFT + WHEEL_SHIFT);
            if e >= horizon {
                break;
            }
            let Some(Reverse(q)) = self.far.pop() else {
                unreachable!()
            };
            if e == epoch {
                let slot = ((q.at >> BUCKET_SHIFT) as usize) & (WHEEL_SLOTS - 1);
                self.wheel[slot].push(q);
                self.occupied[slot / 64] |= 1 << (slot % 64);
            } else {
                let slot = (e as usize) & (OUTER_SLOTS - 1);
                self.outer[slot].push(q);
                self.outer_occupied[slot / 64] |= 1 << (slot % 64);
            }
        }
        let slot = self
            .next_inner_from(0)
            .expect("entered epoch must hold at least one event");
        (epoch << WHEEL_SHIFT) + slot as u64
    }

    /// Distance (in epochs) from the current epoch to the nearest
    /// occupied outer slot, scanning the occupancy bitmap word-by-word
    /// with wraparound (outer slots are modulo-indexed).
    fn next_outer_delta(&self) -> Option<u64> {
        let start = (((self.cur >> WHEEL_SHIFT) as usize) & (OUTER_SLOTS - 1)) + 1;
        for i in 0..=OUTER_WORDS {
            // Word index, walking wrapped slots [start, start + OUTER_SLOTS).
            let word_idx = ((start / 64) + i) % OUTER_WORDS;
            let mut word = self.outer_occupied[word_idx];
            if i == 0 {
                word &= !0u64 << (start % 64);
            }
            if i == OUTER_WORDS {
                // Wrapped fully around: only slots before `start` remain.
                word &= !(!0u64 << (start % 64));
            }
            if word != 0 {
                let slot = word_idx * 64 + word.trailing_zeros() as usize;
                let cur_slot = ((self.cur >> WHEEL_SHIFT) as usize) & (OUTER_SLOTS - 1);
                let delta = (slot + OUTER_SLOTS - cur_slot) % OUTER_SLOTS;
                debug_assert!(delta > 0);
                return Some(delta as u64);
            }
        }
        None
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
    // Boxed: the wheel + outer ring headers make the calendar ~370 B,
    // and there is exactly one EventQueue per Simulation anyway.
    Calendar(Box<CalendarQueue>),
}

impl EventQueue {
    fn new(kind: SchedulerKind) -> Self {
        match kind {
            SchedulerKind::BinaryHeap => EventQueue::Heap(BinaryHeap::new()),
            SchedulerKind::Calendar => EventQueue::Calendar(Box::new(CalendarQueue::new())),
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
    actions: Vec<Action<M>>,
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

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for id in 0..self.slots.len() {
            let mut actions = std::mem::take(&mut self.actions);
            {
                let mut ctx = Ctx {
                    now: self.now,
                    self_id: id,
                    rng: &mut self.rng,
                    actions: &mut actions,
                };
                self.slots[id].actor.on_start(&mut ctx);
            }
            self.actions = actions;
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
                Action::Send { dst, mut payload } => {
                    // Stamp the virtual send time before the NIC charges
                    // serialization: receivers use it to split network
                    // time out of end-to-end latency (trace layer).
                    payload.stamp_sent(self.now);
                    let bytes = payload.wire_size();
                    let wire = (bytes as f64 / self.nic.bytes_per_ns).round() as Nanos;
                    let depart = self.now.max(self.slots[src].nic_free) + wire;
                    self.slots[src].nic_free = depart;
                    // Departure stamp: serialization + NIC queueing are
                    // `depart - sent`, which the profiler splits out of
                    // round-trip time.
                    payload.stamp_departed(depart);
                    let at = depart + self.nic.one_way_latency_ns;
                    self.push(at, dst, Event::Message { src, payload });
                }
                Action::Timer { delay, token } => {
                    self.push(self.now + delay, src, Event::Timer { token });
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

    fn push(&mut self, at: Nanos, dst: ActorId, event: Event<M>) {
        let seq = self.seq;
        self.seq += 1;
        let idx = self.slab.alloc(event);
        self.queue.push(QRef {
            at,
            seq,
            dst: dst as u32,
            idx,
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
        let event = self.slab.take(q.idx);
        if !self.slots[dst].alive {
            return true;
        }
        self.events_processed += 1;
        let mut actions = std::mem::take(&mut self.actions);
        {
            let mut ctx = Ctx {
                now: self.now,
                self_id: dst,
                rng: &mut self.rng,
                actions: &mut actions,
            };
            self.slots[dst].actor.on_event(&mut ctx, event);
        }
        self.actions = actions;
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

    #[derive(Debug)]
    struct Ping {
        bytes: u64,
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
            if let Event::Message { src, payload } = event {
                self.log.borrow_mut().push((ctx.now(), src));
                if self.reply {
                    ctx.send(
                        src,
                        Ping {
                            bytes: payload.bytes,
                        },
                    );
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
                ctx.send(self.dst, Ping { bytes: self.bytes });
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

    #[test]
    fn schedulers_deliver_identical_orders() {
        assert_eq!(
            delivery_log(SchedulerKind::Calendar),
            delivery_log(SchedulerKind::BinaryHeap)
        );
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

    /// Timers far past the wheel horizon (and re-arming across it) must
    /// migrate inward in order.
    #[test]
    fn far_horizon_timers_fire_in_order() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::BinaryHeap] {
            let fires = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulation::with_scheduler(nic(), 1, kind);
            // 3 ms period: three wheel horizons out.
            sim.add_actor(Box::new(Ticker {
                period: 3_000_000,
                fires: Rc::clone(&fires),
                remaining: 5,
            }));
            // A fast ticker interleaved within the horizon.
            let fast = Rc::new(RefCell::new(Vec::new()));
            sim.add_actor(Box::new(Ticker {
                period: 250_000,
                fires: Rc::clone(&fast),
                remaining: 60,
            }));
            sim.run_to_idle();
            assert_eq!(
                *fires.borrow(),
                vec![3_000_000, 6_000_000, 9_000_000, 12_000_000, 15_000_000]
            );
            assert_eq!(fast.borrow().len(), 60);
            assert!(fast.borrow().windows(2).all(|w| w[0] < w[1]));
        }
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

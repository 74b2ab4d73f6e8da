//! Deterministic tracing and metrics under the virtual clock.
//!
//! The paper argues entirely through timelines and latency
//! decompositions (Figs 9–14); this crate is the observability layer
//! those figures need. Actors record three event kinds into one shared
//! buffer:
//!
//! - **spans** (`ph: "X"`): an interval `[ts, ts+dur]` on a `(pid,
//!   tid)` lane — an RPC's worker-service time, one migration phase,
//!   one Pull round trip;
//! - **instants** (`ph: "i"`): a point event carrying structured args —
//!   e.g. the per-RPC latency decomposition stamped when the response
//!   leaves the server;
//! - **counters** (`ph: "C"`): a monotonic value sampled whenever it
//!   changes — retry hints sent, priority-pull deferrals, abandoned
//!   migrations.
//!
//! Determinism rules (see DESIGN.md):
//!
//! 1. every timestamp is virtual time — two runs with the same seed
//!    produce *byte-identical* exports;
//! 2. events are appended at their **completion** time, so buffer order
//!    is completion order and `ts + dur` is non-decreasing;
//! 3. spans sharing a `(pid, tid)` lane must nest properly (lanes are
//!    chosen so this holds by construction: one lane per worker core,
//!    per pull partition, per migration);
//! 4. arg values are integers only — no floats, no formatting
//!    ambiguity.
//!
//! Zero-cost-off guarantee: [`Tracer`] is an `Option` around the shared
//! buffer. A disabled tracer is `None`; every record call is a branch
//! on that discriminant and nothing else — no allocation, no clock
//! reads, no arg construction (callers must guard arg-building with
//! [`Tracer::is_on`]).
//!
//! Zero-allocation-on guarantee: a buffer stores per event only what
//! varies per event. What is constant per call site — name, category,
//! phase and arg names — is interned once per buffer, the first time
//! the buffer sees it, as a *schema*; the ring then holds a 16 B entry
//! per event (completion time, schema id, arena offset) and its arena
//! the rest — duration, lanes and arg values — as one LEB128 byte run,
//! 1 B for a value below 128. No event owns heap memory, so recording
//! allocates nothing past a schema's first sight (a bounded ring
//! reserves its slots and its arena up front, an unbounded one's arena
//! grows by doubling) and dropping or compacting the buffer frees
//! nothing per event. `tests/alloc_gate.rs` pins both guarantees.
//!
//! Schemas are looked up by the *addresses* of their `&'static str`s
//! and written out by their *content*: two content-equal names at
//! different addresses get two schemas that export the same bytes, and
//! the address-keyed memo and index are only probed, never iterated, so
//! no output depends on where a string lives. An event first tries the
//! memo, one slot picked by its name's address, phase and arity; only
//! when that slot holds another schema does it hash every address to
//! probe the index.

use std::cell::RefCell;
use std::hash::Hasher;
use std::ops::Deref;
use std::rc::Rc;
use std::{fmt, ptr};

use rocksteady_common::fxmap::{FxHashMap, FxHasher};
use rocksteady_common::json::{JsonWriter, Members, Micros};
use rocksteady_common::{Histogram, Nanos, TailRing};

pub mod journey;

/// The lane-ID (`tid`) convention shared by every producer and consumer
/// of the trace buffer.
///
/// Spans sharing a `(pid, tid)` lane must nest properly (invariant 3 in
/// the crate docs), so each logically-concurrent strand of work gets
/// its own lane. Server actors lay their lanes out as follows; the
/// critical-path walker in `rocksteady-profiler` reverses the mapping
/// with [`worker_index`](lanes::worker_index) /
/// [`pull_partition`](lanes::pull_partition).
pub mod lanes {
    /// Dispatch-core lane: per-RPC decomposition instants.
    pub const RPC: u64 = 0;
    /// First worker lane; worker `w` records on `WORKER_BASE + w`.
    pub const WORKER_BASE: u64 = 1;
    /// Migration-phase spans (prepare, ownership-flip, run, commit).
    pub const MIGRATION: u64 = 100;
    /// Priority-pull round trips (at most one outstanding at a time).
    pub const PRIORITY_PULL: u64 = 101;
    /// First pull lane; partition `p`'s pulls record on `PULL_BASE + p`.
    pub const PULL_BASE: u64 = 110;

    /// Lane for worker core `w`.
    pub fn worker(w: usize) -> u64 {
        WORKER_BASE + w as u64
    }

    /// Lane for pull partition `p`.
    pub fn pull(p: usize) -> u64 {
        PULL_BASE + p as u64
    }

    /// Inverse of [`worker`]: the worker index recording on `tid`, if
    /// `tid` is a worker lane.
    pub fn worker_index(tid: u64) -> Option<usize> {
        (WORKER_BASE..MIGRATION)
            .contains(&tid)
            .then(|| (tid - WORKER_BASE) as usize)
    }

    /// Inverse of [`pull`]: the partition recording on `tid`, if `tid`
    /// is a pull lane.
    pub fn pull_partition(tid: u64) -> Option<usize> {
        (tid >= PULL_BASE).then(|| (tid - PULL_BASE) as usize)
    }
}

/// Chrome trace-event phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Complete event (`"X"`): an interval with a duration.
    Span,
    /// Instant event (`"i"`): a point in time with args.
    Instant,
    /// Counter sample (`"C"`): a monotonic value.
    Counter,
    /// Flow start (`"s"`): the producing end of a causal link. Carries
    /// the journey's trace id in the `flow` arg (exported as the chrome
    /// flow `id`), so per-RPC instants on different nodes chain into one
    /// cross-node causal graph.
    FlowStart,
    /// Flow end (`"f"`): the consuming end of a causal link (same `flow`
    /// arg convention as [`Phase::FlowStart`]).
    FlowEnd,
}

/// One `(name, value)` argument of an event. Names are `&'static str`
/// and values integers, so exports are trivially deterministic.
pub type Arg = (&'static str, u64);

/// Most args one event may carry (the widest emitter, the per-RPC
/// decomposition instant, carries 14). The cap is what bounds a ring
/// tracer's arena at `capacity × MAX_ARGS` values; going over it is an
/// emitter bug, caught by a debug assertion (a release build records
/// the event whole).
pub const MAX_ARGS: usize = 16;

/// The longest byte run an event of at most [`MAX_ARGS`] args takes in
/// the arena: `dur`, `pid`, `tid` and its args, 10 B each at most.
const RUN_BOUND: usize = 10 * (3 + MAX_ARGS);

/// The fixed-size part of a recorded event: everything but its args.
/// All names are `&'static str`, so a head is plain copyable data. The
/// buffer does not store heads: a reader gets each one rebuilt from the
/// event's slot and schema.
#[derive(Debug, Clone, Copy)]
pub struct EventHead {
    /// Event name (chrome `name`).
    pub name: &'static str,
    /// Category (chrome `cat`), used for filtering.
    pub cat: &'static str,
    /// Event kind.
    pub ph: Phase,
    /// Start time (virtual nanoseconds).
    pub ts: Nanos,
    /// Duration (0 for instants and counters).
    pub dur: Nanos,
    /// Process lane: the actor id.
    pub pid: u64,
    /// Thread lane within the actor (worker core, partition, ...).
    pub tid: u64,
}

/// What the ring holds per event beside its byte run in the arena
/// (`dur`, `pid`, `tid`, then the arg values, each [`put_varint`]-
/// encoded). 12 B and 4-aligned, so with the ring's `u32` arena offset
/// 16 B.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Slot {
    /// `ts + dur`, wrapping: the buffer is completion-ordered, so this is
    /// what [`Events::since`] searches, and `ts` is `end - dur`.
    end: Nanos,
    /// Index into the buffer's schema table.
    schema: u32,
}

/// Writes `v` at `out[*at..]` as LEB128 — seven bits a byte, low bits
/// first, the top bit set on every byte but the last: 1 B below 2⁷,
/// 10 B at most — and moves `at` past it.
#[inline(always)]
fn put_varint(out: &mut [u8], at: &mut usize, mut v: u64) {
    while v >= 0x80 {
        out[*at] = v as u8 | 0x80;
        v >>= 7;
        *at += 1;
    }
    out[*at] = v as u8;
    *at += 1;
}

/// Reads one [`put_varint`] value off the front of `bytes`.
fn take_varint(bytes: &mut &[u8]) -> u64 {
    let last = bytes.iter().position(|&b| b < 0x80);
    let (run, rest) = bytes.split_at(last.expect("a value ends in a byte below 0x80") + 1);
    *bytes = rest;
    run.iter().rfold(0, |v, &b| v << 7 | u64::from(b & 0x7f))
}

/// What is constant per call site, stored once per buffer: the event's
/// name, category, phase and arg names (for a flow event, its leading
/// `flow` id's name first).
#[derive(Debug)]
struct Schema {
    name: &'static str,
    cat: &'static str,
    ph: Phase,
    args: Box<[&'static str]>,
}

impl Schema {
    /// What the chrome export writes for every event of this schema:
    /// `"name":…,"cat":…,"ph":…`, and `"arg":` for each of its args.
    fn chrome(&self) -> (Members, Vec<Members>) {
        let ph = match self.ph {
            Phase::Span => "X",
            Phase::Instant => "i",
            Phase::Counter => "C",
            Phase::FlowStart => "s",
            Phase::FlowEnd => "f",
        };
        let (name, cat) = (self.name, self.cat);
        let head = Members::render(|w| w.field("name", name).field("cat", cat).field("ph", ph));
        let key = |&arg| Members::render(|w| w.key(arg));
        (head, self.args.iter().map(key).collect())
    }
}

/// An event as a record call hands it over, before it is filed.
struct Emitted<'r> {
    head: EventHead,
    /// `flow`'s id, recorded ahead of `args`.
    lead: Option<Arg>,
    args: &'r [Arg],
}

impl Emitted<'_> {
    fn all_args(&self) -> impl Iterator<Item = Arg> + '_ {
        self.lead.into_iter().chain(self.args.iter().copied())
    }

    fn arity(&self) -> usize {
        usize::from(self.lead.is_some()) + self.args.len()
    }

    /// The memo slot this event's schema is kept in: a multiplicative
    /// hash of its name's address, its phase and its arity. Call sites
    /// that share all three share a slot, and [`Emitted::is`] tells them
    /// apart.
    #[inline]
    fn memo_slot(&self) -> usize {
        let h = &self.head;
        let key = h.name.as_ptr() as u64 ^ (h.ph as u64) << 56 ^ (self.arity() as u64) << 48;
        (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (u64::BITS - MEMO_BITS)) as usize
    }

    /// Hash of the schema's string addresses, phase and arity: the
    /// index's key. Equal schemas hash equal; unequal ones that collide
    /// are told apart by [`Emitted::is`].
    fn key(&self) -> u64 {
        let h = &self.head;
        let mut hasher = FxHasher::default();
        hasher.write_usize(h.name.as_ptr() as usize);
        hasher.write_usize(h.cat.as_ptr() as usize);
        hasher.write_u64((h.ph as u64) << 32 | self.arity() as u64);
        for (name, _) in self.all_args() {
            hasher.write_usize(name.as_ptr() as usize);
        }
        hasher.finish()
    }

    /// Whether `schema` is this event's: every string the same address
    /// and length (`ptr::eq` on a `&str` compares both), so the answer
    /// never depends on a hash.
    fn is(&self, schema: &Schema) -> bool {
        let h = &self.head;
        let names = match (self.lead, schema.args.split_first()) {
            (None, _) => &schema.args[..],
            (Some((lead, _)), Some((first, rest))) if ptr::eq(lead, *first) => rest,
            (Some(_), _) => return false,
        };
        ptr::eq(h.name, schema.name)
            && ptr::eq(h.cat, schema.cat)
            && h.ph == schema.ph
            && self.args.len() == names.len()
            && self
                .args
                .iter()
                .zip(names)
                .all(|(&(a, _), b)| ptr::eq(a, *b))
    }
}

/// One recorded event as a reader sees it: its [`EventHead`] (reached
/// through `Deref`, so `ev.name`, `ev.ts`, … read as fields) and its
/// args, borrowed from the trace buffer.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent<'a> {
    head: EventHead,
    /// Structured integer arguments, in recording order.
    pub args: Args<'a>,
    /// Its schema's id.
    schema: u32,
}

impl Deref for TraceEvent<'_> {
    type Target = EventHead;

    fn deref(&self) -> &EventHead {
        &self.head
    }
}

impl TraceEvent<'_> {
    /// Looks up an argument by name: a linear scan, for readers that
    /// want one or two args of an event. A fold over every event that
    /// wants many (the journey stitcher) walks `args` once instead.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|&(n, _)| n == name).map(|(_, v)| v)
    }
}

/// One event's args, in recording order: names from its schema, values
/// from the event's byte run. It is its own iterator, decoding each
/// value as it yields it, and `Copy`, so a reader can walk it as often
/// as it likes.
#[derive(Clone, Copy)]
pub struct Args<'a> {
    /// The names of the args still to be yielded.
    names: &'a [&'static str],
    /// Their values, [`put_varint`]-encoded one after another.
    bytes: &'a [u8],
}

impl<'a> Args<'a> {
    /// A fresh walk over the args.
    pub fn iter(&self) -> Args<'a> {
        *self
    }

    /// How many args are left.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no arg is left.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The `i`-th arg: a walk over the `i` before it.
    pub fn get(&self, i: usize) -> Option<Arg> {
        self.iter().nth(i)
    }
}

impl Iterator for Args<'_> {
    type Item = Arg;

    fn next(&mut self) -> Option<Arg> {
        let (&name, rest) = self.names.split_first()?;
        self.names = rest;
        Some((name, take_varint(&mut self.bytes)))
    }
}

impl fmt::Debug for Args<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The recorded events, oldest first: what [`Tracer::with_events`]
/// hands its reader. A double-ended iterator over the buffer (or over a
/// completion-time suffix of it, see [`Events::since`]) that is `Copy`,
/// so a reader can walk it as often as it likes.
#[derive(Debug, Clone, Copy)]
pub struct Events<'a> {
    buf: &'a TraceBuf,
    /// The positions in the ring still to be yielded.
    from: usize,
    to: usize,
}

impl<'a> Events<'a> {
    fn of(buf: &'a TraceBuf) -> Self {
        let (from, to) = (0, buf.events.len());
        Events { buf, from, to }
    }

    /// A fresh walk over the events (`.rev()` for newest first).
    pub fn iter(&self) -> Events<'a> {
        *self
    }

    /// Whether no event is left.
    pub fn is_empty(&self) -> bool {
        self.from == self.to
    }

    /// The events completing at or after `since`. The buffer is
    /// completion-ordered, so that window is a suffix.
    pub fn since(&self, since: Nanos) -> Events<'a> {
        let first = self.buf.events.partition_point(|slot| slot.end < since);
        Events {
            from: first.clamp(self.from, self.to),
            ..*self
        }
    }

    /// Args carried by the events still to be yielded.
    fn args_len(&self) -> usize {
        let schemas = &self.buf.schemas;
        (self.from..self.to)
            .map(|i| schemas[self.buf.events.get(i).0.schema as usize].args.len())
            .sum()
    }

    /// Each event still to be yielded as its buffer position and schema
    /// id, read off its slot alone: for a fold that reads the events of
    /// some schemas only, and decodes those with [`Events::event`].
    fn schema_ids(&self) -> impl Iterator<Item = (usize, u32)> + 'a {
        let buf = self.buf;
        (self.from..self.to).map(move |i| (i, buf.events.get(i).0.schema))
    }

    /// The event at buffer position `i`, decoded.
    fn event(&self, i: usize) -> TraceEvent<'a> {
        let (slot, mut bytes) = self.buf.events.get(i);
        let schema = &self.buf.schemas[slot.schema as usize];
        let [dur, pid, tid] = [(); 3].map(|_| take_varint(&mut bytes));
        let head = EventHead {
            name: schema.name,
            cat: schema.cat,
            ph: schema.ph,
            ts: slot.end.wrapping_sub(dur),
            dur,
            pid,
            tid,
        };
        let names = &schema.args;
        TraceEvent {
            head,
            args: Args { names, bytes },
            schema: slot.schema,
        }
    }
}

impl<'a> Iterator for Events<'a> {
    type Item = TraceEvent<'a>;

    #[inline]
    fn next(&mut self) -> Option<TraceEvent<'a>> {
        (self.from < self.to).then(|| {
            self.from += 1;
            self.event(self.from - 1)
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.to - self.from;
        (left, Some(left))
    }
}

impl DoubleEndedIterator for Events<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        (self.from < self.to).then(|| {
            self.to -= 1;
            self.event(self.to)
        })
    }
}

impl ExactSizeIterator for Events<'_> {}

/// log₂ of the schema memo's slots: 256 of them, 1 KiB, for the few
/// dozen schemas a run records.
const MEMO_BITS: u32 = 8;

/// The shared event buffer behind an enabled [`Tracer`].
#[derive(Debug)]
pub struct TraceBuf {
    /// One slot per event, the rest of the event in the arena.
    events: TailRing<Slot, u8>,
    /// Every schema seen, by id, in first-sight order. Compaction
    /// evicts slots, never a schema.
    schemas: Vec<Schema>,
    /// The schema id last filed in each [`Emitted::memo_slot`]
    /// (`u32::MAX` for none): probed, never iterated, and every hit
    /// checked.
    memo: [u32; 1 << MEMO_BITS],
    /// Schema ids by [`Emitted::key`], which hashes addresses: what a
    /// memo miss probes; never iterated, and every hit checked.
    index: FxHashMap<u64, u32>,
    /// Recording gate: an armed tracer can be muted for warm-up windows
    /// without giving up the buffer (benches trace only the migration
    /// window this way).
    recording: bool,
}

impl Default for TraceBuf {
    fn default() -> Self {
        TraceBuf {
            events: TailRing::default(),
            schemas: Vec::new(),
            memo: [u32::MAX; 1 << MEMO_BITS],
            index: FxHashMap::default(),
            recording: false,
        }
    }
}

impl TraceBuf {
    #[inline]
    fn push(&mut self, ev: Emitted<'_>) {
        let schema = self.schema_of(&ev);
        let h = ev.head;
        let slot = Slot {
            end: h.ts.wrapping_add(h.dur),
            schema,
        };
        self.events.push_with(slot, |arena| {
            // One capacity check per event: the arena grows by 10 B a
            // value (as `RUN_BOUND` counts), the run is written into
            // that window, and the length is cut back to the run.
            let start = arena.len();
            arena.resize(start + 10 * (3 + ev.arity()), 0);
            let (out, mut at) = (&mut arena[start..], 0);
            for v in [h.dur, h.pid, h.tid] {
                put_varint(out, &mut at, v);
            }
            if let Some((_, v)) = ev.lead {
                put_varint(out, &mut at, v);
            }
            for &(_, v) in ev.args {
                put_varint(out, &mut at, v);
            }
            arena.truncate(start + at);
        });
    }

    /// `ev`'s schema id: the memo's candidate if it is `ev`'s, else the
    /// index's, else a scan of the table, else a new schema.
    #[inline]
    fn schema_of(&mut self, ev: &Emitted<'_>) -> u32 {
        let slot = ev.memo_slot();
        let id = self.memo[slot];
        if self.schemas.get(id as usize).is_some_and(|s| ev.is(s)) {
            return id;
        }
        let id = self.indexed(ev);
        self.memo[slot] = id;
        id
    }

    /// `ev`'s schema id through the index: its candidate if it is `ev`'s,
    /// else a scan of the table, else a new schema.
    #[cold]
    fn indexed(&mut self, ev: &Emitted<'_>) -> u32 {
        let key = ev.key();
        match self.index.get(&key) {
            Some(&id) if self.schemas.get(id as usize).is_some_and(|s| ev.is(s)) => id,
            _ => self.find_or_add(ev, key),
        }
    }

    #[cold]
    fn find_or_add(&mut self, ev: &Emitted<'_>, key: u64) -> u32 {
        if let Some(id) = self.schemas.iter().position(|s| ev.is(s)) {
            return id as u32;
        }
        let id = u32::try_from(self.schemas.len()).expect("fewer than 2^32 schemas");
        self.schemas.push(Schema {
            name: ev.head.name,
            cat: ev.head.cat,
            ph: ev.head.ph,
            args: ev.all_args().map(|(name, _)| name).collect(),
        });
        self.index.insert(key, id);
        id
    }
}

/// Validation result: what a well-formed trace contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total events.
    pub events: usize,
    /// Span events among them.
    pub spans: usize,
}

/// Shared, clonable handle to the trace buffer. `Tracer::off()` is the
/// zero-cost disabled state; cloning an armed tracer shares the buffer.
///
/// Every record call takes its args as `impl AsRef<[Arg]>` — a stack
/// array or slice on the hot paths; a `Vec` is accepted too — and
/// copies their values into the buffer's arena. Being generic, those
/// calls are instantiated in the emitter's crate; they are
/// `#[inline(never)]` so that a site guarded by [`Tracer::is_on`]
/// carries one call, not the recording body, on its cold side.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<TraceBuf>>>);

impl Tracer {
    /// A permanently disabled tracer: every call is a no-op branch.
    pub fn off() -> Self {
        Tracer(None)
    }

    fn recording_into(events: TailRing<Slot, u8>) -> Self {
        Tracer(Some(Rc::new(RefCell::new(TraceBuf {
            events,
            recording: true,
            ..TraceBuf::default()
        }))))
    }

    /// An armed tracer with a fresh buffer, recording immediately.
    pub fn armed() -> Self {
        Self::recording_into(TailRing::default())
    }

    /// An armed tracer in **ring mode**: the buffer is a
    /// [`TailRing::with_capacity`] whose arena is reserved for
    /// `capacity` events of [`MAX_ARGS`] args, evictions are counted in
    /// [`Tracer::dropped`]. Because the buffer is completion-ordered,
    /// dropping a prefix cannot break nesting or ordering, so
    /// [`Tracer::validate`] still passes on a wrapped buffer.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::recording_into(TailRing::with_capacity(capacity, RUN_BOUND))
    }

    /// Events discarded by ring compaction (0 when unbounded or off).
    pub fn dropped(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |buf| buf.borrow().events.dropped())
    }

    /// Whether events would currently be recorded. Callers building
    /// args should guard on this so a muted/disabled tracer costs one
    /// branch.
    #[inline]
    pub fn is_on(&self) -> bool {
        match &self.0 {
            Some(buf) => buf.borrow().recording,
            None => false,
        }
    }

    /// Mutes or resumes recording on an armed tracer (no-op when off).
    pub fn set_recording(&self, on: bool) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().recording = on;
        }
    }

    /// Files `head` and `lead` + `args` in the buffer.
    #[inline]
    fn record(&self, head: EventHead, lead: Option<Arg>, args: &[Arg]) {
        if let Some(buf) = &self.0 {
            let mut buf = buf.borrow_mut();
            if buf.recording {
                let ev = Emitted { head, lead, args };
                debug_assert!(
                    ev.arity() <= MAX_ARGS,
                    "event {} carries more than {MAX_ARGS} args",
                    head.name
                );
                buf.push(ev);
            }
        }
    }

    /// Records a completed span `[ts, ts+dur]`. Call at completion time
    /// (`now == ts + dur`) so the buffer stays completion-ordered.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    pub fn span(
        &self,
        name: &'static str,
        cat: &'static str,
        pid: u64,
        tid: u64,
        ts: Nanos,
        dur: Nanos,
        args: impl AsRef<[Arg]>,
    ) {
        let head = EventHead {
            name,
            cat,
            ph: Phase::Span,
            ts,
            dur,
            pid,
            tid,
        };
        self.record(head, None, args.as_ref());
    }

    /// Records an instant event at `ts` (the current virtual time).
    #[inline(never)]
    pub fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        pid: u64,
        tid: u64,
        ts: Nanos,
        args: impl AsRef<[Arg]>,
    ) {
        let head = EventHead {
            name,
            cat,
            ph: Phase::Instant,
            ts,
            dur: 0,
            pid,
            tid,
        };
        self.record(head, None, args.as_ref());
    }

    /// Records one end of a causal flow link at `ts` (the current
    /// virtual time, keeping the buffer completion-ordered). `start`
    /// selects [`Phase::FlowStart`] (the cause: a request leaving its
    /// sender) vs [`Phase::FlowEnd`] (the effect: the answering node
    /// finishing it); `flow_id` is the journey's trace id and binds the
    /// two ends together in chrome://tracing. It is recorded as the
    /// leading `flow` arg, ahead of `args`.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    pub fn flow(
        &self,
        name: &'static str,
        cat: &'static str,
        pid: u64,
        tid: u64,
        ts: Nanos,
        start: bool,
        flow_id: u64,
        args: impl AsRef<[Arg]>,
    ) {
        let head = EventHead {
            name,
            cat,
            ph: if start {
                Phase::FlowStart
            } else {
                Phase::FlowEnd
            },
            ts,
            dur: 0,
            pid,
            tid,
        };
        self.record(head, Some(("flow", flow_id)), args.as_ref());
    }

    /// Records a counter sample: `name` has `value` as of `ts`.
    pub fn counter(&self, name: &'static str, pid: u64, ts: Nanos, value: u64) {
        let head = EventHead {
            name,
            cat: "counter",
            ph: Phase::Counter,
            ts,
            dur: 0,
            pid,
            tid: 0,
        };
        self.record(head, None, &[("value", value)]);
    }

    /// Read access to the recorded events (none when the tracer is
    /// disabled).
    pub fn with_events<R>(&self, f: impl FnOnce(Events<'_>) -> R) -> R {
        match &self.0 {
            Some(buf) => f(Events::of(&buf.borrow())),
            None => f(Events::of(&TraceBuf::default())),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.with_events(|events| events.len())
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Histogram of the durations of all spans named `name`.
    pub fn span_histogram(&self, name: &str) -> Histogram {
        self.with_events(|events| {
            let mut h = Histogram::new();
            for ev in events {
                if ev.ph == Phase::Span && ev.name == name {
                    h.record(ev.dur);
                }
            }
            h
        })
    }

    /// Histogram of argument `arg` across all instants named `name`.
    pub fn instant_arg_histogram(&self, name: &str, arg: &str) -> Histogram {
        self.with_events(|events| {
            let mut h = Histogram::new();
            for ev in events {
                if ev.ph == Phase::Instant && ev.name == name {
                    if let Some(v) = ev.arg(arg) {
                        h.record(v);
                    }
                }
            }
            h
        })
    }

    /// Exports the buffer as chrome://tracing JSON. Timestamps are
    /// microseconds with exactly three decimal digits (integer math on
    /// the nanosecond clock), so same-seed runs export byte-identical
    /// strings.
    pub fn export_chrome_json(&self) -> String {
        self.with_events(Self::format_chrome_json)
    }

    /// Exports only the events completing at or after `since` — the
    /// incident bundle's "last N ms" trace slice. Same format as
    /// [`Tracer::export_chrome_json`].
    pub fn export_chrome_json_since(&self, since: Nanos) -> String {
        self.with_events(|events| Self::format_chrome_json(events.since(since)))
    }

    /// One pass over `events`, into a buffer sized once from their
    /// counts.
    fn format_chrome_json(events: Events<'_>) -> String {
        // Upper bounds for this repo's event vocabulary: an argless
        // event writes ≤ 150 B (60 B of punctuation and fixed keys, a
        // name + cat of ≤ 34 B, ts/dur/pid/tid/id digits) and an arg
        // ≤ 40 B (`"priority_pulls_sent":` + a 17-digit trace id).
        // `observed_rebalance` measures 184 B per event at 5.2 args per
        // event, of 158 + 5.2 × 40 = 366 B reserved; pages the document
        // never reaches are never touched. An emitter outside these
        // bounds costs a regrow, not correctness.
        const EVENT_BYTES: usize = 158;
        const ARG_BYTES: usize = 40;
        let bytes = 64 + events.len() * EVENT_BYTES + events.args_len() * ARG_BYTES;
        let mut w = JsonWriter::with_capacity(bytes);
        w.obj().key("traceEvents").arr();
        let schemas: Vec<_> = events.buf.schemas.iter().map(Schema::chrome).collect();
        for ev in events {
            let (head, keys) = &schemas[ev.schema as usize];
            w.obj().members(head).field("ts", Micros(ev.ts));
            if ev.ph == Phase::Span {
                w.field("dur", Micros(ev.dur));
            }
            if ev.ph == Phase::Instant {
                w.field("s", "t");
            }
            if matches!(ev.ph, Phase::FlowStart | Phase::FlowEnd) {
                // Chrome flow events bind by top-level id; the journey's
                // trace id is recorded as the leading `flow` arg.
                w.field("id", ev.arg("flow").unwrap_or(0));
                if ev.ph == Phase::FlowEnd {
                    w.field("bp", "e");
                }
            }
            w.field("pid", ev.pid).field("tid", ev.tid);
            if !ev.args.is_empty() {
                w.key("args").obj();
                for (key, (_, v)) in keys.iter().zip(ev.args) {
                    w.members(key).value(v);
                }
                w.end_obj();
            }
            w.end_obj();
        }
        w.end_arr().field("displayTimeUnit", "ms").end_obj();
        w.finish()
    }

    /// Validates the trace: non-empty, completion-ordered (monotone
    /// `ts + dur` in buffer order), and spans properly nested within
    /// each `(pid, tid)` lane.
    pub fn validate(&self) -> Result<TraceSummary, String> {
        self.with_events(Self::check_events)
    }

    fn check_events(events: Events<'_>) -> Result<TraceSummary, String> {
        if events.is_empty() {
            return Err("trace is empty".into());
        }
        let mut last_end = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let end = ev.ts + ev.dur;
            if end < last_end {
                return Err(format!(
                    "event {i} ({}) completes at {end} before predecessor at {last_end}",
                    ev.name
                ));
            }
            last_end = end;
        }
        // Per-lane nesting: sort spans by (start, -end) and sweep with
        // an enclosure stack; partial overlap is the only failure.
        type Lane = Vec<(Nanos, Nanos, &'static str)>;
        let mut lanes: std::collections::BTreeMap<(u64, u64), Lane> =
            std::collections::BTreeMap::new();
        let mut spans = 0usize;
        for ev in events {
            if ev.ph == Phase::Span {
                spans += 1;
                lanes
                    .entry((ev.pid, ev.tid))
                    .or_default()
                    .push((ev.ts, ev.ts + ev.dur, ev.name));
            }
        }
        for ((pid, tid), mut lane) in lanes {
            lane.sort_by_key(|a| (a.0, std::cmp::Reverse(a.1)));
            let mut stack: Vec<(Nanos, Nanos)> = Vec::new();
            for (start, end, name) in lane {
                while let Some(&(_, top_end)) = stack.last() {
                    if top_end <= start {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&(top_start, top_end)) = stack.last() {
                    if end > top_end {
                        return Err(format!(
                            "span {name} [{start},{end}] on lane ({pid},{tid}) partially \
                             overlaps [{top_start},{top_end}]"
                        ));
                    }
                }
                stack.push((start, end));
            }
        }
        Ok(TraceSummary {
            events: events.len(),
            spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh unbounded tracer holding copies of `events`.
    pub(crate) fn rebuilt<'a>(events: impl Iterator<Item = TraceEvent<'a>>) -> Tracer {
        let t = Tracer::armed();
        for ev in events {
            let args: Vec<Arg> = ev.args.iter().collect();
            t.record(*ev, None, &args);
        }
        t
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::off();
        assert!(!t.is_on());
        t.span("a", "c", 1, 1, 0, 10, []);
        t.instant("b", "c", 1, 0, 5, [("x", 1)]);
        t.counter("n", 1, 5, 3);
        assert!(t.is_empty());
        assert!(t.validate().is_err());
        assert_eq!(
            t.export_chrome_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn armed_tracer_shares_buffer_across_clones() {
        let t = Tracer::armed();
        let t2 = t.clone();
        t.span("a", "c", 1, 1, 0, 10, []);
        t2.span("b", "c", 2, 1, 10, 5, []);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn mute_window_gates_recording() {
        let t = Tracer::armed();
        t.set_recording(false);
        assert!(!t.is_on());
        t.span("a", "c", 1, 1, 0, 10, []);
        t.set_recording(true);
        t.span("b", "c", 1, 1, 10, 10, []);
        assert_eq!(t.len(), 1);
        t.with_events(|e| assert_eq!(e.iter().next().unwrap().name, "b"));
    }

    #[test]
    fn export_is_deterministic_and_integer_formatted() {
        let build = || {
            let t = Tracer::armed();
            t.span("rpc", "rpc", 3, 1, 1_234, 5_678, [("bytes", 100)]);
            t.instant("done", "rpc", 3, 0, 6_912, []);
            t.counter("retries", 3, 6_912, 1);
            t.export_chrome_json()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"ts\":1.234"), "{a}");
        assert!(a.contains("\"dur\":5.678"), "{a}");
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"args\":{\"bytes\":100}"));
    }

    #[test]
    fn validate_accepts_nested_and_tiled_spans() {
        let t = Tracer::armed();
        // child [0,4], child [4,10], parent [0,10] pushed at completion.
        t.span("c1", "m", 1, 9, 0, 4, []);
        t.span("c2", "m", 1, 9, 4, 6, []);
        t.span("parent", "m", 1, 9, 0, 10, []);
        let s = t.validate().expect("valid");
        assert_eq!(s.spans, 3);
    }

    #[test]
    fn validate_rejects_partial_overlap() {
        let t = Tracer::armed();
        t.span("a", "m", 1, 1, 0, 6, []);
        t.span("b", "m", 1, 1, 3, 7, []);
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_completion_disorder() {
        let t = Tracer::armed();
        t.instant("late", "m", 1, 0, 100, []);
        t.instant("early", "m", 1, 0, 50, []);
        assert!(t.validate().is_err());
    }

    #[test]
    fn wrapped_ring_still_validates_and_exports_chrome_json() {
        let t = Tracer::with_capacity(16);
        // Nested span pairs: child then parent, pushed at completion,
        // enough of them that the ring wraps several times.
        for i in 0..50u64 {
            let base = i * 100;
            t.span("child", "m", 1, 9, base, 40, []);
            t.span("parent", "m", 1, 9, base, 90, []);
        }
        assert!(t.dropped() > 0, "ring never wrapped");
        let s = t.validate().expect("wrapped ring must stay valid");
        assert!(s.events <= 16);
        let json = t.export_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"parent\""));
    }

    #[test]
    fn since_export_takes_the_completion_suffix() {
        let t = Tracer::armed();
        t.span("old", "m", 1, 1, 0, 10, []);
        t.span("new", "m", 1, 1, 100, 10, []);
        let json = t.export_chrome_json_since(50);
        assert!(!json.contains("\"name\":\"old\""), "{json}");
        assert!(json.contains("\"name\":\"new\""), "{json}");
    }

    /// `since(t)` keeps every event completing at `t` — a span that
    /// started earlier included — and `args_len` counts only the events
    /// a walk has left, from either end.
    #[test]
    fn since_keeps_completion_ties_and_args_len_follows_the_walk() {
        let t = Tracer::armed();
        t.instant("a", "m", 1, 0, 10, [("x", 1)]);
        t.span("b", "m", 1, 1, 5, 15, [("x", 2), ("y", 3)]);
        t.instant("c", "m", 1, 0, 20, []);
        t.span("d", "m", 1, 2, 20, 0, [("x", 4)]);
        t.instant("e", "m", 1, 0, 30, [("x", 5), ("y", 6), ("z", 7)]);
        t.with_events(|events| {
            let names = |e: Events<'_>| e.map(|ev| ev.name).collect::<String>();
            for (since, want) in [(0, "abcde"), (10, "abcde"), (11, "bcde"), (20, "bcde")] {
                assert_eq!(names(events.since(since)), want, "since {since}");
            }
            for (since, want) in [(21, "e"), (30, "e"), (31, "")] {
                assert_eq!(names(events.since(since)), want, "since {since}");
            }
            let mut walk = events.since(20);
            assert_eq!(walk.args_len(), 6);
            walk.next_back();
            assert_eq!(walk.args_len(), 3);
            walk.next();
            assert_eq!((walk.args_len(), names(walk)), (1, "cd".into()));
        });
    }

    /// Reading past an event's args, or a name it does not carry, is
    /// `None`.
    #[test]
    fn missing_args_read_as_none() {
        let t = Tracer::armed();
        t.instant("a", "m", 1, 0, 10, [("x", 300), ("y", 7)]);
        t.instant("b", "m", 1, 0, 11, []);
        t.with_events(|mut events| {
            let a = events.next().unwrap();
            assert_eq!((a.args.get(1), a.args.get(2)), (Some(("y", 7)), None));
            assert_eq!((a.arg("x"), a.arg("z")), (Some(300), None));
            let b = events.next().unwrap();
            assert_eq!((b.args.get(0), b.arg("x")), (None, None));
        });
    }

    #[test]
    fn flow_events_export_chrome_phases_and_ids() {
        let t = Tracer::armed();
        t.flow("journey", "flow", 7, 0, 100, true, 0xbeef, [("hop", 1)]);
        t.flow("journey", "flow", 3, 0, 250, false, 0xbeef, []);
        let json = t.export_chrome_json();
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains("\"id\":48879"), "{json}");
        assert!(json.contains("\"bp\":\"e\""), "{json}");
        // Zero-duration flow events keep the buffer valid and are not
        // subject to span nesting.
        t.span("svc", "worker", 7, 1, 0, 300, []);
        t.validate().expect("flow events must not break validation");
    }

    #[test]
    fn histograms_derive_from_events() {
        let t = Tracer::armed();
        t.span("pull", "mig", 1, 64, 0, 100, []);
        t.span("pull", "mig", 1, 64, 100, 300, []);
        t.instant("rpc", "rpc", 1, 0, 500, [("queue", 40)]);
        let h = t.span_histogram("pull");
        assert_eq!(h.count(), 2);
        assert!(h.max() >= 300);
        let q = t.instant_arg_histogram("rpc", "queue");
        assert_eq!(q.count(), 1);
    }

    /// The widest event the layout admits — `MAX_ARGS` args — comes
    /// back out of the arena whole and in order.
    #[test]
    fn maximum_arity_event_round_trips_through_the_export() {
        const NAMES: [&str; MAX_ARGS] = [
            "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11", "a12", "a13",
            "a14", "a15",
        ];
        let mut args = [("", 0); MAX_ARGS];
        for (i, slot) in args.iter_mut().enumerate() {
            *slot = (NAMES[i], u64::MAX - i as u64);
        }
        let t = Tracer::armed();
        t.instant("wide", "rpc", 3, 0, 10, args);
        t.flow("f", "flow", 3, 0, 10, false, 77, &args[..MAX_ARGS - 1]);
        t.with_events(|events| {
            let wide = events.iter().next().unwrap();
            assert!(wide.args.iter().eq(args), "{:?}", wide.args);
            assert_eq!(wide.arg("a15"), Some(u64::MAX - 15));
            let flow = events.iter().nth(1).unwrap();
            assert_eq!(flow.args.len(), MAX_ARGS);
            assert_eq!(flow.args.get(0), Some(("flow", 77)));
        });
        let json = t.export_chrome_json();
        let want: Vec<String> = args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        assert!(
            json.contains(&format!("\"args\":{{{}}}", want.join(","))),
            "{json}"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "more than 16 args")]
    fn exceeding_the_arity_cap_is_caught_in_debug() {
        let t = Tracer::armed();
        t.instant("too-wide", "rpc", 1, 0, 0, [("x", 0); MAX_ARGS + 1]);
    }

    /// Release builds drop the arity check, not the args: an event over
    /// the cap is recorded, read back and exported whole, in order.
    #[test]
    #[cfg(not(debug_assertions))]
    fn over_wide_events_stay_whole_in_release() {
        const WIDE: usize = MAX_ARGS + 3;
        const NAMES: [&str; WIDE] = [
            "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11", "a12", "a13",
            "a14", "a15", "a16", "a17", "a18",
        ];
        let args: [Arg; WIDE] = std::array::from_fn(|i| (NAMES[i], EDGES[i % EDGES.len()]));
        // Every value 10 B: a run longer than any `MAX_ARGS` event's.
        let widest: [Arg; WIDE] = std::array::from_fn(|i| (NAMES[i], u64::MAX));
        let t = Tracer::armed();
        t.instant("wide", "rpc", 3, 0, 10, args);
        t.flow("f", "flow", 3, 0, 10, true, 77, args);
        t.instant("widest", "rpc", 3, 0, 11, widest);
        t.flow("f", "flow", 3, 0, 11, false, u64::MAX, widest);
        let runs: Vec<usize> = {
            let buf = t.0.as_ref().unwrap().borrow();
            (0..buf.events.len())
                .map(|i| buf.events.get(i).1.len())
                .collect()
        };
        assert_eq!(runs[2..], [3 + 10 * WIDE, 3 + 10 * (WIDE + 1)]);
        assert!(runs[2] > RUN_BOUND, "{runs:?}");
        t.with_events(|events| {
            let mut events = events.iter();
            let wide = events.next().unwrap();
            assert!(wide.args.iter().eq(args), "{:?}", wide.args);
            let flow = events.next().unwrap();
            let want = std::iter::once(("flow", 77)).chain(args);
            assert!(flow.args.iter().eq(want), "{:?}", flow.args);
            let widest_ev = events.next().unwrap();
            assert!(widest_ev.args.iter().eq(widest), "{:?}", widest_ev.args);
            let flow = events.next().unwrap();
            let want = std::iter::once(("flow", u64::MAX)).chain(widest);
            assert!(flow.args.iter().eq(want), "{:?}", flow.args);
        });
        let json = t.export_chrome_json();
        for (args, flow) in [(args, 77), (widest, u64::MAX)] {
            let want: Vec<String> = args.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let want = want.join(",");
            assert!(json.contains(&format!("\"args\":{{{want}}}")), "{json}");
            assert!(
                json.contains(&format!("\"args\":{{\"flow\":{flow},{want}}}")),
                "{json}"
            );
        }
    }

    /// The ring holds 16 B per event — slot and arena offset — and the
    /// arena the event's LEB128 run: `dur`, `pid`, `tid`, then the args.
    #[test]
    fn a_retained_event_costs_a_slot_and_its_values() {
        assert_eq!(std::mem::size_of::<(Slot, u32)>(), 16);
        let t = Tracer::armed();
        t.instant("rpc", "rpc", 1, 0, 5, [("queue", 40), ("service", 200)]);
        let buf = t.0.as_ref().unwrap().borrow();
        assert_eq!(buf.events.get(0).1, [0, 1, 0, 40, 0x80 | 200 & 0x7f, 1]);
    }

    /// Arena bytes held by a tracer's retained events.
    fn arena_bytes(t: &Tracer) -> usize {
        let buf = t.0.as_ref().unwrap().borrow();
        (0..buf.events.len())
            .map(|i| buf.events.get(i).1.len())
            .sum()
    }

    /// The exact ledger of one served read as `observed_rebalance`
    /// records it, with values of its sizes (absolute stamps past 2²⁸
    /// ns, 44-bit trace ids): five events and 26 args in 194 B — 80 B
    /// of ring entries and a 114 B arena — where 48 B an event and 8 B
    /// an arg took 448 B.
    #[test]
    fn a_served_read_costs_194_bytes() {
        const READS: u64 = 1_000;
        let t = Tracer::armed();
        for i in 0..READS {
            let (client, server, rpc) = (9, 3, 77_777 + i);
            let trace = (client + 1) << 40 | (4_321 + i);
            let sent = 1_234_560_000 + i * 10_000;
            let (arrived, assigned, done) = (sent + 2_000, sent + 2_500, sent + 4_000);
            // dur, pid, tid 3 B + flow 7 + trace 7 + attempt 1 = 18 B.
            let flow = [("trace", trace), ("attempt", 1)];
            t.flow("rpc-flow", "flow", client, 0, sent, true, trace ^ rpc, flow);
            // dur 2 + pid 1 + tid 1 = 4 B.
            t.span("read", "worker", server, 2, assigned, 1_500, []);
            // 3 B + src 1, rpc 3, five stamps 25, net_in 2, nic_in 1,
            // queue 2, service 2, hold 1, trace 7, hop 1 = 48 B.
            let decomposition = [
                ("src", client),
                ("rpc", rpc),
                ("sent_at", sent),
                ("arrived", arrived),
                ("assigned", assigned),
                ("service_end", done),
                ("resp_sent", done),
                ("net_in", arrived - sent),
                ("nic_in", 24),
                ("queue", assigned - arrived),
                ("service", done - assigned),
                ("hold", 0),
                ("trace", trace),
                ("hop", 1),
            ];
            t.instant("read", "rpc", server, 0, done, decomposition);
            // 3 B + flow 7 + trace 7 = 17 B.
            let flow = [("trace", trace)];
            t.flow(
                "rpc-flow",
                "flow",
                server,
                0,
                done,
                false,
                trace ^ rpc,
                flow,
            );
            // 3 B + rpc 3, issued 5, completed 5, e2e 2, trace 7,
            // attempt 1, status 1 = 27 B.
            let completed = done + 1_000;
            let client_args = [
                ("rpc", rpc),
                ("issued", sent),
                ("completed", completed),
                ("e2e", completed - sent),
                ("trace", trace),
                ("attempt", 1),
                ("status", 0),
            ];
            t.instant("rpc-client", "client", client, 0, completed, client_args);
        }
        let (events, args) = t.with_events(|e| (e.len(), e.args_len()));
        assert_eq!((events, args), (5 * READS as usize, 26 * READS as usize));
        assert_eq!(std::mem::size_of::<(Slot, u32)>(), 16);
        assert_eq!(arena_bytes(&t), 114 * READS as usize);
    }

    /// Values at every LEB128 length boundary, and the extremes.
    const EDGES: [u64; 8] = [
        0,
        127,
        128,
        (1 << 14) - 1,
        1 << 14,
        1 << 32,
        1 << 63,
        u64::MAX,
    ];

    /// Every edge value in every position — `dur`, `pid`, `tid` and each
    /// arg, at every arity up to the cap — reads back exactly, as soon
    /// as it is recorded and again among the survivors of a ring that
    /// compacted many times.
    #[test]
    fn edge_values_round_trip_in_every_position() {
        const NAMES: [&str; MAX_ARGS] = [
            "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10", "a11", "a12", "a13",
            "a14", "a15",
        ];
        let t = Tracer::with_capacity(64);
        // (ts, dur, pid, tid) and args, as recorded.
        type Recorded = ([u64; 4], Vec<Arg>);
        let mut want: Vec<Recorded> = Vec::new();
        let check = |ev: TraceEvent<'_>, (head, args): &Recorded| {
            assert_eq!([ev.ts, ev.dur, ev.pid, ev.tid], *head);
            assert_eq!(ev.args.len(), args.len());
            assert!(ev.args.iter().eq(args.iter().copied()), "{:?}", ev.args);
        };
        for arity in 0..=MAX_ARGS {
            for (k, &edge) in EDGES.iter().enumerate() {
                for at in 0..3 + arity {
                    // `edge` at position `at`, its neighbours elsewhere.
                    let v = |p: usize| match p == at {
                        true => edge,
                        false => EDGES[(k + p + 1) % EDGES.len()],
                    };
                    let args: Vec<Arg> = (0..arity).map(|i| (NAMES[i], v(3 + i))).collect();
                    let ts = want.len() as Nanos;
                    t.span("edge", "codec", v(1), v(2), ts, v(0), &args);
                    want.push(([ts, v(0), v(1), v(2)], args));
                    t.with_events(|mut e| check(e.next_back().unwrap(), want.last().unwrap()));
                }
            }
        }
        assert!(t.dropped() >= 2 * 32, "only {} dropped", t.dropped());
        t.with_events(|events| {
            let survivors = &want[t.dropped() as usize..];
            assert_eq!(events.len(), survivors.len());
            for (ev, want) in events.zip(survivors) {
                check(ev, want);
            }
        });
    }

    fn schemas(t: &Tracer) -> usize {
        t.0.as_ref().map_or(0, |buf| buf.borrow().schemas.len())
    }

    /// Content-equal strings at different addresses are two schemas to
    /// the index and the same bytes to the export.
    #[test]
    fn schemas_are_found_by_address_and_exported_by_content() {
        let leak = |s: &str| -> &'static str { Box::leak(s.into()) };
        let (name, cat, arg) = (leak("read"), leak("rpc"), leak("queue"));
        let (one, two) = (Tracer::armed(), Tracer::armed());
        for i in 0..6u64 {
            one.instant("read", "rpc", 1, 0, i, [("queue", i)]);
            match i % 2 {
                0 => two.instant("read", "rpc", 1, 0, i, [("queue", i)]),
                _ => two.instant(name, cat, 1, 0, i, [(arg, i)]),
            }
        }
        assert_eq!((schemas(&one), schemas(&two)), (1, 2));
        assert_eq!(one.export_chrome_json(), two.export_chrome_json());
    }

    /// A wrong id in the memo or the index for an event — another
    /// schema's, or none at all — costs a scan, never a misfiled event.
    #[test]
    fn a_wrong_index_entry_never_misfiles_an_event() {
        // Statics: one address per name, wherever it is used.
        static A: &str = "a";
        static B: &str = "b";
        static C: &str = "c";
        static X: &str = "x";
        let key = |name, ph, args| {
            let head = EventHead {
                name,
                cat: A,
                ph,
                ts: 0,
                dur: 0,
                pid: 0,
                tid: 0,
            };
            Emitted {
                head,
                lead: None,
                args,
            }
            .key()
        };
        let (b_key, c_key) = (key(B, Phase::Instant, &[(X, 0)]), key(C, Phase::Span, &[]));
        let build = |plant: bool| {
            let t = Tracer::armed();
            t.span(A, A, 1, 1, 0, 10, [(X, 1)]);
            t.instant(B, A, 1, 0, 20, [(X, 2)]);
            if plant {
                // Both layers wrong at once: every memo slot names
                // schema 0, and the index misdirects both keys.
                let mut buf = t.0.as_ref().unwrap().borrow_mut();
                buf.memo.fill(0);
                buf.index.insert(b_key, 0);
                buf.index.insert(c_key, 99);
            }
            t.instant(B, A, 1, 0, 30, [(X, 3)]);
            t.span(C, A, 1, 1, 25, 10, []);
            t.instant(B, A, 1, 0, 40, [(X, 4)]);
            t
        };
        let (clean, planted) = (build(false), build(true));
        assert_eq!((schemas(&clean), schemas(&planted)), (3, 3));
        // The planted keys are the ones the record calls probe.
        let index = &clean.0.as_ref().unwrap().borrow().index;
        assert_eq!((index.get(&b_key), index.get(&c_key)), (Some(&1), Some(&2)));
        let ids = |t: &Tracer| {
            let buf = t.0.as_ref().unwrap().borrow();
            (0..buf.events.len())
                .map(|i| buf.events.get(i).0.schema)
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&planted), [0, 1, 1, 2, 1]);
        assert_eq!(ids(&clean), ids(&planted));
        assert_eq!(clean.export_chrome_json(), planted.export_chrome_json());
    }

    /// Call sites that share a name, a phase and an arity share a memo
    /// slot: taking turns in it, each files under its own schema.
    #[test]
    fn call_sites_sharing_a_memo_slot_file_under_their_own_schemas() {
        static READ: &str = "read";
        let t = Tracer::armed();
        for i in 0..6u64 {
            t.instant(READ, "rpc", 1, 0, 2 * i, [("queue", i)]);
            t.instant(READ, "client", 1, 0, 2 * i + 1, [("status", i)]);
        }
        assert_eq!(schemas(&t), 2);
        t.with_events(|events| {
            for (i, ev) in events.enumerate() {
                let (cat, arg) = if i % 2 == 0 {
                    ("rpc", "queue")
                } else {
                    ("client", "status")
                };
                assert_eq!((ev.cat, ev.schema), (cat, (i % 2) as u32));
                assert_eq!(ev.arg(arg), Some(i as u64 / 2));
            }
        });
    }

    /// Compaction evicts slots, never a schema: an event whose every
    /// earlier copy was evicted files under its first id again.
    #[test]
    fn compaction_keeps_every_schema() {
        static FIRST: &str = "first";
        let t = Tracer::with_capacity(8);
        t.instant(FIRST, "m", 1, 0, 0, [("x", 7)]);
        for ts in 1..=40 {
            t.span("later", "m", 1, 1, ts, 0, []);
        }
        assert!(t.with_events(|events| events.iter().all(|ev| ev.name == "later")));
        t.instant(FIRST, "m", 1, 0, 41, [("x", 8)]);
        assert_eq!(schemas(&t), 2);
        t.with_events(|events| {
            let last = events.iter().next_back().unwrap();
            assert_eq!((last.name, last.arg("x")), (FIRST, Some(8)));
        });
        let buf = t.0.as_ref().unwrap().borrow();
        assert_eq!(buf.events.get(buf.events.len() - 1).0.schema, 0);
    }

    /// RPC-shaped traffic (a 14-arg server instant, its flow end, a
    /// client instant, an argless worker span, now and then a counter)
    /// through a ring small enough to compact more than twice: every
    /// survivor still reads its own args, and every fold over the
    /// wrapped buffer equals the same fold over a fresh buffer holding
    /// only the survivors.
    #[test]
    fn args_follow_their_events_through_ring_compactions() {
        let t = Tracer::with_capacity(64);
        for rpc in 1..=40u64 {
            let (trace, sent) = (1_000 + rpc, rpc * 100);
            let args = [
                ("src", 9),
                ("rpc", rpc),
                ("sent_at", sent),
                ("arrived", sent + 10),
                ("assigned", sent + 15),
                ("service_end", sent + 35),
                ("resp_sent", sent + 35),
                ("net_in", 10),
                ("nic_in", 1),
                ("queue", 5),
                ("service", 20),
                ("hold", 0),
                ("trace", trace),
                ("hop", 1),
            ];
            t.span("read", "worker", 1, 1, sent + 15, 20, []);
            t.instant("read", "rpc", 1, 0, sent + 35, args);
            t.flow(
                "rpc-flow",
                "flow",
                1,
                0,
                sent + 35,
                false,
                trace ^ rpc,
                [("trace", trace)],
            );
            if rpc % 8 == 0 {
                t.counter("retry-hints", 1, sent + 35, rpc / 8);
            }
            let client = [
                ("rpc", rpc),
                ("issued", sent),
                ("completed", sent + 45),
                ("e2e", 45),
                ("trace", trace),
                ("attempt", 1),
                ("status", 0),
            ];
            t.instant("rpc-client", "client", 9, 0, sent + 45, client);
        }
        assert!(t.dropped() >= 2 * 32, "only {} dropped", t.dropped());
        t.validate().expect("a wrapped buffer stays valid");

        // Every surviving event reads its own args, not a neighbour's.
        let survivors = t.with_events(|events| {
            for ev in events {
                match (ev.ph, ev.name) {
                    (Phase::Instant, "read") => {
                        let rpc = ev.arg("rpc").expect("rpc arg");
                        assert_eq!(ev.args.len(), 14);
                        assert_eq!(ev.arg("sent_at"), Some(rpc * 100));
                        assert_eq!(ev.arg("trace"), Some(1_000 + rpc));
                        assert_eq!(ev.ts, rpc * 100 + 35);
                    }
                    (Phase::Instant, _) => {
                        assert_eq!(ev.arg("rpc").map(|rpc| rpc * 100 + 45), Some(ev.ts));
                    }
                    (Phase::FlowEnd, _) => {
                        let trace = ev.arg("trace").expect("trace arg");
                        assert_eq!(ev.arg("flow"), Some(trace ^ (trace - 1_000)));
                    }
                    (Phase::Counter, _) => assert_eq!(ev.args.len(), 1),
                    _ => assert!(ev.args.is_empty()),
                }
            }
            rebuilt(events.iter())
        });
        assert_eq!(survivors.len(), t.len());
        assert_eq!(survivors.dropped(), 0);

        assert_eq!(t.export_chrome_json(), survivors.export_chrome_json());
        for since in [0, 3_000, 3_535, 3_536, 10_000] {
            assert_eq!(
                t.export_chrome_json_since(since),
                survivors.export_chrome_json_since(since),
                "since {since}"
            );
        }
        let journeys = |t: &Tracer| journey::export_json(&t.with_events(journey::reconstruct), 0);
        assert_eq!(journeys(&t), journeys(&survivors));
        assert!(journeys(&t).contains("\"telescoped\":1"));
    }
}

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
//! Zero-allocation-on guarantee: an armed tracer copies an event's
//! fixed-size [`EventHead`] into the ring and its args — handed over as
//! a slice, normally a stack array — into the ring's args arena. No
//! event owns heap memory, so recording allocates nothing (the arena
//! grows by doubling to its steady size, a bounded ring's heads are
//! reserved up front) and dropping or compacting the buffer frees
//! nothing per event. `tests/alloc_gate.rs` pins both guarantees.

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

use rocksteady_common::json::{JsonWriter, Micros};
use rocksteady_common::{Histogram, Nanos, TailRing};

pub mod journey;

/// The lane-ID (`tid`) convention shared by every producer and consumer
/// of the trace buffer.
///
/// Spans sharing a `(pid, tid)` lane must nest properly (invariant 3 in
/// the crate docs), so each logically-concurrent strand of work gets
/// its own lane. Server actors lay their lanes out as follows; the
/// critical-path walker in `rocksteady-profiler` reverses the mapping
/// with [`worker_index`] / [`pull_partition`].
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
/// tracer's args arena at `capacity × MAX_ARGS` slots; going over it is
/// an emitter bug, caught by a debug assertion.
pub const MAX_ARGS: usize = 16;

/// The fixed-size part of a recorded event: everything but its args.
/// All names are `&'static str`, so a head is plain copyable data.
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

/// One recorded event as a reader sees it: its [`EventHead`] (reached
/// through `Deref`, so `ev.name`, `ev.ts`, … read as fields) and its
/// args, both borrowed from the trace buffer.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent<'a> {
    head: &'a EventHead,
    /// Structured integer arguments, in recording order.
    pub args: &'a [Arg],
}

impl Deref for TraceEvent<'_> {
    type Target = EventHead;

    fn deref(&self) -> &EventHead {
        self.head
    }
}

impl TraceEvent<'_> {
    /// Looks up an argument by name: a linear scan, for readers that
    /// want one or two args of an event. A fold over every event that
    /// wants many (the journey stitcher) walks `args` once instead.
    pub fn arg(&self, name: &str) -> Option<u64> {
        self.args.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The recorded events, oldest first: what [`Tracer::with_events`]
/// hands its reader. A double-ended iterator over the buffer (or over a
/// completion-time suffix of it, see [`Events::since`]) that is `Copy`,
/// so a reader can walk it as often as it likes.
#[derive(Debug, Clone, Copy)]
pub struct Events<'a> {
    ring: &'a TailRing<EventHead, Arg>,
    /// The positions in `ring` still to be yielded.
    from: usize,
    to: usize,
}

impl<'a> Events<'a> {
    fn of(ring: &'a TailRing<EventHead, Arg>) -> Self {
        let (from, to) = (0, ring.len());
        Events { ring, from, to }
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
        let first = self.ring.partition_point(|ev| ev.ts + ev.dur < since);
        Events {
            from: first.clamp(self.from, self.to),
            ..*self
        }
    }

    /// Args carried by the events from here to the buffer's end.
    fn args_len(&self) -> usize {
        self.ring.tail_len_from(self.from)
    }

    fn event(&self, i: usize) -> TraceEvent<'a> {
        let (head, args) = self.ring.get(i);
        TraceEvent { head, args }
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

/// The shared event buffer behind an enabled [`Tracer`].
#[derive(Debug, Default)]
pub struct TraceBuf {
    events: TailRing<EventHead, Arg>,
    /// Recording gate: an armed tracer can be muted for warm-up windows
    /// without giving up the buffer (benches trace only the migration
    /// window this way).
    recording: bool,
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
/// copies them into the buffer's arena. Being generic, those calls are
/// instantiated in the emitter's crate; they are `#[inline(never)]` so
/// that a site guarded by [`Tracer::is_on`] carries one call, not the
/// recording body, on its cold side.
#[derive(Debug, Clone, Default)]
pub struct Tracer(Option<Rc<RefCell<TraceBuf>>>);

impl Tracer {
    /// A permanently disabled tracer: every call is a no-op branch.
    pub fn off() -> Self {
        Tracer(None)
    }

    fn recording_into(events: TailRing<EventHead, Arg>) -> Self {
        Tracer(Some(Rc::new(RefCell::new(TraceBuf {
            events,
            recording: true,
        }))))
    }

    /// An armed tracer with a fresh buffer, recording immediately.
    pub fn armed() -> Self {
        Self::recording_into(TailRing::default())
    }

    /// An armed tracer in **ring mode**: the buffer is a
    /// [`TailRing::with_capacity`], evictions are counted in
    /// [`Tracer::dropped`]. Because the buffer is completion-ordered,
    /// dropping a prefix cannot break nesting or ordering, so
    /// [`Tracer::validate`] still passes on a wrapped buffer.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::recording_into(TailRing::with_capacity(capacity))
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

    /// Copies `head` and `lead` + `args` into the buffer.
    #[inline]
    fn record(&self, head: EventHead, lead: Option<Arg>, args: &[Arg]) {
        if let Some(buf) = &self.0 {
            let mut buf = buf.borrow_mut();
            if buf.recording {
                debug_assert!(
                    lead.iter().len() + args.len() <= MAX_ARGS,
                    "event {} carries more than {MAX_ARGS} args",
                    head.name
                );
                match lead {
                    Some(lead) => {
                        buf.events.push(head, &[lead]);
                        buf.events.extend_tail(args);
                    }
                    None => buf.events.push(head, args),
                }
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
            Some(buf) => f(Events::of(&buf.borrow().events)),
            None => f(Events::of(&TailRing::default())),
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
        for ev in events {
            let ph = match ev.ph {
                Phase::Span => "X",
                Phase::Instant => "i",
                Phase::Counter => "C",
                Phase::FlowStart => "s",
                Phase::FlowEnd => "f",
            };
            w.obj()
                .field("name", ev.name)
                .field("cat", ev.cat)
                .field("ph", ph)
                .field("ts", Micros(ev.ts));
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
                for (k, v) in ev.args {
                    w.field(k, v);
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
        let mut lanes: std::collections::HashMap<(u64, u64), Lane> =
            std::collections::HashMap::new();
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
            t.record(*ev, None, ev.args);
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
            assert_eq!(wide.args, args);
            assert_eq!(wide.arg("a15"), Some(u64::MAX - 15));
            let flow = events.iter().nth(1).unwrap();
            assert_eq!(flow.args.len(), MAX_ARGS);
            assert_eq!(flow.args[0], ("flow", 77));
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

//! The benchmark's span recorder: one span around every call into the
//! `cluster` layer, kept in memory and written as chrome-trace JSON
//! when the benchmark ends. The spans live in the benchmark's own
//! files; nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the recorder
/// was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (`load_table`, `run_until`, ...).
    pub name: &'static str,
    /// Migration phase of a `run_until` slice (`pre`/`mig`/`post`),
    /// empty otherwise.
    pub tag: &'static str,
    /// Start, host ns.
    pub start: u64,
    /// End, host ns.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which round of the run the span belongs to.
    pub round: u32,
}

impl Span {
    /// `end - start`.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Records nested spans against one monotonic clock.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the round id stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            tag: "",
            start,
            end: start,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end = self.now();
    }

    /// Times `f` as a child span of the innermost open one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Tags a closed span (the migration phase of a `run_until` slice
    /// is only known once the slice has run).
    pub fn tag(&mut self, id: usize, tag: &'static str) {
        self.spans[id].tag = tag;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): complete
    /// events, microsecond timestamps with nanosecond decimals, one
    /// `tid` per round.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"round\":{},\"tag\":\"{}\"}}}}",
                s.name,
                s.start / 1000,
                s.start % 1000,
                s.dur() / 1000,
                s.dur() % 1000,
                s.round,
                i,
                s.parent.map_or(-1, |p| p as i64),
                s.round,
                s.tag,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}

/// Share of span `id` covered by its direct children, in permille.
pub fn coverage_permille(spans: &[Span], id: usize) -> u64 {
    let own = self_times(spans)[id];
    crate::stats::permille(spans[id].dur() - own, spans[id].dur())
}

/// Summed duration of the spans of `round` named `name`.
pub fn total_ns(spans: &[Span], round: u32, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.round == round && s.name == name)
        .map(Span::dur)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            tag: "",
            start,
            end,
            parent,
            round: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("round", 0, 100, None),
            span("setup", 0, 40, Some(0)),
            span("load", 5, 35, Some(1)),
            span("run", 40, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![5, 10, 30, 55]);
        assert_eq!(coverage_permille(&spans, 0), 950);
        assert_eq!(coverage_permille(&spans, 2), 0);
        assert_eq!(total_ns(&spans, 1, "run"), 55);
        assert_eq!(total_ns(&spans, 2, "run"), 0);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut rec = Recorder::default();
        rec.set_round(3);
        let round = rec.enter("round");
        let v = rec.span("child", || 7);
        let slice = rec.enter("run_until");
        rec.exit(slice);
        rec.tag(slice, "mig");
        rec.exit(round);
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end >= spans[2].end && spans[1].start >= spans[0].start);
        assert_eq!(total_ns(spans, 3, "run_until"), spans[2].dur());
        assert_eq!(spans[2].tag, "mig");
        let json = rec.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"parent\":-1") && json.contains("\"tag\":\"mig\""));
    }
}

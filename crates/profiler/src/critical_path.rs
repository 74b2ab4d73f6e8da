//! Post-hoc critical-path analysis of a traced migration.
//!
//! Rocksteady is a pipeline: bulk pulls fetch records from the source
//! while target workers replay them, with priority pulls and control
//! phases threaded through. The question Fig 5 answers — *what bounds
//! migration completion?* — is, in trace terms: at each instant of the
//! migration interval, which in-flight component was on the blocking
//! chain? We tile `[start, finish]` of the `migration` span with a
//! priority sweep over the recorded spans (replay service dominates
//! in-flight pulls, which dominate priority pulls, which dominate
//! control phases); instants covered by nothing are dispatch queueing —
//! the target's dispatch core sat between a pull response arriving and
//! the next replay assignment. Pull-attributed time is further split
//! into NIC serialization vs. network + source gather using the
//! per-pull `resp_nic` stamps recorded from the kernel's departure
//! times. Components therefore partition the migration duration
//! exactly, and ranking them yields the blocking chain.

use rocksteady_common::json::JsonWriter;
use rocksteady_common::Nanos;
use rocksteady_trace::{lanes, Events, Phase};

/// Sweep classes, in blocking priority order (lower wins a tie).
const CLASS_REPLAY: usize = 0;
const CLASS_PULL: usize = 1;
const CLASS_PRIORITY_PULL: usize = 2;
const CLASS_PREPARE: usize = 3;
const CLASS_FLIP: usize = 4;
/// Residual: nothing in flight — dispatch queueing on the target.
const CLASS_OTHER: usize = 5;
const N_CLASSES: usize = 6;

/// One ranked component of the migration's blocking chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPathComponent {
    /// Stable component name (e.g. `replay-service`, `pull-rtt`).
    pub name: &'static str,
    /// Virtual time this component bounded completion.
    pub ns: Nanos,
    /// `ns` as a share of the migration duration, in permille.
    pub permille: u64,
}

/// Ranked decomposition of a migration's duration into the components
/// that bounded its completion. Components partition the interval, so
/// their `ns` sum to [`CriticalPathReport::total_ns`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// Trace pid (actor id) of the migration target.
    pub target_pid: u64,
    /// Migration start (virtual ns).
    pub started: Nanos,
    /// Migration completion (virtual ns).
    pub finished: Nanos,
    /// `finished - started`.
    pub total_ns: Nanos,
    /// Sum of component times (equals `total_ns`: the sweep tiles the
    /// interval).
    pub attributed_ns: Nanos,
    /// Components ranked by descending time (name breaks ties).
    pub components: Vec<CriticalPathComponent>,
}

impl CriticalPathReport {
    /// Share of the migration duration attributed to ranked components,
    /// in permille.
    pub fn coverage_permille(&self) -> u64 {
        (self.attributed_ns * 1000)
            .checked_div(self.total_ns)
            .unwrap_or(0)
    }

    /// Deterministic JSON export (see `rocksteady_common::json`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(256);
        w.obj()
            .field("target_pid", self.target_pid)
            .field("started_ns", self.started)
            .field("finished_ns", self.finished)
            .field("total_ns", self.total_ns)
            .field("attributed_ns", self.attributed_ns)
            .key("components")
            .arr();
        for c in &self.components {
            w.obj()
                .field("name", c.name)
                .field("ns", c.ns)
                .field("permille", c.permille)
                .end_obj();
        }
        w.end_arr().end_obj();
        w.finish()
    }
}

/// Walks the trace buffer and computes the blocking chain of the most
/// recent *completed* migration. Returns `None` if no migration span
/// was recorded (tracing off, or the migration was abandoned).
pub fn critical_path(events: Events<'_>) -> Option<CriticalPathReport> {
    let mig = events
        .iter()
        .rev()
        .find(|e| e.ph == Phase::Span && e.name == "migration" && e.arg("abandoned").is_none())?;
    let (pid, t0, t1) = (mig.pid, mig.ts, mig.ts + mig.dur);
    if t1 <= t0 {
        return None;
    }

    // Clip every relevant span on the target actor to [t0, t1]. Lane
    // conventions come from `rocksteady_trace::lanes`, shared with the
    // server actor that recorded them.
    let mut intervals: Vec<(usize, Nanos, Nanos)> = Vec::new();
    let mut pull_dur_total: Nanos = 0;
    let mut pull_nic_total: Nanos = 0;
    for ev in events {
        if ev.pid != pid || ev.ph != Phase::Span {
            continue;
        }
        let class = match ev.name {
            "mig:replay" if lanes::worker_index(ev.tid).is_some() => CLASS_REPLAY,
            "mig:pull" if lanes::pull_partition(ev.tid).is_some() => {
                pull_dur_total += ev.dur;
                pull_nic_total += ev.arg("resp_nic").unwrap_or(0);
                CLASS_PULL
            }
            "mig:priority-pull" if ev.tid == lanes::PRIORITY_PULL => CLASS_PRIORITY_PULL,
            "mig:prepare" => CLASS_PREPARE,
            "mig:ownership-flip" => CLASS_FLIP,
            _ => continue,
        };
        let (s, e) = (ev.ts.max(t0), (ev.ts + ev.dur).min(t1));
        if e > s {
            intervals.push((class, s, e));
        }
    }

    // Priority sweep over elementary intervals between span boundaries.
    let mut bounds: Vec<Nanos> = Vec::with_capacity(2 * intervals.len() + 2);
    bounds.push(t0);
    bounds.push(t1);
    for (_, s, e) in &intervals {
        bounds.push(*s);
        bounds.push(*e);
    }
    bounds.sort_unstable();
    bounds.dedup();
    let mut totals = [0u64; N_CLASSES];
    for w in bounds.windows(2) {
        let (s, e) = (w[0], w[1]);
        let mut best = CLASS_OTHER;
        for (class, is, ie) in &intervals {
            if *is <= s && *ie >= e && *class < best {
                best = *class;
            }
        }
        totals[best] += e - s;
    }

    // Split pull-bound time into NIC serialization vs. the rest of the
    // RTT (network latency + source-side gather), proportionally to the
    // per-pull response serialization stamps.
    let pull = totals[CLASS_PULL];
    let pull_nic = (pull * pull_nic_total)
        .checked_div(pull_dur_total)
        .unwrap_or(0);
    let pull_rtt = pull - pull_nic;

    let raw = [
        ("replay-service", totals[CLASS_REPLAY]),
        ("pull-rtt", pull_rtt),
        ("pull-nic-serialization", pull_nic),
        ("priority-pull-rtt", totals[CLASS_PRIORITY_PULL]),
        ("prepare-control", totals[CLASS_PREPARE]),
        ("ownership-flip", totals[CLASS_FLIP]),
        ("dispatch-queueing", totals[CLASS_OTHER]),
    ];
    let total = t1 - t0;
    let mut components: Vec<CriticalPathComponent> = raw
        .iter()
        .filter(|(_, ns)| *ns > 0)
        .map(|(name, ns)| CriticalPathComponent {
            name,
            ns: *ns,
            permille: ns * 1000 / total,
        })
        .collect();
    components.sort_by(|a, b| b.ns.cmp(&a.ns).then(a.name.cmp(b.name)));
    let attributed = components.iter().map(|c| c.ns).sum();

    Some(CriticalPathReport {
        target_pid: pid,
        started: t0,
        finished: t1,
        total_ns: total,
        attributed_ns: attributed,
        components,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_trace::{Arg, Tracer};

    fn span(t: &Tracer, name: &'static str, tid: u64, ts: Nanos, dur: Nanos, args: &[Arg]) {
        t.span(name, "test", 2, tid, ts, dur, args);
    }

    #[test]
    fn sweep_tiles_the_migration_interval() {
        let t = Tracer::armed();
        span(&t, "mig:prepare", lanes::MIGRATION, 0, 10, &[]);
        span(&t, "mig:pull", lanes::pull(0), 10, 40, &[]);
        span(&t, "mig:replay", lanes::worker(1), 30, 50, &[]);
        span(&t, "mig:pull", lanes::pull(1), 80, 10, &[]);
        span(&t, "migration", lanes::MIGRATION, 0, 100, &[]);
        let report = t.with_events(critical_path).expect("migration present");
        assert_eq!(report.total_ns, 100);
        assert_eq!(report.attributed_ns, 100);
        assert_eq!(report.coverage_permille(), 1000);
        let ns = |name: &str| {
            report
                .components
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.ns)
        };
        // Replay wins [30, 80); pulls win [10, 30) and [80, 90);
        // prepare [0, 10); the tail [90, 100) is uncovered.
        assert_eq!(ns("replay-service"), 50);
        assert_eq!(ns("pull-rtt") + ns("pull-nic-serialization"), 30);
        assert_eq!(ns("prepare-control"), 10);
        assert_eq!(ns("dispatch-queueing"), 10);
        // Ranked descending.
        assert_eq!(report.components[0].name, "replay-service");
        // Deterministic JSON round-trips the ranking.
        let json = report.to_json();
        assert!(json.starts_with("{\"target_pid\":2,"), "{json}");
        assert!(json.contains("\"attributed_ns\":100"), "{json}");
    }

    #[test]
    fn nic_split_uses_departure_stamps() {
        let t = Tracer::armed();
        span(&t, "mig:pull", lanes::pull(0), 0, 100, &[("resp_nic", 25)]);
        span(&t, "migration", lanes::MIGRATION, 0, 100, &[]);
        let report = t.with_events(critical_path).unwrap();
        let ns = |name: &str| {
            report
                .components
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.ns)
        };
        assert_eq!(ns("pull-nic-serialization"), 25);
        assert_eq!(ns("pull-rtt"), 75);
    }

    #[test]
    fn abandoned_migrations_are_ignored() {
        let t = Tracer::armed();
        assert!(t.with_events(critical_path).is_none());
        span(
            &t,
            "migration",
            lanes::MIGRATION,
            0,
            50,
            &[("abandoned", 1)],
        );
        assert!(t.with_events(critical_path).is_none());
    }
}

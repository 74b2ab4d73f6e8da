//! Incident bundles: the flight recorder's forensic export.
//!
//! When a watchdog detector fires, the recorder freezes a correlated
//! slice of every observability layer into one deterministic JSON
//! document (schema `rocksteady-incident-v1`): the trigger and every
//! firing detector's reading, the last-N-ms trace ring, a metrics
//! delta-scrape, the per-core profiler ledger, the audit tail, and the
//! relevant causal explain (`explain_migration` for progress anomalies,
//! `explain_slo_breach` for latency ones). Same-seed runs export
//! byte-identical bundles.

use rocksteady_audit::AuditSink;
use rocksteady_common::json::{JsonWriter, Raw};
use rocksteady_common::Nanos;
use rocksteady_flightrec::{
    DetectorReading, AUDIT_TAIL_EVENTS, BUNDLE_JOURNEYS, BUNDLE_TRACE_WINDOW_NS,
};
use rocksteady_metrics::{deltas_to_json, CounterDelta};
use rocksteady_profiler::{core_label, Activity, Profiler};
use rocksteady_trace::{journey, Tracer};

/// Schema tag stamped into every bundle.
pub const INCIDENT_SCHEMA: &str = "rocksteady-incident-v1";

/// One exported incident: when it fired, which detector triggered it,
/// and the full forensic bundle.
#[derive(Debug, Clone)]
pub struct Incident {
    /// Virtual time of the triggering watchdog tick.
    pub at: Nanos,
    /// Name of the triggering detector (first firing detector out of
    /// cooldown, in catalog order).
    pub trigger: &'static str,
    /// The `rocksteady-incident-v1` JSON document.
    pub bundle: String,
}

/// Everything the bundle builder freezes, borrowed from the watchdog's
/// live handles at trigger time.
pub struct BundleInputs<'a> {
    /// Trigger tick time.
    pub at: Nanos,
    /// Name of the triggering detector.
    pub trigger: &'static str,
    /// Every firing detector's reading this tick, catalog order.
    pub readings: &'a [DetectorReading],
    /// Fast/slow SLO burn rates at trigger time, permille.
    pub burn: (u64, u64),
    /// The shared trace buffer.
    pub trace: &'a Tracer,
    /// The most recent metrics delta-scrape pass.
    pub metrics: &'a [CounterDelta],
    /// The shared per-core activity ledger.
    pub profiler: &'a Profiler,
    /// The shared audit stream.
    pub audit: &'a AuditSink,
    /// The relevant explain output (`explain_migration` /
    /// `explain_slo_breach`), already-serialized JSON, if available.
    pub explain: Option<String>,
}

/// Renders one incident bundle. Deterministic: virtual clock only,
/// written through `rocksteady_common::json`.
pub fn build_bundle(inp: &BundleInputs<'_>) -> String {
    let mut w = JsonWriter::with_capacity(8192);
    w.obj()
        .field("schema", INCIDENT_SCHEMA)
        .field("at", inp.at)
        .field("trigger", inp.trigger)
        .key("readings")
        .arr();
    for r in inp.readings {
        w.value(Raw(&r.to_json()));
    }
    w.end_arr()
        .key("burn")
        .obj()
        .field("fast_permille", inp.burn.0)
        .field("slow_permille", inp.burn.1)
        .end_obj();

    // Trace slice: the last `BUNDLE_TRACE_WINDOW_NS` of completed
    // events, plus ring drop accounting.
    let since = inp.at.saturating_sub(BUNDLE_TRACE_WINDOW_NS);
    w.key("trace")
        .obj()
        .field("window_ns", BUNDLE_TRACE_WINDOW_NS)
        .field("dropped", inp.trace.dropped())
        .field("chrome", Raw(&inp.trace.export_chrome_json_since(since)))
        .end_obj();

    // Metrics: the watchdog's own per-interval delta scrape.
    w.field("metrics", Raw(&deltas_to_json(inp.metrics)));

    // Profiler ledger slice: per-core cumulative activity buckets.
    w.key("profiler").arr();
    for core in inp.profiler.cores() {
        w.obj()
            .field("server", core.server)
            .field("core", core_label(core.core))
            .field("wall", core.wall)
            .field("overcommit_ns", core.overcommit_ns)
            .key("buckets")
            .obj();
        for (act, ns) in Activity::ALL.iter().zip(core.buckets) {
            w.field(act.label(), ns);
        }
        w.end_obj().end_obj();
    }
    w.end_arr();

    // Audit tail: the trailing events of the (possibly ring-bounded)
    // audit stream.
    w.key("audit")
        .obj()
        .field("dropped", inp.audit.dropped())
        .key("tail")
        .arr();
    inp.audit.with_events(|events| {
        let start = events.len().saturating_sub(AUDIT_TAIL_EVENTS);
        for ev in &events[start..] {
            w.obj()
                .field("seq", ev.seq)
                .field("at", ev.at)
                .field("event", ev.kind.label())
                .end_obj();
        }
    });
    w.end_arr().end_obj();

    // The trigger window's slowest request journeys: the cross-node
    // causal chains of the requests this incident actually hurt. The
    // trace ring is completion-ordered, so the window is a suffix.
    let journeys_json = inp.trace.with_events(|events| {
        let all = journey::reconstruct(events.since(since));
        journey::export_json(
            &journey::slowest(&all, BUNDLE_JOURNEYS),
            inp.trace.dropped(),
        )
    });
    w.field("journeys", Raw(&journeys_json));

    // Causal explain, when the audit layer could produce one (`null`
    // otherwise). The explain output is itself JSON.
    let explain = inp.explain.as_deref().unwrap_or("null");
    w.field("explain", Raw(explain)).end_obj();
    w.finish()
}

/// Renders the incident log as a JSON array of bundles (empty array
/// when nothing fired).
pub fn incidents_to_json(incidents: &[Incident]) -> String {
    let mut w = JsonWriter::new();
    w.arr();
    for inc in incidents {
        w.value(Raw(&inc.bundle));
    }
    w.end_arr();
    w.finish()
}

/// A one-line human summary of an incident (for example binaries and
/// logs — the bundle itself stays machine-readable).
pub fn summarize(inc: &Incident) -> String {
    format!("incident at {}ns: {}", inc.at, inc.trigger)
}

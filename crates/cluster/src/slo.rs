//! Live SLO monitoring under virtual time.
//!
//! Rocksteady's whole premise is migrating *without* violating tail
//! latency SLAs (the paper targets 99.9th-percentile reads). The
//! monitor windows every client's cumulative read-latency histogram
//! (family `client_read_latency_ns`) once per interval, takes the
//! in-window p50/p99.9 via `delta_since`, and compares the tail against
//! the configured SLA. It publishes `slo_*` gauges/counters back into
//! the same registry and keeps a queryable [`SloReport`] so the
//! migration manager (or an experiment script) can ask "am I currently
//! hurting clients?" and see the remaining headroom.
//!
//! The actor is always installed with a fixed timer cadence; the SLA
//! value only changes what is *recorded*, never the event schedule, so
//! arming it cannot perturb a deterministic run.
//!
//! The monitor answers *that* the tail breached; its post-hoc companion
//! [`Cluster::tail_blame_chains`](crate::Cluster::tail_blame_chains)
//! answers *why*: the slowest journeys over the same SLA, each hop with
//! its net/queue/service/hold decomposition.

use std::cell::RefCell;
use std::rc::Rc;

use rocksteady_common::{Histogram, Nanos};
use rocksteady_metrics::timeline::delta_histogram;
use rocksteady_metrics::{Counter, Gauge, Registry};
use rocksteady_proto::Envelope;
use rocksteady_simnet::{Actor, Ctx, Event};

/// The latest SLO window, queryable between simulation steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloReport {
    /// Window end (virtual time of the evaluation).
    pub at: Nanos,
    /// Reads completing in the window.
    pub window_reads: u64,
    /// Median read latency over the window (0 when the window is empty).
    pub p50: Nanos,
    /// 99.9th-percentile read latency over the window (0 when empty).
    pub p999: Nanos,
    /// The configured SLA, if any.
    pub sla: Option<Nanos>,
    /// Intervals so far whose p99.9 exceeded the SLA. Empty windows
    /// never count: no reads completed, so no client saw a violation.
    pub breach_intervals: u64,
    /// Fast-window burn rate: permille of the non-empty intervals in
    /// the last 1 s of virtual time that breached the SLA (0 when no
    /// non-empty interval fell in the window).
    pub burn_fast_permille: u64,
    /// Slow-window burn rate: same, over the last 10 s.
    pub burn_slow_permille: u64,
}

impl SloReport {
    /// `sla - p999` for the last non-empty window: positive slack when
    /// meeting the SLA, negative depth when violating it. `None`
    /// without a configured SLA or before the first non-empty window.
    pub fn headroom(&self) -> Option<i64> {
        let sla = self.sla?;
        if self.window_reads == 0 {
            return None;
        }
        Some(sla as i64 - self.p999 as i64)
    }

    /// Whether the last non-empty window violated the SLA.
    pub fn breached(&self) -> bool {
        matches!(self.headroom(), Some(h) if h < 0)
    }
}

/// Shared handle to the latest [`SloReport`].
pub type SloHandle = Rc<RefCell<SloReport>>;

/// The monitor actor. One per cluster, scraping the shared registry.
pub struct SloMonitor {
    interval: Nanos,
    registry: Registry,
    sla: Option<Nanos>,
    /// Cumulative merged read histogram at the previous tick.
    prev: Histogram,
    out: SloHandle,
    // Published instruments (all unlabeled; one monitor per cluster).
    g_p50: Gauge,
    g_p999: Gauge,
    g_headroom: Gauge,
    c_breaches: Counter,
    g_burn_fast: Gauge,
    g_burn_slow: Gauge,
    /// Per-interval outcomes, most recent last, trimmed to the slow
    /// window: `None` for an empty interval, `Some(breached)` otherwise.
    history: std::collections::VecDeque<Option<bool>>,
}

impl SloMonitor {
    /// Creates a monitor evaluating every `interval` of virtual time
    /// against `sla` (99.9th-percentile read latency), publishing into
    /// `registry` and `out`.
    pub fn new(interval: Nanos, registry: Registry, sla: Option<Nanos>, out: SloHandle) -> Self {
        let no = [];
        let g_p50 = registry.gauge(
            "slo_read_p50_ns",
            "windowed median read latency (-1 before the first non-empty window)",
            &no,
        );
        let g_p999 = registry.gauge(
            "slo_read_p999_ns",
            "windowed p99.9 read latency (-1 before the first non-empty window)",
            &no,
        );
        let g_headroom = registry.gauge(
            "slo_read_headroom_ns",
            "sla minus windowed p99.9 (negative while violating)",
            &no,
        );
        // Published once, here; the registry keeps the cell.
        registry
            .gauge(
                "slo_read_sla_ns",
                "configured p99.9 read SLA (-1 when unset)",
                &no,
            )
            .set(sla.map_or(-1, |s| s as i64));
        let c_breaches = registry.counter(
            "slo_breach_intervals_total",
            "intervals whose windowed p99.9 exceeded the SLA",
            &no,
        );
        let g_burn_fast = registry.gauge(
            "slo_burn_rate_fast",
            "permille of non-empty intervals in the last 1s whose p99.9 breached the SLA",
            &no,
        );
        let g_burn_slow = registry.gauge(
            "slo_burn_rate_slow",
            "permille of non-empty intervals in the last 10s whose p99.9 breached the SLA",
            &no,
        );
        g_p50.set(-1);
        g_p999.set(-1);
        out.borrow_mut().sla = sla;
        SloMonitor {
            interval,
            registry,
            sla,
            prev: Histogram::new(),
            out,
            g_p50,
            g_p999,
            g_headroom,
            c_breaches,
            g_burn_fast,
            g_burn_slow,
            history: std::collections::VecDeque::new(),
        }
    }

    /// Intervals covering `window_ns` of virtual time (at least one).
    fn window_intervals(&self, window_ns: Nanos) -> usize {
        (window_ns / self.interval.max(1)).max(1) as usize
    }

    /// Burn rate over the trailing `n` intervals of `self.history`:
    /// breached per non-empty, in permille. Empty intervals carry no
    /// client observations so they dilute neither window.
    fn burn_permille(&self, n: usize) -> u64 {
        let tail = self.history.len().saturating_sub(n);
        let mut breached = 0u64;
        let mut non_empty = 0u64;
        for b in self.history.iter().skip(tail).flatten() {
            non_empty += 1;
            if *b {
                breached += 1;
            }
        }
        (breached * 1000).checked_div(non_empty).unwrap_or(0)
    }

    /// Pushes this interval's outcome and republishes both burn gauges.
    fn record_burn(&mut self, outcome: Option<bool>) -> (u64, u64) {
        let slow_n = self.window_intervals(10 * rocksteady_common::SECOND);
        self.history.push_back(outcome);
        while self.history.len() > slow_n {
            self.history.pop_front();
        }
        let fast = self.burn_permille(self.window_intervals(rocksteady_common::SECOND));
        let slow = self.burn_permille(slow_n);
        self.g_burn_fast.set(fast as i64);
        self.g_burn_slow.set(slow as i64);
        (fast, slow)
    }

    fn evaluate(&mut self, now: Nanos) {
        let mut merged = Histogram::new();
        for (_, h) in self.registry.histograms_of("client_read_latency_ns") {
            h.with(|hist| merged.merge(hist));
        }
        let window = delta_histogram(&merged, &self.prev);
        self.prev = merged;

        let mut report = self.out.borrow_mut();
        report.at = now;
        report.window_reads = window.count();
        if window.count() == 0 {
            // Nothing completed: leave the last percentiles in place and
            // never count a breach (no client observed anything).
            report.p50 = 0;
            report.p999 = 0;
            drop(report);
            let (fast, slow) = self.record_burn(None);
            let mut report = self.out.borrow_mut();
            report.burn_fast_permille = fast;
            report.burn_slow_permille = slow;
            return;
        }
        report.p50 = window.percentile(0.5);
        report.p999 = window.percentile(0.999);
        self.g_p50.set(report.p50 as i64);
        self.g_p999.set(report.p999 as i64);
        let mut breached = false;
        if let Some(sla) = self.sla {
            let headroom = sla as i64 - report.p999 as i64;
            self.g_headroom.set(headroom);
            if headroom < 0 {
                report.breach_intervals = self.c_breaches.inc();
                breached = true;
            }
        }
        drop(report);
        let (fast, slow) = self.record_burn(Some(breached));
        let mut report = self.out.borrow_mut();
        report.burn_fast_permille = fast;
        report.burn_slow_permille = slow;
    }
}

impl Actor<Envelope> for SloMonitor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.timer(self.interval, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        if let Event::Timer { .. } = event {
            self.evaluate(ctx.now());
            ctx.timer(self.interval, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::MILLISECOND;

    fn monitor(reg: &Registry, sla: Option<Nanos>) -> (SloMonitor, SloHandle) {
        let out: SloHandle = Rc::new(RefCell::new(SloReport::default()));
        let m = SloMonitor::new(MILLISECOND, reg.clone(), sla, Rc::clone(&out));
        (m, out)
    }

    #[test]
    fn windows_merge_all_clients_and_count_breaches() {
        let reg = Registry::new();
        let h0 = reg.histogram("client_read_latency_ns", "r", &[("client", "0".into())]);
        let h1 = reg.histogram("client_read_latency_ns", "r", &[("client", "1".into())]);
        let (mut m, out) = monitor(&reg, Some(50_000));

        // Window 1: both clients fast — no breach, positive headroom.
        for _ in 0..100 {
            h0.record(5_000);
            h1.record(6_000);
        }
        m.evaluate(MILLISECOND);
        {
            let r = out.borrow();
            assert_eq!(r.window_reads, 200, "merges every client histogram");
            assert_eq!(r.breach_intervals, 0);
            assert!(!r.breached());
            assert!(r.headroom().unwrap() > 0);
        }

        // Window 2: one client's tail blows through the SLA. The window
        // must contain only new observations (cumulative differencing).
        for _ in 0..100 {
            h0.record(500_000);
        }
        m.evaluate(2 * MILLISECOND);
        {
            let r = out.borrow();
            assert_eq!(r.window_reads, 100, "window is the delta, not the total");
            assert_eq!(r.breach_intervals, 1);
            assert!(r.breached());
            assert!(r.headroom().unwrap() < 0);
        }

        // Window 3: empty — percentiles zero, no breach counted, and
        // headroom is unknowable (no client observed anything).
        m.evaluate(3 * MILLISECOND);
        let r = out.borrow();
        assert_eq!(r.window_reads, 0);
        assert_eq!(r.p999, 0);
        assert_eq!(r.breach_intervals, 1, "empty window counted a breach");
        assert_eq!(r.headroom(), None);
    }

    #[test]
    fn burn_rates_window_breach_fractions() {
        let reg = Registry::new();
        let h = reg.histogram("client_read_latency_ns", "r", &[("client", "0".into())]);
        // 1 ms interval → fast window = 1000 intervals, slow = 10000.
        let (mut m, out) = monitor(&reg, Some(50_000));

        // 10 breaching intervals out of 10 non-empty → 1000 permille.
        for i in 1..=10u64 {
            for _ in 0..50 {
                h.record(500_000);
            }
            m.evaluate(i * MILLISECOND);
        }
        {
            let r = out.borrow();
            assert_eq!(r.burn_fast_permille, 1000);
            assert_eq!(r.burn_slow_permille, 1000);
        }

        // 10 clean intervals → half the non-empty window breached.
        for i in 11..=20u64 {
            for _ in 0..50 {
                h.record(5_000);
            }
            m.evaluate(i * MILLISECOND);
        }
        {
            let r = out.borrow();
            assert_eq!(r.burn_fast_permille, 500);
            assert_eq!(r.burn_slow_permille, 500);
        }

        // Empty intervals dilute neither window.
        for i in 21..=30u64 {
            m.evaluate(i * MILLISECOND);
        }
        let r = out.borrow();
        assert_eq!(r.burn_fast_permille, 500);
        // The gauges track the report.
        let snap = reg.snapshot(30 * MILLISECOND);
        let json = snap.to_json();
        assert!(json.contains("\"name\":\"slo_burn_rate_fast\""), "{json}");
        assert!(json.contains("\"name\":\"slo_burn_rate_slow\""), "{json}");
    }

    #[test]
    fn fast_window_recovers_before_slow_window() {
        let reg = Registry::new();
        let h = reg.histogram("client_read_latency_ns", "r", &[("client", "0".into())]);
        // 100 ms interval → fast window = 10 intervals, slow = 100.
        let out: SloHandle = Rc::new(RefCell::new(SloReport::default()));
        let mut m = SloMonitor::new(
            100 * MILLISECOND,
            reg.clone(),
            Some(50_000),
            Rc::clone(&out),
        );
        // 5 breaching intervals, then 10 clean ones: the fast window
        // (last 10) ends mostly clean while the slow window remembers.
        for i in 1..=15u64 {
            let lat = if i <= 5 { 500_000 } else { 5_000 };
            for _ in 0..50 {
                h.record(lat);
            }
            m.evaluate(i * 100 * MILLISECOND);
        }
        let r = out.borrow();
        assert_eq!(r.burn_fast_permille, 0, "fast window is all clean");
        assert_eq!(r.burn_slow_permille, 333, "slow window remembers 5/15");
    }

    #[test]
    fn without_sla_the_monitor_still_reports_percentiles() {
        let reg = Registry::new();
        let h = reg.histogram("client_read_latency_ns", "r", &[("client", "0".into())]);
        let (mut m, out) = monitor(&reg, None);
        for _ in 0..100 {
            h.record(1_000_000);
        }
        m.evaluate(MILLISECOND);
        let r = out.borrow();
        assert!(r.p999 >= 900_000);
        assert_eq!(r.breach_intervals, 0);
        assert_eq!(r.headroom(), None, "no SLA, no headroom");
        assert!(!r.breached());
    }
}

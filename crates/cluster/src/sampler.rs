//! Periodic utilization and migration-progress sampling.
//!
//! Figures 5, 9, 11, 12 and 14 are time series of per-server quantities:
//! dispatch utilization, active worker cores, and migration MB/s. The
//! sampler is a generic scraper over the metrics [`Registry`]: once per
//! interval of virtual time it differences every `node_*` counter
//! (through [`DeltaScraper`], which tolerates counter resets and picks
//! up servers registered mid-run) and derives the per-server
//! [`UtilPoint`] series the figures plot. When metrics capture is armed
//! it also appends one full registry snapshot per interval to a shared
//! buffer for the JSON/Prometheus export path.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use rocksteady_common::{Nanos, ServerId};
use rocksteady_metrics::{DeltaScraper, Registry, Snapshot};
use rocksteady_proto::Envelope;
use rocksteady_server::stats::{DISPATCH_OVERCOMMIT_FAMILY, DISPATCH_OVERCOMMIT_HELP};
use rocksteady_simnet::{Actor, Ctx, Event};

/// One sample of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilPoint {
    /// Interval start (virtual time).
    pub at: Nanos,
    /// Dispatch-core utilization in `[0, 1]`.
    pub dispatch: f64,
    /// Mean active worker cores over the interval (0 ..= W).
    pub worker_cores: f64,
    /// Record bytes received by migration during the interval.
    pub bytes_in: u64,
    /// Record bytes sent by migration during the interval.
    pub bytes_out: u64,
}

/// Per-server series of samples.
#[derive(Debug, Default)]
pub struct UtilSeries {
    /// Samples by server, in time order.
    pub by_server: HashMap<ServerId, Vec<UtilPoint>>,
    /// Sampling interval.
    pub interval: Nanos,
    /// Windows in which a server's dispatch busy-time delta exceeded
    /// the interval and was clamped: `(server, window start, excess
    /// ns)`, in sample order (servers sorted within a tick).
    pub overcommit: Vec<(ServerId, Nanos, Nanos)>,
}

impl UtilSeries {
    /// Mean of `f` over `server`'s samples that start in `[from, to)`
    /// (0.0 when there are none).
    pub fn mean(
        &self,
        server: ServerId,
        from: Nanos,
        to: Nanos,
        f: impl Fn(&UtilPoint) -> f64,
    ) -> f64 {
        let points = self.by_server.get(&server).into_iter().flatten();
        let (sum, n) = points
            .filter(|p| p.at >= from && p.at < to)
            .fold((0.0, 0u32), |(sum, n), p| (sum + f(p), n + 1));
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }

    /// Warnings about anomalies in the collected series — one per
    /// clamped (overcommitted) dispatch window. Empty means clean;
    /// non-empty means dispatch utilization of those windows reads 1.0
    /// but the core was double-charged (see
    /// `node_dispatch_overcommit_total` for the same signal as a
    /// counter).
    pub fn validate(&self) -> Vec<String> {
        self.overcommit
            .iter()
            .map(|(server, at, excess)| {
                format!(
                    "dispatch overcommitted by {excess} ns on server {}                      in the window starting at {at} (clamped to 1.0)",
                    server.0
                )
            })
            .collect()
    }
}

/// Shared handle to the collected series.
pub type UtilSeriesHandle = Rc<RefCell<UtilSeries>>;

/// Shared buffer of periodic full-registry snapshots (empty unless the
/// cluster was built with `metrics: true`).
pub type SnapshotLogHandle = Rc<RefCell<Vec<Snapshot>>>;

/// The sampler actor: a registry scraper on a fixed virtual-time cadence.
pub struct SamplerActor {
    interval: Nanos,
    registry: Registry,
    scraper: DeltaScraper,
    /// Whether to append full snapshots to `snapshots` each tick. The
    /// timer cadence is identical either way, so arming capture cannot
    /// perturb the event schedule.
    capture: bool,
    out: UtilSeriesHandle,
    snapshots: SnapshotLogHandle,
}

impl SamplerActor {
    /// Creates a sampler scraping `registry` every `interval` of
    /// virtual time, deriving utilization into `out` and (when
    /// `capture`) appending registry snapshots to `snapshots`.
    pub fn new(
        interval: Nanos,
        registry: Registry,
        capture: bool,
        out: UtilSeriesHandle,
        snapshots: SnapshotLogHandle,
    ) -> Self {
        out.borrow_mut().interval = interval;
        SamplerActor {
            interval,
            registry,
            scraper: DeltaScraper::default(),
            capture,
            out,
            snapshots,
        }
    }

    fn sample(&mut self, now: Nanos) {
        let interval_start = now.saturating_sub(self.interval);
        #[derive(Default, Clone, Copy)]
        struct Win {
            dispatch: u64,
            worker: u64,
            bytes_in: u64,
            bytes_out: u64,
        }
        // Scraped in deterministic (name, labels) order; collect into a
        // small sorted vec rather than a hash map so the tick stays
        // allocation-light (one vec of a handful of servers).
        let mut windows: Vec<(ServerId, Win)> = Vec::new();
        self.scraper
            .scrape_with(&self.registry, |name, labels, _total, delta| {
                let server = labels
                    .iter()
                    .find(|(k, _)| *k == "server")
                    .and_then(|(_, v)| v.parse().ok())
                    .map(ServerId);
                let Some(server) = server else { return };
                let w = match windows.binary_search_by_key(&server.0, |(s, _)| s.0) {
                    Ok(i) => &mut windows[i].1,
                    Err(i) => {
                        windows.insert(i, (server, Win::default()));
                        &mut windows[i].1
                    }
                };
                match name {
                    "node_dispatch_busy_ns" => w.dispatch = delta,
                    "node_worker_busy_ns" => w.worker = delta,
                    "node_bytes_migrated_in" => w.bytes_in = delta,
                    "node_bytes_migrated_out" => w.bytes_out = delta,
                    _ => {}
                }
            });
        let dt = self.interval as f64;
        let mut out = self.out.borrow_mut();
        for (server, w) in windows {
            // A dispatch core is one core: busy time can exceed the
            // interval both benignly (a charge posted at the tick
            // boundary lands in the next window) and structurally (the
            // model double-books the core). Clamp to [0, 1] for the
            // figures, but surface every clamped window as a counter
            // bump and a validate() warning instead of hiding it.
            let dispatch = if w.dispatch > self.interval {
                self.registry
                    .counter(
                        DISPATCH_OVERCOMMIT_FAMILY,
                        DISPATCH_OVERCOMMIT_HELP,
                        &[("server", server.0.to_string())],
                    )
                    .inc();
                out.overcommit
                    .push((server, interval_start, w.dispatch - self.interval));
                1.0
            } else {
                w.dispatch as f64 / dt
            };
            out.by_server.entry(server).or_default().push(UtilPoint {
                at: interval_start,
                dispatch,
                worker_cores: w.worker as f64 / dt,
                bytes_in: w.bytes_in,
                bytes_out: w.bytes_out,
            });
        }
        if self.capture {
            self.snapshots
                .borrow_mut()
                .push(self.registry.snapshot(now));
        }
    }
}

impl Actor<Envelope> for SamplerActor {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, Envelope>) {
        ctx.timer(self.interval, 0);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, Envelope>, event: Event<Envelope>) {
        if let Event::Timer { .. } = event {
            self.sample(ctx.now());
            ctx.timer(self.interval, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::MILLISECOND;
    use rocksteady_server::stats::registered_stats;

    fn sampler(
        reg: &Registry,
        capture: bool,
    ) -> (SamplerActor, UtilSeriesHandle, SnapshotLogHandle) {
        let out: UtilSeriesHandle = Rc::new(RefCell::new(UtilSeries::default()));
        let snaps: SnapshotLogHandle = Rc::new(RefCell::new(Vec::new()));
        let s = SamplerActor::new(
            MILLISECOND,
            reg.clone(),
            capture,
            Rc::clone(&out),
            Rc::clone(&snaps),
        );
        (s, out, snaps)
    }

    /// Intervals with no activity still produce a point (with zero
    /// deltas) — the figures rely on a gap-free time axis.
    #[test]
    fn empty_intervals_sample_as_zero_points() {
        let reg = Registry::new();
        let stats = registered_stats(&reg, ServerId(0));
        let (mut s, out, _) = sampler(&reg, false);
        stats.dispatch_busy_ns.add(MILLISECOND / 2);
        s.sample(MILLISECOND);
        s.sample(2 * MILLISECOND); // nothing happened in this window
        let util = out.borrow();
        let points = &util.by_server[&ServerId(0)];
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].at, 0, "points are stamped at interval start");
        assert!((points[0].dispatch - 0.5).abs() < 1e-9);
        assert_eq!(points[1].at, MILLISECOND);
        assert_eq!(points[1].dispatch, 0.0);
        assert_eq!(points[1].bytes_in, 0);
        assert_eq!(points[1].bytes_out, 0);
    }

    /// A server registered after sampling began (a node joining
    /// mid-run) appears on its next scrape, with its full total as the
    /// first delta — no underflow against a missing baseline.
    #[test]
    fn server_joining_mid_run_is_picked_up() {
        let reg = Registry::new();
        let _s0 = registered_stats(&reg, ServerId(0));
        let (mut s, out, _) = sampler(&reg, false);
        s.sample(MILLISECOND);
        assert!(!out.borrow().by_server.contains_key(&ServerId(7)));

        let late = registered_stats(&reg, ServerId(7));
        late.bytes_migrated_in.add(4_096);
        s.sample(2 * MILLISECOND);
        let util = out.borrow();
        let points = &util.by_server[&ServerId(7)];
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].bytes_in, 4_096);
    }

    /// Dispatch is one core: a busy charge posted at a tick boundary can
    /// land in the next window, so the ratio is clamped to [0, 1] — but
    /// no longer silently: the clamp bumps the overcommit counter and
    /// leaves a validate() warning. Worker cores are deliberately not
    /// clamped (W cores).
    #[test]
    fn dispatch_utilization_is_clamped_to_unit_and_counted() {
        let reg = Registry::new();
        let stats = registered_stats(&reg, ServerId(0));
        let (mut s, out, _) = sampler(&reg, false);
        stats.dispatch_busy_ns.add(3 * MILLISECOND);
        stats.worker_busy_ns.add(4 * MILLISECOND);
        s.sample(MILLISECOND);
        let util = out.borrow();
        let p = util.by_server[&ServerId(0)][0];
        assert_eq!(p.dispatch, 1.0, "dispatch clamped to one core");
        assert!((p.worker_cores - 4.0).abs() < 1e-9);
        // The clamp is visible, not silent.
        assert_eq!(stats.dispatch_overcommit.get(), 1);
        assert_eq!(util.overcommit, vec![(ServerId(0), 0, 2 * MILLISECOND)]);
        let warnings = util.validate();
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("overcommitted by"), "{}", warnings[0]);
    }

    /// An in-bounds window neither counts nor warns.
    #[test]
    fn unclamped_windows_leave_no_overcommit_trail() {
        let reg = Registry::new();
        let stats = registered_stats(&reg, ServerId(0));
        let (mut s, out, _) = sampler(&reg, false);
        stats.dispatch_busy_ns.add(MILLISECOND / 2);
        s.sample(MILLISECOND);
        assert_eq!(stats.dispatch_overcommit.get(), 0);
        assert!(out.borrow().validate().is_empty());
    }

    /// `capture` gates only the snapshot buffer; the utilization series
    /// (and hence the event schedule driving it) is identical either way.
    #[test]
    fn capture_flag_gates_snapshot_log_only() {
        for capture in [false, true] {
            let reg = Registry::new();
            let stats = registered_stats(&reg, ServerId(0));
            let (mut s, out, snaps) = sampler(&reg, capture);
            stats.dispatch_busy_ns.add(MILLISECOND / 4);
            s.sample(MILLISECOND);
            s.sample(2 * MILLISECOND);
            assert_eq!(out.borrow().by_server[&ServerId(0)].len(), 2);
            let snaps = snaps.borrow();
            if capture {
                assert_eq!(snaps.len(), 2);
                assert_eq!(snaps[0].at, MILLISECOND);
                assert_eq!(snaps[1].at, 2 * MILLISECOND);
            } else {
                assert!(snaps.is_empty(), "disarmed capture buffered snapshots");
            }
        }
    }
}

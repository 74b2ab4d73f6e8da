//! Utilization and migration-progress sampling.
//!
//! Figures 5, 9, 11, 12 and 14 are time series of per-server quantities:
//! dispatch utilization, active worker cores, and migration MB/s. On
//! every `Observer` tick the `Sampler` differences four counters of each
//! server's [`NodeStats`] handles and appends one [`UtilPoint`] per
//! server. When metrics capture is armed it also appends one full
//! registry snapshot per interval to a shared buffer for the JSON
//! export.
//!
//! [`NodeStats`]: rocksteady_server::stats::NodeStats

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rocksteady_common::{Nanos, ServerId};
use rocksteady_metrics::{Registry, Snapshot};
use rocksteady_server::stats::StatsHandle;

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
    pub by_server: BTreeMap<ServerId, Vec<UtilPoint>>,
    /// Sampling interval.
    pub interval: Nanos,
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
}

/// Shared handle to the collected series.
pub type UtilSeriesHandle = Rc<RefCell<UtilSeries>>;

/// Shared buffer of periodic full-registry snapshots (empty unless the
/// cluster was built with `metrics: true`).
pub type SnapshotLogHandle = Rc<RefCell<Vec<Snapshot>>>;

/// Derives the utilization series from the servers' stats handles.
pub(crate) struct Sampler {
    interval: Nanos,
    registry: Registry,
    /// Whether to append full snapshots to `snapshots` each tick.
    capture: bool,
    out: UtilSeriesHandle,
    snapshots: SnapshotLogHandle,
    /// Each server's dispatch busy, worker busy, bytes in and bytes out
    /// totals at the previous tick, in the order `sample` is given them.
    last: Vec<[u64; 4]>,
}

impl Sampler {
    /// Creates a sampler of `interval`-long windows, deriving utilization
    /// into `out` and (when `capture`) appending snapshots of `registry`
    /// to `snapshots`.
    pub(crate) fn new(
        interval: Nanos,
        registry: Registry,
        capture: bool,
        out: UtilSeriesHandle,
        snapshots: SnapshotLogHandle,
    ) -> Self {
        out.borrow_mut().interval = interval;
        Sampler {
            interval,
            registry,
            capture,
            out,
            snapshots,
            last: Vec::new(),
        }
    }

    /// Appends one point per server for the window ending at `now`.
    pub(crate) fn sample(&mut self, now: Nanos, servers: &[(ServerId, StatsHandle)]) {
        let interval_start = now.saturating_sub(self.interval);
        let dt = self.interval as f64;
        self.last.resize(servers.len(), [0; 4]);
        let mut out = self.out.borrow_mut();
        for ((server, stats), last) in servers.iter().zip(&mut self.last) {
            let total = [
                stats.dispatch_busy_ns.get(),
                stats.worker_busy_ns.get(),
                stats.bytes_migrated_in.get(),
                stats.bytes_migrated_out.get(),
            ];
            let [dispatch, worker, bytes_in, bytes_out] = [0, 1, 2, 3].map(|i| total[i] - last[i]);
            *last = total;
            // A dispatch core is one core: busy time can exceed the
            // interval both benignly (a charge posted at the tick
            // boundary lands in the next window) and structurally (the
            // model double-books the core). Clamp to [0, 1] for the
            // figures, but count every clamped window instead of hiding
            // it.
            let dispatch = if dispatch > self.interval {
                stats.dispatch_overcommit.inc();
                1.0
            } else {
                dispatch as f64 / dt
            };
            out.by_server.entry(*server).or_default().push(UtilPoint {
                at: interval_start,
                dispatch,
                worker_cores: worker as f64 / dt,
                bytes_in,
                bytes_out,
            });
        }
        if self.capture {
            self.snapshots
                .borrow_mut()
                .push(self.registry.snapshot(now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::MILLISECOND;
    use rocksteady_server::stats::registered_stats;

    fn sampler(reg: &Registry, capture: bool) -> (Sampler, UtilSeriesHandle, SnapshotLogHandle) {
        let out: UtilSeriesHandle = Rc::new(RefCell::new(UtilSeries::default()));
        let snaps: SnapshotLogHandle = Rc::new(RefCell::new(Vec::new()));
        let s = Sampler::new(
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
        let stats = [(ServerId(0), registered_stats(&reg, ServerId(0)))];
        let (mut s, out, _) = sampler(&reg, false);
        stats[0].1.dispatch_busy_ns.add(MILLISECOND / 2);
        s.sample(MILLISECOND, &stats);
        s.sample(2 * MILLISECOND, &stats); // nothing happened in this window
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

    /// Dispatch is one core: a busy charge posted at a tick boundary can
    /// land in the next window, so the ratio is clamped to [0, 1] — but
    /// not silently: the clamp bumps the overcommit counter. Worker cores
    /// are deliberately not clamped (W cores).
    #[test]
    fn dispatch_utilization_is_clamped_to_unit_and_counted() {
        let reg = Registry::new();
        let stats = [(ServerId(0), registered_stats(&reg, ServerId(0)))];
        let (mut s, out, _) = sampler(&reg, false);
        stats[0].1.dispatch_busy_ns.add(3 * MILLISECOND);
        stats[0].1.worker_busy_ns.add(4 * MILLISECOND);
        s.sample(MILLISECOND, &stats);
        let util = out.borrow();
        let p = util.by_server[&ServerId(0)][0];
        assert_eq!(p.dispatch, 1.0, "dispatch clamped to one core");
        assert!((p.worker_cores - 4.0).abs() < 1e-9);
        // The clamp is visible, not silent.
        assert_eq!(stats[0].1.dispatch_overcommit.get(), 1);
    }

    /// An in-bounds window does not count.
    #[test]
    fn unclamped_windows_leave_no_overcommit_trail() {
        let reg = Registry::new();
        let stats = [(ServerId(0), registered_stats(&reg, ServerId(0)))];
        let (mut s, _, _) = sampler(&reg, false);
        stats[0].1.dispatch_busy_ns.add(MILLISECOND / 2);
        s.sample(MILLISECOND, &stats);
        assert_eq!(stats[0].1.dispatch_overcommit.get(), 0);
    }

    /// `capture` gates only the snapshot buffer; the utilization series
    /// is identical either way.
    #[test]
    fn capture_flag_gates_snapshot_log_only() {
        for capture in [false, true] {
            let reg = Registry::new();
            let stats = [(ServerId(0), registered_stats(&reg, ServerId(0)))];
            let (mut s, out, snaps) = sampler(&reg, capture);
            stats[0].1.dispatch_busy_ns.add(MILLISECOND / 4);
            s.sample(MILLISECOND, &stats);
            s.sample(2 * MILLISECOND, &stats);
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

//! The one shared per-interval percentile/throughput path.
//!
//! Every timeline figure (9, 10, 13) plots the same three derived
//! series: per-interval completed operations, medians, and 99.9th
//! percentiles. `ClientStats` and each fig bench used to re-derive
//! these independently; this module is now the single implementation,
//! and the SLO monitor windows latencies through the same
//! [`delta_histogram`] arithmetic.

use rocksteady_common::{Histogram, Nanos, TimeSeries, SECOND};

/// One interval of a latency timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Interval start (virtual time).
    pub at: Nanos,
    /// Observations completing in the interval.
    pub count: u64,
    /// Median over the interval.
    pub p50: u64,
    /// 99.9th percentile over the interval.
    pub p999: u64,
}

/// Per-interval `(median, p999)` rows within `[from, to)`, merging the
/// same interval across many series (e.g. all clients) before taking
/// percentiles — the exact merge+percentile the timeline figures plot.
/// Empty intervals are skipped, matching how the paper's timelines only
/// plot intervals that completed operations.
pub fn merged_latency_timeline<'a>(
    series: impl IntoIterator<Item = &'a TimeSeries>,
    from: Nanos,
    to: Nanos,
) -> Vec<TimelinePoint> {
    let mut per_bucket: std::collections::BTreeMap<Nanos, Histogram> = Default::default();
    for ts in series {
        for (at, h) in ts.iter() {
            if at >= from && at < to && h.count() > 0 {
                per_bucket.entry(at).or_default().merge(h);
            }
        }
    }
    per_bucket
        .into_iter()
        .map(|(at, h)| TimelinePoint {
            at,
            count: h.count(),
            p50: h.percentile(0.5),
            p999: h.percentile(0.999),
        })
        .collect()
}

/// Per-interval completed-operations/s rows of one series in
/// `[from, to)` (includes empty intervals, as throughput plots do).
pub fn throughput_timeline(series: &TimeSeries, from: Nanos, to: Nanos) -> Vec<(Nanos, f64)> {
    let per_sec = SECOND as f64 / series.interval() as f64;
    series
        .iter()
        .filter(|(at, _)| *at >= from && *at < to)
        .map(|(at, h)| (at, h.count() as f64 * per_sec))
        .collect()
}

/// Total completed-operations/s per interval summed across many series
/// (all series must share one interval width).
pub fn merged_throughput_timeline<'a>(
    series: impl IntoIterator<Item = &'a TimeSeries>,
    from: Nanos,
    to: Nanos,
) -> Vec<(Nanos, f64)> {
    let mut acc: std::collections::BTreeMap<Nanos, f64> = Default::default();
    for ts in series {
        for (at, v) in throughput_timeline(ts, from, to) {
            *acc.entry(at).or_default() += v;
        }
    }
    acc.into_iter().collect()
}

/// The observations recorded into `cur` since `prev` was cloned from
/// the same histogram — windowed percentiles from cumulative
/// histograms, tolerant of a reset (if `cur` has fewer observations
/// than `prev`, the delta is `cur` itself).
pub fn delta_histogram(cur: &Histogram, prev: &Histogram) -> Histogram {
    if cur.count() < prev.count() {
        return cur.clone();
    }
    cur.delta_since(prev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::MILLISECOND;

    #[test]
    fn latency_timeline_skips_empty_intervals() {
        let mut ts = TimeSeries::new(MILLISECOND);
        ts.record(0, 10);
        ts.record(100, 30);
        ts.record(2 * MILLISECOND, 50);
        let points = merged_latency_timeline([&ts], 0, 10 * MILLISECOND);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].count, 2);
        assert_eq!(points[1].at, 2 * MILLISECOND);
    }

    #[test]
    fn merged_latency_merges_per_bucket() {
        let mut a = TimeSeries::new(MILLISECOND);
        let mut b = TimeSeries::new(MILLISECOND);
        a.record(0, 10);
        b.record(0, 1_000_000);
        let points = merged_latency_timeline([&a, &b], 0, MILLISECOND);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].count, 2);
        assert!(points[0].p999 >= 990_000, "p999 sees both clients");
    }

    #[test]
    fn throughput_counts_per_second() {
        let mut ts = TimeSeries::new(MILLISECOND);
        for i in 0..10 {
            ts.record(i, 1);
        }
        let rows = throughput_timeline(&ts, 0, MILLISECOND);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].1 - 10_000.0).abs() < 1e-9);
        let merged = merged_throughput_timeline([&ts, &ts], 0, MILLISECOND);
        assert!((merged[0].1 - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn delta_histogram_windows_and_survives_reset() {
        let mut h = Histogram::new();
        h.record(100);
        let prev = h.clone();
        h.record(200);
        h.record(300);
        let d = delta_histogram(&h, &prev);
        assert_eq!(d.count(), 2);
        assert!(d.percentile(0.5) >= 190);
        // "Reset": current histogram smaller than the baseline.
        let fresh = {
            let mut f = Histogram::new();
            f.record(7);
            f
        };
        let d2 = delta_histogram(&fresh, &h);
        assert_eq!(d2.count(), 1);
    }
}

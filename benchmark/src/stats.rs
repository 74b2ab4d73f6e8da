//! The benchmark's own arithmetic: medians over rounds, the
//! span-bucket percentile merge, and the failure share.

use rocksteady_common::{Histogram, Nanos, TimeSeries};

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN: both are bugs in the caller.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measurement"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(min, max)` of `xs`.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(*x), hi.max(*x))
        })
}

/// Failures as a share of everything attempted: `failures ÷ (completed
/// + failures)`; 0 when nothing was attempted.
pub fn failed_share(completed: u64, failures: u64) -> f64 {
    let attempted = completed + failures;
    if attempted == 0 {
        0.0
    } else {
        failures as f64 / attempted as f64
    }
}

/// The span of a set of migrations: the series buckets (of width
/// `interval`) that overlap some migration's `[start, finish)`, as
/// sorted bucket start times. A zero-length migration still covers the
/// bucket holding its start.
pub fn span_buckets(interval: Nanos, migrations: &[(Nanos, Nanos)]) -> Vec<Nanos> {
    let mut buckets: Vec<Nanos> = migrations
        .iter()
        .flat_map(|&(start, finish)| {
            let first = start / interval;
            let last = (finish.max(start + 1) - 1) / interval;
            (first..=last).map(move |b| b * interval)
        })
        .collect();
    buckets.sort_unstable();
    buckets.dedup();
    buckets
}

/// Merges, across every series, the buckets starting at one of `span`
/// (sorted, from [`span_buckets`] at the series' interval) into one
/// histogram.
pub fn merge_span<'a>(
    series: impl IntoIterator<Item = &'a TimeSeries>,
    span: &[Nanos],
) -> Histogram {
    let mut out = Histogram::new();
    for s in series {
        for (at, h) in s.iter() {
            if span.binary_search(&at).is_ok() {
                out.merge(h);
            }
        }
    }
    out
}

/// The value at quantile `q` with the histogram's CDF interpolated
/// linearly inside the bucket that holds it.
///
/// `Histogram::percentile` answers with a bucket's upper edge, so on a
/// narrow distribution it reads the same for every seed; this reads
/// the same edges (through `percentile` alone, no knowledge of the
/// bucket layout) and places the quantile between them by rank.
pub fn interpolated_percentile(h: &Histogram, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    // The value `percentile` reports for the sample of 1-based `rank`.
    let at = |rank: u64| h.percentile((rank as f64 - 0.5) / total as f64);
    let x = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let rank = (x.ceil() as u64).min(total);
    let edge = at(rank);
    // First and last rank sharing the bucket (binary search: `at` is
    // monotone in rank).
    let bound = |mut lo: u64, mut hi: u64, first: bool| {
        while lo < hi {
            let mid = if first {
                (lo + hi) / 2
            } else {
                (lo + hi).div_ceil(2)
            };
            match (first, at(mid) == edge) {
                (true, true) => hi = mid,
                (true, false) => lo = mid + 1,
                (false, true) => lo = mid,
                (false, false) => hi = mid - 1,
            }
        }
        lo
    };
    let first = bound(1, rank, true);
    let last = bound(rank, total, false);
    let below = if first > 1 { at(first - 1) } else { h.min() };
    let inside = (x - (first - 1) as f64) / (last - first + 1) as f64;
    below as f64 + inside.clamp(0.0, 1.0) * (edge - below) as f64
}

/// `part ÷ whole` in permille, 0 for an empty whole.
pub fn permille(part: u64, whole: u64) -> u64 {
    (u128::from(part) * 1000)
        .checked_div(u128::from(whole))
        .unwrap_or(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rocksteady_common::MILLISECOND;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(min_max(&[4.0, 1.0, 3.0]), (1.0, 4.0));
    }

    #[test]
    fn failed_share_counts_failures_against_attempts() {
        assert_eq!(failed_share(0, 0), 0.0);
        assert_eq!(failed_share(100, 0), 0.0);
        assert_eq!(failed_share(99, 1), 0.01);
        assert_eq!(failed_share(0, 7), 1.0);
    }

    #[test]
    fn span_buckets_cover_each_migration_once() {
        let i = 10 * MILLISECOND;
        assert_eq!(span_buckets(i, &[(0, 1)]), vec![0]);
        assert_eq!(
            span_buckets(i, &[(12 * MILLISECOND, 31 * MILLISECOND)]),
            vec![i, 2 * i, 3 * i]
        );
        // A span ending exactly on a boundary excludes the next bucket.
        assert_eq!(span_buckets(i, &[(i, 3 * i)]), vec![i, 2 * i]);
        // Degenerate migration: the bucket holding its start.
        assert_eq!(
            span_buckets(i, &[(25 * MILLISECOND, 25 * MILLISECOND)]),
            vec![2 * i]
        );
        // Overlapping and disjoint migrations: the union, sorted, once.
        assert_eq!(
            span_buckets(
                i,
                &[
                    (85 * MILLISECOND, 95 * MILLISECOND),
                    (5 * MILLISECOND, 12 * MILLISECOND),
                    (8 * MILLISECOND, 9 * MILLISECOND)
                ]
            ),
            vec![0, i, 8 * i, 9 * i]
        );
    }

    /// A deterministic, skewed stream of `(completion time, latency)`.
    fn stream(n: u64) -> impl Iterator<Item = (Nanos, u64)> {
        let mut x = 1u64;
        (0..n).map(move |_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % (60 * MILLISECOND), 5_000 + (x >> 40) % 300_000)
        })
    }

    /// The span merge over per-client bucketed series must rank exactly
    /// like one `Histogram` fed the same in-span values directly.
    #[test]
    fn span_merge_matches_a_single_histogram() {
        let i = 10 * MILLISECOND;
        let mut a = TimeSeries::new(i);
        let mut b = TimeSeries::new(i);
        let mut reference = Histogram::new();
        let span = span_buckets(
            i,
            &[
                (12 * MILLISECOND, 31 * MILLISECOND),
                (50 * MILLISECOND, 51 * MILLISECOND),
            ],
        );
        assert_eq!(span, vec![i, 2 * i, 3 * i, 5 * i]);
        for (n, (at, v)) in stream(50_000).enumerate() {
            if n % 2 == 0 { &mut a } else { &mut b }.record(at, v);
            if span.contains(&(at / i * i)) {
                reference.record(v);
            }
        }
        let merged = merge_span([&a, &b], &span);
        assert_eq!(merged.count(), reference.count());
        assert!(merged.count() > 10_000);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(merged.percentile(q), reference.percentile(q), "q={q}");
        }
        assert_eq!(merged.max(), reference.max());
    }

    /// Interpolation lands between the bucket's edges and much nearer
    /// the exact quantile than the bucket's width.
    #[test]
    fn interpolated_percentile_tracks_the_exact_quantile() {
        let mut h = Histogram::new();
        let mut raw: Vec<u64> = stream(40_000).map(|(_, v)| v).collect();
        raw.iter().for_each(|v| h.record(*v));
        raw.sort_unstable();
        for q in [0.01, 0.5, 0.9, 0.999] {
            let exact = raw[((q * raw.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let edge = h.percentile(q) as f64;
            let got = interpolated_percentile(&h, q);
            assert!(got <= edge, "q={q}: {got} above the bucket edge {edge}");
            assert!(
                got >= edge * (1.0 - 1.0 / 32.0),
                "q={q}: {got} below the bucket"
            );
            assert!(
                (got - exact).abs() / exact < 0.002,
                "q={q}: {got} vs exact {exact}"
            );
        }
        assert_eq!(interpolated_percentile(&Histogram::new(), 0.5), 0.0);
        let mut one = Histogram::new();
        one.record(7_000);
        assert_eq!(interpolated_percentile(&one, 0.5), 7_000.0);
        assert_eq!(interpolated_percentile(&one, 0.999), 7_000.0);
    }

    #[test]
    fn permille_of_empty_whole_is_zero() {
        assert_eq!(permille(1, 0), 0);
        assert_eq!(permille(1, 4), 250);
        assert_eq!(permille(u64::MAX, u64::MAX), 1000);
    }
}

//! Latency histograms and timeline recording.
//!
//! The paper's evaluation reports medians and 99.9th percentiles, both as
//! aggregates and as per-second timelines (Figures 10, 13). [`Histogram`]
//! is an HDR-style log-bucketed histogram with ≤ 1.6% relative error —
//! ample for tail percentiles — and [`TimeSeries`] slices a run into fixed
//! virtual-time intervals, keeping one histogram per interval so a single
//! pass produces the paper's timeline plots.

use crate::time::Nanos;

/// Number of linear sub-buckets per power-of-two range (2^6 = 64 gives a
/// worst-case relative error of 1/64 ≈ 1.6% per recorded value).
const SUB_BITS: u32 = 6;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Highest representable power-of-two exponent; values above saturate into
/// the last bucket. 2^62 ns ≈ 146 years of virtual time.
const MAX_INDEX: usize = ((63 - SUB_BITS as usize) + 1) * SUB_COUNT as usize;

/// Buckets are allocated in blocks of this many (one power-of-two range,
/// 512 B), so a histogram's memory follows the spread of what it holds.
const BLOCK: usize = SUB_COUNT as usize;

/// A log-bucketed histogram of `u64` values (typically nanoseconds).
///
/// Only the buckets between the lowest and highest recorded value are
/// stored, rounded out to whole [`BLOCK`]s: an empty histogram owns no
/// heap memory, one counting to *n* owns 512 B, and a 5–100 µs latency
/// distribution about 2.5 KB of the 29.7 KB the full range would take.
/// A [`TimeSeries`] keeps one per interval per client and the samplers
/// diff and clone cumulative ones every virtual millisecond, so what an
/// untouched bucket costs is paid thousands of times a run.
///
/// # Examples
///
/// ```
/// use rocksteady_common::Histogram;
/// let mut h = Histogram::new();
/// for v in [10, 20, 30, 40, 50] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.percentile(0.50), 30);
/// assert_eq!(h.max(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Counts of buckets `base .. base + counts.len()`; every bucket
    /// outside holds zero. Both ends sit on [`BLOCK`] boundaries.
    counts: Vec<u64>,
    /// Bucket index of `counts[0]` (0 while `counts` is empty).
    base: usize,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram. Allocates nothing.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            base: 0,
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_of(value: u64) -> usize {
        if value < SUB_COUNT {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as u64;
        let sub = (value >> (msb - SUB_BITS as u64)) & (SUB_COUNT - 1);
        let idx = ((msb - SUB_BITS as u64 + 1) * SUB_COUNT + sub) as usize;
        idx.min(MAX_INDEX)
    }

    /// Lower bound of the bucket at `idx` (inverse of [`Self::index_of`]).
    fn bucket_low(idx: usize) -> u64 {
        let b = idx as u64 >> SUB_BITS;
        let sub = idx as u64 & (SUB_COUNT - 1);
        if b == 0 {
            sub
        } else {
            (SUB_COUNT + sub) << (b - 1)
        }
    }

    /// Largest value the bucket at `idx` can hold, given that nothing
    /// above `max` was recorded (the top bucket has no upper edge).
    fn bucket_high(idx: usize, max: u64) -> u64 {
        if idx >= MAX_INDEX {
            max
        } else {
            Self::bucket_low(idx + 1) - 1
        }
    }

    /// Grows `counts` to the whole blocks covering buckets `lo..=hi`, in
    /// one exactly-sized allocation; what was stored keeps its place.
    #[cold]
    fn cover(&mut self, lo: usize, hi: usize) {
        let mut start = lo - lo % BLOCK;
        let mut end = hi - hi % BLOCK + BLOCK;
        if !self.counts.is_empty() {
            start = start.min(self.base);
            end = end.max(self.base + self.counts.len());
        }
        let mut grown = Vec::with_capacity(end - start);
        grown.resize(self.base.saturating_sub(start), 0);
        grown.extend_from_slice(&self.counts);
        grown.resize(end - start, 0);
        self.counts = grown;
        self.base = start;
    }

    /// The stored count of bucket `idx`; zero for one never touched.
    fn bucket(&self, idx: usize) -> u64 {
        // A bucket below `base` wraps to a huge offset and misses too.
        self.counts
            .get(idx.wrapping_sub(self.base))
            .copied()
            .unwrap_or(0)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::index_of(value);
        if idx.wrapping_sub(self.base) >= self.counts.len() {
            self.cover(idx, idx);
        }
        self.counts[idx - self.base] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact minimum recorded value, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Value at quantile `q ∈ [0, 1]` (e.g. `0.999` for the 99.9th
    /// percentile), within the bucket resolution. Returns 0 if empty.
    ///
    /// The returned value is the *upper* edge of the bucket containing the
    /// quantile, clamped to the exact observed max — matching how latency
    /// SLAs are usually read ("99.9% of requests finished within X").
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_high(self.base + i, self.max).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Sum of all observations, saturating at `u64::MAX` (exposition
    /// formats carry 64-bit integers).
    pub fn sum_saturating(&self) -> u64 {
        u64::try_from(self.sum).unwrap_or(u64::MAX)
    }

    /// The observations recorded since `prev` was cloned from this same
    /// histogram: bucket-wise difference, with min/max rebuilt from the
    /// surviving buckets' bounds (so percentile clamping stays
    /// consistent). Buckets where `prev` somehow exceeds `self`
    /// saturate to zero rather than underflowing.
    pub fn delta_since(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        out.sum = self.sum.saturating_sub(prev.sum);
        // Any surplus bucket of `self` is one `self` stores; `prev`-only
        // buckets saturate to zero regardless.
        let surplus = |idx| self.bucket(idx).saturating_sub(prev.bucket(idx));
        let stored = self.base..self.base + self.counts.len();
        let first = stored.clone().find(|&idx| surplus(idx) > 0);
        let last = stored.rev().find(|&idx| surplus(idx) > 0);
        if let (Some(first), Some(last)) = (first, last) {
            out.cover(first, last);
            for idx in first..=last {
                let d = surplus(idx);
                out.counts[idx - out.base] = d;
                out.total += d;
            }
            out.min = Self::bucket_low(first).max(self.min);
            out.max = Self::bucket_high(last, self.max).min(self.max);
        }
        out
    }

    /// Adds all observations from `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        let first = other.counts.iter().position(|&c| c > 0);
        let last = other.counts.iter().rposition(|&c| c > 0);
        if let (Some(first), Some(last)) = (first, last) {
            let (lo, hi) = (other.base + first, other.base + last);
            if lo < self.base || hi >= self.base + self.counts.len() {
                self.cover(lo, hi);
            }
            let mine = &mut self.counts[lo - self.base..];
            for (count, add) in mine.iter_mut().zip(&other.counts[first..=last]) {
                *count += add;
            }
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Discards all observations, and the memory that held them.
    pub fn clear(&mut self) {
        *self = Histogram::new();
    }
}

/// Per-interval histograms over virtual time, for timeline figures.
///
/// Values recorded at virtual time `t` land in interval `t / interval`.
/// Intervals are materialized lazily, so sparse runs stay cheap.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval: Nanos,
    slots: Vec<Histogram>,
}

impl TimeSeries {
    /// Creates a series with the given interval width (e.g. 1 s of virtual
    /// time per point, as the paper's timelines use).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Nanos) -> Self {
        assert!(interval > 0, "zero interval");
        TimeSeries {
            interval,
            slots: Vec::new(),
        }
    }

    /// Interval width in nanoseconds.
    pub fn interval(&self) -> Nanos {
        self.interval
    }

    /// Records `value` as having completed at virtual time `at`.
    pub fn record(&mut self, at: Nanos, value: u64) {
        let slot = (at / self.interval) as usize;
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, Histogram::new);
        }
        self.slots[slot].record(value);
    }

    /// Number of materialized intervals.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|h| h.count() == 0)
    }

    /// Histogram for interval `i`, if materialized.
    pub fn slot(&self, i: usize) -> Option<&Histogram> {
        self.slots.get(i)
    }

    /// Iterates `(interval_start_ns, histogram)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Nanos, &Histogram)> {
        self.slots
            .iter()
            .enumerate()
            .map(move |(i, h)| (i as Nanos * self.interval, h))
    }

    /// Collapses the whole series into one histogram.
    pub fn merged(&self) -> Histogram {
        let mut out = Histogram::new();
        for h in &self.slots {
            out.merge(h);
        }
        out
    }
}

/// The histogram as it was before it stored only what was recorded: all
/// 3 713 buckets up front, scans bounded by the touched range. Kept as
/// the reference the differential tests drive [`Histogram`] against.
#[cfg(test)]
mod dense {
    use super::{Histogram, MAX_INDEX};

    #[derive(Clone)]
    pub struct Dense {
        counts: Vec<u64>,
        total: u64,
        sum: u128,
        min: u64,
        max: u64,
        lo: usize,
        hi: usize,
    }

    impl Dense {
        pub fn new() -> Self {
            Dense {
                counts: vec![0; MAX_INDEX + 1],
                total: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                lo: usize::MAX,
                hi: 0,
            }
        }

        pub fn record_n(&mut self, value: u64, n: u64) {
            if n == 0 {
                return;
            }
            let idx = Histogram::index_of(value);
            self.counts[idx] += n;
            self.lo = self.lo.min(idx);
            self.hi = self.hi.max(idx);
            self.total += n;
            self.sum += value as u128 * n as u128;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }

        pub fn count(&self) -> u64 {
            self.total
        }

        pub fn min(&self) -> u64 {
            if self.total == 0 {
                0
            } else {
                self.min
            }
        }

        pub fn max(&self) -> u64 {
            self.max
        }

        pub fn mean(&self) -> f64 {
            if self.total == 0 {
                0.0
            } else {
                self.sum as f64 / self.total as f64
            }
        }

        pub fn percentile(&self, q: f64) -> u64 {
            if self.total == 0 {
                return 0;
            }
            let q = q.clamp(0.0, 1.0);
            let target = ((q * self.total as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (idx, &c) in self
                .counts
                .iter()
                .enumerate()
                .take(self.hi + 1)
                .skip(self.lo)
            {
                if c == 0 {
                    continue;
                }
                seen += c;
                if seen >= target {
                    let hi = if idx >= MAX_INDEX {
                        self.max
                    } else {
                        Histogram::bucket_low(idx + 1).saturating_sub(1)
                    };
                    return hi.clamp(self.min, self.max);
                }
            }
            self.max
        }

        pub fn sum_saturating(&self) -> u64 {
            u64::try_from(self.sum).unwrap_or(u64::MAX)
        }

        pub fn delta_since(&self, prev: &Dense) -> Dense {
            let mut out = Dense::new();
            let mut first = None;
            let mut last = None;
            if self.total > 0 {
                for idx in self.lo..=self.hi {
                    let d = self.counts[idx].saturating_sub(prev.counts[idx]);
                    if d > 0 {
                        out.counts[idx] = d;
                        out.total += d;
                        first.get_or_insert(idx);
                        last = Some(idx);
                    }
                }
            }
            out.sum = self.sum.saturating_sub(prev.sum);
            if let (Some(first), Some(last)) = (first, last) {
                out.lo = first;
                out.hi = last;
                out.min = Histogram::bucket_low(first).max(self.min);
                out.max = if last >= MAX_INDEX {
                    self.max
                } else {
                    (Histogram::bucket_low(last + 1) - 1).min(self.max)
                };
            }
            out
        }

        pub fn merge(&mut self, other: &Dense) {
            if other.total > 0 {
                for idx in other.lo..=other.hi {
                    self.counts[idx] += other.counts[idx];
                }
                self.lo = self.lo.min(other.lo);
                self.hi = self.hi.max(other.hi);
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
            self.total += other.total;
            self.sum += other.sum;
        }

        pub fn clear(&mut self) {
            if self.total > 0 {
                self.counts[self.lo..=self.hi].fill(0);
            }
            self.total = 0;
            self.sum = 0;
            self.min = u64::MAX;
            self.max = 0;
            self.lo = usize::MAX;
            self.hi = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dense::Dense;
    use super::*;
    use crate::rng::Prng;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_COUNT {
            h.record(v);
        }
        // Values below SUB_COUNT land in exact unit buckets.
        assert_eq!(h.percentile(0.0), 0);
        assert_eq!(h.max(), SUB_COUNT - 1);
        assert_eq!(h.count(), SUB_COUNT);
    }

    #[test]
    fn index_bucket_roundtrip() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, u64::MAX >> 1] {
            let idx = Histogram::index_of(v);
            let low = Histogram::bucket_low(idx);
            let next_low = if idx < MAX_INDEX {
                Histogram::bucket_low(idx + 1)
            } else {
                u64::MAX
            };
            assert!(low <= v && v < next_low, "v={v} idx={idx} low={low}");
        }
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histogram::new();
        let v = 1_234_567;
        h.record(v);
        let p = h.percentile(1.0);
        let err = (p as f64 - v as f64).abs() / v as f64;
        assert!(err <= 1.0 / 64.0 + 1e-9, "error {err}");
    }

    #[test]
    fn percentiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.50) as f64;
        let p999 = h.percentile(0.999) as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.03, "p50 {p50}");
        assert!((p999 - 9_990.0).abs() / 9_990.0 < 0.03, "p999 {p999}");
        assert_eq!(h.percentile(1.0), 10_000);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(10);
        h.record(20);
        h.record(60);
        assert!((h.mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert!(a.max() >= 500);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), 0);
    }

    #[test]
    fn huge_values_saturate_without_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn delta_since_subtracts_buckets() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(5_000);
        let prev = h.clone();
        h.record(200);
        h.record(9_000_000);
        let d = h.delta_since(&prev);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum_saturating(), 9_000_200);
        // The delta's percentiles only see the new observations.
        assert!(d.percentile(0.0) >= 190 && d.percentile(0.0) <= 210);
        assert!(d.percentile(1.0) >= 8_900_000);
        // Delta against itself is empty.
        let z = h.delta_since(&h);
        assert_eq!(z.count(), 0);
        assert_eq!(z.percentile(0.999), 0);
    }

    /// Every observable of `h` equals the dense reference's, and `h`
    /// stores whole blocks whose first and last each hold something.
    fn assert_same(h: &Histogram, d: &Dense, what: &str) {
        assert_eq!(h.count(), d.count(), "{what}: count");
        assert_eq!(h.min(), d.min(), "{what}: min");
        assert_eq!(h.max(), d.max(), "{what}: max");
        assert_eq!(h.mean().to_bits(), d.mean().to_bits(), "{what}: mean");
        assert_eq!(h.sum_saturating(), d.sum_saturating(), "{what}: sum");
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.percentile(q), d.percentile(q), "{what}: percentile({q})");
        }
        assert_eq!(h.base % BLOCK, 0, "{what}: base off a block boundary");
        assert_eq!(h.counts.len() % BLOCK, 0, "{what}: a partial block");
        for edge in [h.counts.chunks(BLOCK).next(), h.counts.chunks(BLOCK).last()] {
            let held = edge.map_or(1, |block| block.iter().sum::<u64>());
            assert!(held > 0, "{what}: an edge block holds nothing");
        }
    }

    /// A value from one of the regimes the histogram sees: exact unit
    /// buckets, client latencies, anything at all, the saturating top
    /// bucket, and the largest value there is.
    fn any_value(rng: &mut Prng) -> u64 {
        match rng.next_below(8) {
            0 => rng.next_below(SUB_COUNT),
            1..=3 => rng.next_range(5_000, 100_000),
            4 | 5 => rng.next_u64() >> rng.next_below(64),
            6 => (1 << 62) + (rng.next_u64() >> 2),
            _ => u64::MAX,
        }
    }

    #[test]
    fn random_interleavings_match_the_dense_reference() {
        const SLOTS: u64 = 4;
        for seed in 0..10 {
            let mut rng = Prng::new(seed);
            let mut cur: Vec<(Histogram, Dense)> = (0..SLOTS)
                .map(|_| (Histogram::new(), Dense::new()))
                .collect();
            // Earlier states to diff against: some are a slot's own past
            // (shorter than it is now), some another slot's, some were
            // taken before a clear (longer than what replaced them).
            let mut snaps = cur.clone();
            for step in 0..1_000 {
                let at = rng.next_below(SLOTS) as usize;
                let other = rng.next_below(SLOTS) as usize;
                let what = format!("seed {seed} step {step}");
                match rng.next_below(16) {
                    0..=8 => {
                        let (value, n) = (any_value(&mut rng), rng.next_below(4));
                        cur[at].0.record_n(value, n);
                        cur[at].1.record_n(value, n);
                    }
                    9 | 10 => {
                        let (h, d) = cur[other].clone();
                        cur[at].0.merge(&h);
                        cur[at].1.merge(&d);
                    }
                    11 => snaps[at] = cur[other].clone(),
                    12..=14 => {
                        let delta = (
                            cur[at].0.delta_since(&snaps[other].0),
                            cur[at].1.delta_since(&snaps[other].1),
                        );
                        assert_same(&delta.0, &delta.1, &format!("{what}: delta"));
                        // Deltas flow on into merges and further deltas.
                        if rng.next_below(4) == 0 {
                            cur[other] = delta;
                        }
                    }
                    _ => {
                        cur[at].0.clear();
                        cur[at].1.clear();
                    }
                }
                assert_same(&cur[at].0, &cur[at].1, &what);
                assert_same(&cur[other].0, &cur[other].1, &what);
            }
        }
    }

    #[test]
    fn empty_histograms_own_no_buckets() {
        let mut h = Histogram::new();
        assert_eq!(h.counts.capacity(), 0);
        h.record_n(7, 0);
        h.merge(&Histogram::new());
        assert_eq!(h.delta_since(&Histogram::new()).counts.capacity(), 0);
        assert_eq!(h.counts.capacity(), 0);
        // Counting to n costs one block, a 5–100 µs spread six.
        h.record_n(1, 1_000);
        assert_eq!(h.counts.capacity(), BLOCK);
        let mut lat = Histogram::new();
        lat.record(5_000);
        lat.record(100_000);
        assert_eq!((lat.base, lat.counts.capacity()), (7 * BLOCK, 5 * BLOCK));
        lat.clear();
        assert_eq!(lat.counts.capacity(), 0);
    }

    #[test]
    fn timeseries_slices_by_interval() {
        let mut ts = TimeSeries::new(1_000);
        ts.record(0, 7);
        ts.record(999, 9);
        ts.record(1_000, 11);
        ts.record(5_500, 13);
        assert_eq!(ts.len(), 6);
        assert_eq!(ts.slot(0).unwrap().count(), 2);
        assert_eq!(ts.slot(1).unwrap().count(), 1);
        assert_eq!(ts.slot(5).unwrap().count(), 1);
        assert_eq!(ts.slot(3).unwrap().count(), 0);
    }

    #[test]
    fn timeseries_merged_equals_total() {
        let mut ts = TimeSeries::new(10);
        for i in 0..1_000 {
            ts.record(i % 100, i);
        }
        assert_eq!(ts.merged().count(), 1_000);
    }

    #[test]
    fn timeseries_merged_over_uneven_slots_matches_the_reference() {
        let mut rng = Prng::new(7);
        let mut ts = TimeSeries::new(1_000);
        let mut reference = Dense::new();
        for _ in 0..5_000 {
            // Most intervals see a narrow band; a few see everything.
            let at = rng.next_below(40_000);
            let value = if at % 7_000 < 1_000 {
                any_value(&mut rng)
            } else {
                rng.next_range(5_000, 9_000)
            };
            ts.record(at, value);
            reference.record_n(value, 1);
        }
        let lens: Vec<usize> = ts.iter().map(|(_, h)| h.counts.len()).collect();
        assert!(lens.contains(&(2 * BLOCK)) && lens.iter().any(|&l| l > 10 * BLOCK));
        assert_same(&ts.merged(), &reference, "merged");
    }
}

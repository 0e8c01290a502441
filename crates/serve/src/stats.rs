//! Per-instance serving health stats: latency histogram, throughput and
//! batch-fill accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Histogram bucket layout: 8 linear sub-buckets per power of two of
/// microseconds (≈12.5 % resolution). The 216 buckets cover
/// `[0, 2^29)` µs ≈ 9 min; larger values saturate into the last bucket.
const SUB_BUCKETS: usize = 8;
const POWERS: usize = 27;
const BUCKETS: usize = SUB_BUCKETS * POWERS;

/// A lock-free log-linear latency histogram over microseconds.
///
/// Recording is a single relaxed atomic increment; percentiles are read
/// from a [`snapshot`](LatencyHistogram::snapshot) as the **midpoint**
/// of the bucket containing the requested rank (≈12.5 % resolution).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn index(micros: u64) -> usize {
        if micros < SUB_BUCKETS as u64 {
            return micros as usize;
        }
        let top = 63 - micros.leading_zeros() as usize; // ≥ 3
        let sub = ((micros >> (top - 3)) & 0b111) as usize;
        ((top - 3) * SUB_BUCKETS + sub + SUB_BUCKETS).min(BUCKETS - 1)
    }

    /// Lower bound (µs) of the values that land in `bucket`.
    ///
    /// Also defined for `bucket == BUCKETS` (the exclusive upper bound of
    /// the last bucket), which [`midpoint`](Self::midpoint) relies on.
    fn lower_bound(bucket: usize) -> u64 {
        if bucket < SUB_BUCKETS {
            return bucket as u64;
        }
        let top = (bucket - SUB_BUCKETS) / SUB_BUCKETS + 3;
        let sub = ((bucket - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        (1u64 << top) + (sub << (top - 3))
    }

    /// Midpoint (µs) of `bucket` — the minimum-bias point estimate for
    /// observations known only to lie somewhere in the bucket.
    ///
    /// Recorded values are integer microseconds, so the midpoint is
    /// taken over the *representable* values `[lower, upper − 1]`; the
    /// unit-width sub-buckets below 8 µs thus stay exact (`[3, 4)` → 3.0,
    /// not 3.5) while wide buckets get the unbiased center.
    fn midpoint(bucket: usize) -> f64 {
        let lower = Self::lower_bound(bucket);
        let last = Self::lower_bound(bucket + 1) - 1;
        (lower as f64 + last as f64) / 2.0
    }

    /// Records one latency observation.
    pub fn record(&self, micros: u64) {
        self.buckets[Self::index(micros)].fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the bucket counts for reading
    /// percentiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Immutable bucket counts read from a [`LatencyHistogram`].
///
/// Snapshots of different histograms [`merge`](HistogramSnapshot::merge)
/// into the histogram of all their observations, which is how fleet
/// percentiles are computed: percentiles themselves do not average.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
}

impl Default for HistogramSnapshot {
    /// The snapshot of an empty histogram.
    fn default() -> Self {
        HistogramSnapshot {
            counts: vec![0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Adds `other`'s observations to this snapshot, bucket by bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (c, &o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile latency in microseconds, or 0.0 when nothing was
    /// recorded.
    ///
    /// Reported as the **midpoint** of the bucket containing the
    /// requested rank. The previous lower-bound estimate systematically
    /// under-reported every percentile by up to one bucket width
    /// (≈12.5 %): all observations in `[lower, upper)` were collapsed
    /// onto `lower`. The midpoint is the unbiased choice absent
    /// intra-bucket information.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ q ≤ 1`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return LatencyHistogram::midpoint(i);
            }
        }
        LatencyHistogram::midpoint(self.counts.len() - 1)
    }
}

/// Shared mutable counters one serving instance updates from its workers.
#[derive(Debug)]
pub(crate) struct StatsCollector {
    pub(crate) requests: AtomicU64,
    pub(crate) batches: AtomicU64,
    /// Sum of `max_batch` over executed batches — the fill denominator.
    pub(crate) batch_slots: AtomicU64,
    /// Batches whose execution panicked (the worker survives; the
    /// batch's reply channels drop, so its clients see a closed server).
    pub(crate) worker_panics: AtomicU64,
    pub(crate) latency: LatencyHistogram,
    pub(crate) started: Instant,
}

impl StatsCollector {
    pub(crate) fn new() -> StatsCollector {
        StatsCollector {
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_slots: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
            started: Instant::now(),
        }
    }

    pub(crate) fn snapshot(&self) -> ServerStats {
        let requests = self.requests.load(Ordering::Relaxed);
        let batches = self.batches.load(Ordering::Relaxed);
        let slots = self.batch_slots.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let hist = self.latency.snapshot();
        ServerStats {
            requests,
            batches,
            batch_fill: if slots == 0 {
                0.0
            } else {
                requests as f64 / slots as f64
            },
            throughput_rps: requests as f64 / elapsed,
            p50_us: hist.quantile(0.50),
            p95_us: hist.quantile(0.95),
            p99_us: hist.quantile(0.99),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            latency: hist,
        }
    }
}

/// A point-in-time health snapshot of one serving instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests answered since the instance started.
    pub requests: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean batch fill: requests served per offered batch slot
    /// (`1.0` = every executed batch was full).
    pub batch_fill: f64,
    /// Requests per second since the instance started.
    pub throughput_rps: f64,
    /// Median queue→reply latency in microseconds.
    pub p50_us: f64,
    /// 95th-percentile latency in microseconds.
    pub p95_us: f64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: f64,
    /// Batches lost to a panic during execution. Zero in a healthy
    /// instance; non-zero means a bug worth chasing, but the worker
    /// pool itself survives.
    pub worker_panics: u64,
    /// The latency histogram the percentiles above were read from. Merge
    /// it with other instances' to get fleet percentiles.
    pub latency: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_round_trip_brackets_the_value() {
        for v in [0u64, 1, 7, 8, 9, 100, 1000, 4096, 123_456, 10_000_000] {
            let idx = LatencyHistogram::index(v);
            let lo = LatencyHistogram::lower_bound(idx);
            let hi = LatencyHistogram::lower_bound(idx + 1);
            assert!(lo <= v && v < hi, "{v} not in [{lo}, {hi})");
        }
    }

    #[test]
    fn bucket_lower_bounds_are_monotonic() {
        let mut prev = 0;
        for i in 1..BUCKETS {
            let lb = LatencyHistogram::lower_bound(i);
            assert!(lb > prev, "bucket {i}: {lb} <= {prev}");
            prev = lb;
        }
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        let p50 = snap.quantile(0.5);
        let p99 = snap.quantile(0.99);
        // Log-linear resolution is 12.5 %; allow a generous envelope.
        // (Rank 500 lands in bucket [480, 512) → midpoint 495.5; rank
        // 990 in [960, 1024) → midpoint 991.5.)
        assert!((400.0..=560.0).contains(&p50), "p50 {p50}");
        assert!((850.0..=1024.0).contains(&p99), "p99 {p99}");
        assert!(snap.quantile(0.0) <= p50 && p50 <= p99);
    }

    /// Regression: `quantile` used to return the bucket *lower* bound,
    /// systematically under-reporting p50/p95/p99 by up to one bucket
    /// width (≈12.5 %). A constant load makes the bias exact: every
    /// observation is 1000 µs, which lands in bucket `[960, 1024)`, so
    /// every percentile must read the 991.5 µs integer midpoint of
    /// `{960 … 1023}` (not 960).
    #[test]
    fn quantile_reports_bucket_midpoint_not_lower_bound() {
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(1000);
        }
        let snap = h.snapshot();
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), 991.5, "q = {q}");
        }
        // Unit-wide sub-buckets hold exactly one integer value, so the
        // midpoint stays exact: 3 µs reads back as 3.0.
        let h = LatencyHistogram::new();
        h.record(3);
        assert_eq!(h.snapshot().quantile(0.5), 3.0);
    }

    /// Wide-bucket midpoints across every power of two the histogram can
    /// resolve: a constant load of `2^k` µs must read back as the exact
    /// integer midpoint of `[2^k, 2^k + 2^(k-3))`, for every quantile.
    /// Computed independently of the private helpers so a bucket-layout
    /// change that shifts the estimate fails loudly.
    #[test]
    fn wide_bucket_midpoints_hold_across_powers_of_two() {
        for k in 3..=25u32 {
            let lo = 1u64 << k;
            let width = 1u64 << (k - 3); // first sub-bucket of octave k
            let expected = (lo as f64 + (lo + width - 1) as f64) / 2.0;
            let h = LatencyHistogram::new();
            for _ in 0..50 {
                h.record(lo);
            }
            let snap = h.snapshot();
            for q in [0.01, 0.5, 0.99, 1.0] {
                assert_eq!(snap.quantile(q), expected, "k = {k}, q = {q}");
            }
            // The estimate never escapes the bucket that produced it.
            assert!((lo as f64) <= expected && expected < (lo + width) as f64);
        }
    }

    /// Every bucket's midpoint lies strictly inside its bounds and the
    /// sequence of midpoints is strictly increasing — quantile estimates
    /// can therefore never invert (p99 < p50) from bucket geometry alone.
    #[test]
    fn bucket_midpoints_are_in_bounds_and_strictly_increasing() {
        let mut prev = -1.0f64;
        for i in 0..BUCKETS {
            let mid = LatencyHistogram::midpoint(i);
            let lo = LatencyHistogram::lower_bound(i) as f64;
            let hi = LatencyHistogram::lower_bound(i + 1) as f64;
            assert!(
                lo <= mid && mid < hi,
                "bucket {i}: {mid} outside [{lo}, {hi})"
            );
            assert!(mid > prev, "bucket {i}: midpoint {mid} <= {prev}");
            prev = mid;
        }
    }

    #[test]
    fn merged_snapshots_hold_every_observation() {
        let (a, b) = (LatencyHistogram::new(), LatencyHistogram::new());
        let both = LatencyHistogram::new();
        for v in [3u64, 500, 500, 70_000] {
            a.record(v);
            both.record(v);
        }
        for v in [9u64, 1 << 20] {
            b.record(v);
            both.record(v);
        }
        let mut merged = HistogramSnapshot::default();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
        assert_eq!(merged.count(), 6);
        assert_eq!(HistogramSnapshot::default().quantile(0.99), 0.0);
    }

    /// The log-linear p99 path through a wide bucket: a 1 % tail at
    /// 2^20 µs must not drag p99 out of the body, while the max quantile
    /// reads the tail bucket's midpoint exactly.
    #[test]
    fn tail_quantile_reads_wide_bucket_midpoint() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(500);
        }
        h.record(1 << 20);
        let snap = h.snapshot();
        // Body: 500 lands in [480, 512) → integer midpoint 495.5.
        assert_eq!(snap.quantile(0.5), 495.5);
        assert_eq!(snap.quantile(0.99), 495.5);
        // Tail: [2^20, 2^20 + 2^17) → midpoint (1048576 + 1179647) / 2.
        assert_eq!(snap.quantile(1.0), 1_114_111.5);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot().quantile(0.5), 0.0);
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn huge_latencies_saturate_the_last_bucket() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().count(), 1);
    }
}

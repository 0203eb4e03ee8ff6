//! The metric primitives: counters, gauges, and fixed-bucket histograms.
//!
//! Everything here is lock-free (plain atomics) and safe to update from
//! any thread: the kernel hot path pays one relaxed `fetch_add` per
//! stage, never a mutex. Reads ([`Histogram::snapshot`]) are advisory —
//! they see each atomic individually, which is exactly the consistency
//! Prometheus-style scrapes expect.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Default latency bucket upper bounds in seconds — sub-millisecond to a
/// minute, roughly geometric. The `rck-serve` batch round-trip and
/// heartbeat-gap histograms use these.
pub const DEFAULT_LATENCY_BOUNDS: &[f64] = &[
    0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 30.0, 60.0,
];

/// A monotonically increasing counter.
///
/// ```
/// use rck_obs::Counter;
///
/// let c = Counter::new();
/// c.inc();
/// c.add(9);
/// assert_eq!(c.get(), 10);
/// ```
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (queue depths, in-flight
/// batches, connected workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raise to `v` if it is below it (a high-water mark).
    pub fn raise_to(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The nearest-rank of percentile `p` in a sample of size `n`: the
/// 1-based index of the order statistic that is the percentile.
///
/// This is the **corrected** formula `⌈p/100 · n⌉` clamped to `[1, n]`.
/// The naive truncating variant (`(p/100 · n) as usize`, then indexing
/// directly) is off by one on small samples: for `n = 1` it indexes
/// element 0 for p50 but element 0·⌊0.99⌋ = 0 only by accident, and for
/// `n = 2` it reports the *second* sample as the median. The serve-layer
/// stats previously carried that bug; the logic now lives here once.
///
/// ```
/// use rck_obs::metric::nearest_rank;
///
/// assert_eq!(nearest_rank(1, 50.0), 1);  // a single sample is every percentile
/// assert_eq!(nearest_rank(2, 50.0), 1);  // median of two = first, not second
/// assert_eq!(nearest_rank(2, 99.0), 2);
/// assert_eq!(nearest_rank(100, 95.0), 95);
/// ```
pub fn nearest_rank(n: u64, p: f64) -> u64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if n == 0 {
        return 0;
    }
    ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n)
}

/// Nearest-rank percentile of an **ascending-sorted** slice; `None` on an
/// empty slice.
///
/// ```
/// use rck_obs::percentile;
///
/// let sorted = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&sorted, 50.0), Some(2.0));
/// assert_eq!(percentile(&sorted, 100.0), Some(4.0));
/// assert_eq!(percentile(&[], 50.0), None);
/// ```
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = nearest_rank(sorted.len() as u64, p);
    if rank == 0 {
        None
    } else {
        Some(sorted[rank as usize - 1])
    }
}

/// A fixed-bucket histogram with atomic bucket counts.
///
/// Buckets are cumulative-style on render (Prometheus `le` semantics) but
/// stored per-interval internally; one extra overflow bucket catches
/// observations above the last bound. The sum is accumulated in f64 bits
/// with a CAS loop, so concurrent observers never lose an update.
///
/// ```
/// use rck_obs::Histogram;
///
/// let h = Histogram::new(&[0.1, 1.0, 10.0]);
/// for v in [0.05, 0.5, 0.5, 2.0] {
///     h.observe(v);
/// }
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.counts, vec![1, 2, 1, 0]); // ≤0.1, ≤1, ≤10, overflow
/// assert_eq!(snap.percentile(50.0), Some(1.0)); // upper bound of median bucket
/// ```
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given strictly increasing, finite upper
    /// bounds. An implicit `+Inf` overflow bucket is appended.
    ///
    /// # Panics
    /// Panics if `bounds` is empty, non-finite, or not strictly
    /// increasing.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must strictly increase");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        let ix = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[ix].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The bucket upper bounds (without the implicit overflow bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Freeze the current counts into a snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Frozen counts of a [`Histogram`] at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-interval counts; one longer than `bounds` (last = overflow).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given bounds.
    pub fn empty(bounds: &[f64]) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Mean of the observed values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Nearest-rank percentile estimate: the **upper bound** of the
    /// bucket holding the rank-⌈p/100·n⌉ observation (see
    /// [`nearest_rank`]). Observations in the overflow bucket report
    /// `f64::INFINITY` — pick a top bound above your expected maximum.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let rank = nearest_rank(self.count, p);
        if rank == 0 {
            return None;
        }
        let mut seen = 0u64;
        for (ix, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if ix < self.bounds.len() {
                    self.bounds[ix]
                } else {
                    f64::INFINITY
                });
            }
        }
        // count said there were observations but the buckets did not —
        // only reachable through a torn concurrent read; report overflow.
        Some(f64::INFINITY)
    }

    /// Merge two snapshots taken over identical bounds (e.g. the same
    /// latency histogram from several workers).
    ///
    /// # Panics
    /// Panics if the bucket bounds differ.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bounds"
        );
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(a, b)| a + b)
                .collect(),
            count: self.count + other.count,
            sum: self.sum + other.sum,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_concurrent_increments_all_land() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(5);
        g.add(3);
        g.sub(10);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0); // lands in ≤1.0, not ≤2.0
        h.observe(1.000001);
        h.observe(2.0);
        h.observe(3.0); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![1, 2, 1]);
        assert_eq!(s.count, 4);
        assert!((s.sum - 7.000001).abs() < 1e-9);
    }

    #[test]
    fn histogram_concurrent_observations_sum_exactly() {
        // Each thread observes integer-valued samples, so the CAS-looped
        // f64 sum must come out exact.
        let h = Arc::new(Histogram::new(&[10.0, 100.0]));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.observe((t * 1000 + i) as f64 % 50.0);
                    }
                })
            })
            .collect();
        for hd in handles {
            hd.join().unwrap();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        let expect: f64 = (0..4)
            .flat_map(|t| (0..1000).map(move |i| ((t * 1000 + i) as f64) % 50.0))
            .sum();
        assert_eq!(s.sum, expect);
    }

    #[test]
    fn percentiles_on_small_samples_are_not_off_by_one() {
        let h = Histogram::new(&[1.0, 2.0, 3.0]);
        h.observe(0.5);
        // One sample: every percentile is that sample's bucket.
        assert_eq!(h.snapshot().percentile(50.0), Some(1.0));
        assert_eq!(h.snapshot().percentile(99.0), Some(1.0));
        h.observe(2.5);
        // Two samples: the median is the FIRST (rank ⌈0.5·2⌉ = 1).
        assert_eq!(h.snapshot().percentile(50.0), Some(1.0));
        assert_eq!(h.snapshot().percentile(99.0), Some(3.0));
    }

    #[test]
    fn percentile_walks_cumulative_counts() {
        let h = Histogram::new(&[1.0, 2.0, 3.0, 4.0]);
        for _ in 0..94 {
            h.observe(0.5);
        }
        for _ in 0..6 {
            h.observe(3.5);
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), Some(1.0));
        assert_eq!(s.percentile(94.0), Some(1.0));
        assert_eq!(s.percentile(95.0), Some(4.0));
        assert_eq!(s.mean(), Some((94.0 * 0.5 + 6.0 * 3.5) / 100.0));
    }

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let s = HistogramSnapshot::empty(&[1.0]);
        assert_eq!(s.percentile(50.0), None);
        assert_eq!(s.mean(), None);
    }

    #[test]
    fn overflow_bucket_reports_infinity() {
        let h = Histogram::new(&[1.0]);
        h.observe(99.0);
        assert_eq!(h.snapshot().percentile(50.0), Some(f64::INFINITY));
    }

    #[test]
    fn merge_adds_counts_and_sums() {
        let a = Histogram::new(&[1.0, 2.0]);
        let b = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        b.observe(1.5);
        b.observe(9.0);
        let m = a.snapshot().merge(&b.snapshot());
        assert_eq!(m.counts, vec![1, 1, 1]);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 11.0);
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn merge_rejects_mismatched_bounds() {
        let a = HistogramSnapshot::empty(&[1.0]);
        let b = HistogramSnapshot::empty(&[2.0]);
        let _ = a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn unsorted_bounds_rejected() {
        let _ = Histogram::new(&[2.0, 1.0]);
    }

    #[test]
    fn exact_percentile_on_sorted_slices() {
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.0));
        assert_eq!(percentile(&[1.0, 2.0], 51.0), Some(2.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
    }
}

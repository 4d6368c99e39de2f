//! Fixed-bucket log-scale histograms for latency families.
//!
//! The runtime's lifecycle phases span six orders of magnitude (a queue
//! residency of 2 µs next to a 2 ms shard execution), which is exactly
//! the regime where a quantile *summary* hides the shape of the
//! distribution: P² converges on a point estimate and throws the rest
//! away. A histogram with log-spaced buckets keeps the whole shape in
//! O(1) memory, merges trivially, and renders as the standard Prometheus
//! `histogram` type (`_bucket{le=…}` cumulative counts + `_sum` +
//! `_count`), so `histogram_quantile()` works server-side too.
//!
//! Bounds are **fixed** — every histogram in the process shares the same
//! ladder ([`bucket_bounds`]) — so per-phase and per-lane series are
//! directly comparable and the exposition stays byte-stable across runs
//! of identical counts.

/// First bucket upper bound, in seconds (1 µs).
pub const BUCKET_START: f64 = 1e-6;
/// Geometric factor between consecutive bucket bounds.
pub const BUCKET_FACTOR: f64 = 2.0;
/// Finite buckets; the ladder tops out at `1e-6 * 2^29 ≈ 537 s`, beyond
/// which observations land in the implicit `+Inf` overflow bucket.
pub const BUCKETS: usize = 30;

/// The shared bucket ladder: upper bounds of the finite buckets, in
/// seconds. Bucket `i` covers `(bound[i-1], bound[i]]` (bucket 0 covers
/// `[0, 1 µs]`).
pub fn bucket_bounds() -> [f64; BUCKETS] {
    let mut bounds = [0.0; BUCKETS];
    let mut b = BUCKET_START;
    for slot in &mut bounds {
        *slot = b;
        b *= BUCKET_FACTOR;
    }
    bounds
}

/// The bucket index an observation of `v` seconds falls into
/// (`BUCKETS` for the `+Inf` overflow bucket).
pub fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= BUCKET_START {
        return 0;
    }
    let idx = (v / BUCKET_START).log2().ceil() as usize;
    idx.min(BUCKETS)
}

/// One log-scale histogram: per-bucket counts plus the running sum, the
/// state behind every `dwi_runtime_phase_seconds`-style family.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: [u64; BUCKETS + 1],
    sum: f64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            counts: [0; BUCKETS + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Record one observation of `v` seconds (negative values clamp to 0).
    pub fn observe(&mut self, v: f64) {
        let v = if v.is_finite() { v.max(0.0) } else { 0.0 };
        self.counts[bucket_index(v)] += 1;
        self.sum += v;
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations, in seconds.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by geometric
    /// interpolation within the target bucket — the same estimate
    /// Prometheus' `histogram_quantile()` produces on this data. Returns
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let bounds = bucket_bounds();
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if (cum as f64) >= rank {
                let upper = if i < BUCKETS {
                    bounds[i]
                } else {
                    // Overflow bucket: report its lower bound.
                    return bounds[BUCKETS - 1];
                };
                let lower = if i == 0 { 0.0 } else { bounds[i - 1] };
                let frac = (rank - (cum - c) as f64) / c.max(1) as f64;
                return lower + (upper - lower) * frac;
            }
        }
        bounds[BUCKETS - 1]
    }

    /// Cumulative `(upper_bound, count)` pairs in exposition order — the
    /// `_bucket{le=…}` lines, `+Inf` (as `f64::INFINITY`) last.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let bounds = bucket_bounds();
        let mut out = Vec::with_capacity(BUCKETS + 1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            let bound = if i < BUCKETS {
                bounds[i]
            } else {
                f64::INFINITY
            };
            out.push((bound, cum));
        }
        out
    }

    /// Fold another histogram into this one (same fixed ladder, so the
    /// merge is per-bucket addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ladder_is_geometric_and_shared() {
        let b = bucket_bounds();
        assert_eq!(b[0], BUCKET_START);
        for w in b.windows(2) {
            assert!((w[1] / w[0] - BUCKET_FACTOR).abs() < 1e-12);
        }
    }

    #[test]
    fn observations_land_in_their_bucket() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e-6), 0);
        assert_eq!(bucket_index(1.1e-6), 1);
        assert_eq!(bucket_index(2e-6), 1);
        assert_eq!(bucket_index(1e9), BUCKETS);
        let mut h = Histogram::new();
        h.observe(1.5e-6);
        h.observe(-3.0); // clamps to 0 → bucket 0
        assert_eq!(h.count(), 2);
        let cum = h.cumulative();
        assert_eq!(cum[0], (BUCKET_START, 1));
        assert_eq!(cum[1].1, 2);
        assert_eq!(cum.last().unwrap().1, 2);
        assert!(cum.last().unwrap().0.is_infinite());
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.observe(3e-6); // bucket (2 µs, 4 µs]
        }
        let p50 = h.quantile(0.5);
        assert!(p50 > 2e-6 && p50 <= 4e-6, "p50 {p50}");
        assert_eq!(h.quantile(0.0), h.quantile(0.01));
        // Bimodal: half at ~3 µs, half at ~3 ms → p99 in the slow mode.
        for _ in 0..100 {
            h.observe(3e-3);
        }
        let p99 = h.quantile(0.99);
        // The slow mode's bucket is (2.048 ms, 4.096 ms].
        assert!(p99 > 2e-3 && p99 <= 4.096e-3, "p99 {p99}");
        assert!((h.mean() - 1.5015e-3).abs() < 1e-5);
    }

    #[test]
    fn merge_adds_per_bucket() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.observe(1e-5);
        b.observe(1e-5);
        b.observe(1e-2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.sum() - (2e-5 + 1e-2)).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }
}

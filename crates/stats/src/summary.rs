//! One-pass descriptive statistics (Welford / Terriberry update rules for
//! mean, variance and skewness).

/// Streaming summary statistics over a sequence of `f64` samples.
///
/// Numerically stable single-pass accumulation of the first three central
/// moments; used in tests to check generated distributions against analytic
/// moments without storing multi-GB sequences.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add many samples.
    pub fn extend(&mut self, xs: &[f64]) {
        for &x in xs {
            self.add(x);
        }
    }

    /// Add many single-precision samples.
    pub fn extend_f32(&mut self, xs: &[f32]) {
        for &x in xs {
            self.add(x as f64);
        }
    }

    /// Merge another accumulator into this one (parallel-reduction support,
    /// Chan et al. pairwise update).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample skewness g1 = m3 / m2^{3/2} (biased/moment form).
    pub fn skewness(&self) -> f64 {
        if self.n < 2 || self.m2 == 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        (n.sqrt() * self.m3) / self.m2.powf(1.5)
    }

    /// Minimum sample (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sample (-∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + b.abs())
    }

    #[test]
    fn mean_and_variance_exact_small_case() {
        let mut s = Summary::new();
        s.extend(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!(close(s.mean(), 5.0, 1e-15));
        // population variance = 4, sample variance = 32/7
        assert!(close(s.variance(), 32.0 / 7.0, 1e-14));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn skewness_zero_for_symmetric() {
        let mut s = Summary::new();
        s.extend(&[-3.0, -1.0, 0.0, 1.0, 3.0]);
        assert!(s.skewness().abs() < 1e-12);
    }

    #[test]
    fn skewness_sign_for_asymmetric() {
        let mut s = Summary::new();
        s.extend(&[0.0, 0.0, 0.0, 0.0, 10.0]); // long right tail
        assert!(s.skewness() > 1.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.13).collect();
        let mut whole = Summary::new();
        whole.extend(&data);
        let mut a = Summary::new();
        let mut b = Summary::new();
        a.extend(&data[..400]);
        b.extend(&data[400..]);
        a.merge(&b);
        assert!(close(a.mean(), whole.mean(), 1e-12));
        assert!(close(a.variance(), whole.variance(), 1e-12));
        assert!(close(a.skewness(), whole.skewness(), 1e-10));
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.extend(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a.mean(), before.mean());
        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.mean(), before.mean());
        assert_eq!(e.count(), 3);
    }

    #[test]
    fn empty_and_singleton_are_safe() {
        let s = Summary::new();
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.skewness(), 0.0);
        let mut s1 = Summary::new();
        s1.add(42.0);
        assert_eq!(s1.mean(), 42.0);
        assert_eq!(s1.variance(), 0.0);
    }
}

//! Empirical cumulative distribution function over a sample.

/// An empirical CDF built from a sample (sorted on construction).
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample; NaNs are rejected.
    pub fn new(mut sample: Vec<f64>) -> Self {
        assert!(!sample.is_empty(), "ECDF needs at least one sample");
        assert!(
            sample.iter().all(|x| !x.is_nan()),
            "ECDF sample contains NaN"
        );
        sample.sort_by(|a, b| a.partial_cmp(b).expect("NaN rejected above"));
        Self { sorted: sample }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sorted sample values.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Empirical quantile (type-1 / inverse-CDF definition).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let e = Ecdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(e.quantile(0.25), 10.0);
        assert_eq!(e.quantile(0.5), 20.0);
        assert_eq!(e.quantile(1.0), 40.0);
        assert_eq!(e.quantile(0.0), 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_sample_panics() {
        let _ = Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "contains NaN")]
    fn nan_sample_panics() {
        let _ = Ecdf::new(vec![1.0, f64::NAN]);
    }
}

//! Deterministic case generation for the workspace's randomized tests.
//!
//! The seed repository's property tests were written against an external
//! property-testing framework; this build runs hermetically (no registry
//! access), so the same case-sweep style is provided here as a tiny,
//! dependency-free generator. Every test that uses [`Rng`] is fully
//! deterministic: a failing case reproduces from the fixed seed alone.

/// SplitMix64 — tiny, high-quality, and sequential-seed friendly.
///
/// ```
/// use dwi_testkit::Rng;
/// let mut r = Rng::new(42);
/// let a = r.next_u64();
/// assert_ne!(a, r.next_u64());
/// assert_eq!(Rng::new(42).next_u64(), a);
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit output (upper half of the 64-bit state).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.f64() * (hi - lo)
    }

    /// Uniform `f32` in `[lo, hi)`.
    pub fn f32_range(&mut self, lo: f32, hi: f32) -> f32 {
        self.f64_range(lo as f64, hi as f64) as f32
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_range(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi)`.
    pub fn u32_range(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_range(lo as u64, hi as u64) as u32
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A vector of `len` uniform `f64`s in `[lo, hi)`.
    pub fn vec_f64(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.f64_range(lo, hi)).collect()
    }

    /// A vector of `len` uniform `f32`s in `[lo, hi)`.
    pub fn vec_f32(&mut self, len: usize, lo: f32, hi: f32) -> Vec<f32> {
        (0..len).map(|_| self.f32_range(lo, hi)).collect()
    }

    /// A vector of `len` fair coin flips.
    pub fn vec_bool(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.bool()).collect()
    }
}

/// Run `f` once per case with a per-case seeded [`Rng`] — the shape the
/// rewritten property tests share. Case index goes into the seed so each
/// case draws an independent stream.
pub fn cases(n: u64, mut f: impl FnMut(&mut Rng)) {
    for i in 0..n {
        let mut rng = Rng::new(0xDECA_F000 ^ i.wrapping_mul(0x5851_F42D_4C95_7F2D));
        f(&mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respected() {
        let mut r = Rng::new(1);
        for _ in 0..10_000 {
            let x = r.f64_range(-3.0, 5.0);
            assert!((-3.0..5.0).contains(&x));
            let u = r.u64_range(10, 20);
            assert!((10..20).contains(&u));
        }
    }

    #[test]
    fn mean_is_roughly_half() {
        let mut r = Rng::new(3);
        let mean = (0..100_000).map(|_| r.f64()).sum::<f64>() / 100_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn cases_reseed_each_case() {
        let mut firsts = Vec::new();
        cases(8, |r| firsts.push(r.next_u64()));
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 8, "cases must draw distinct streams");
    }
}

//! Applications on the unified kernel layer — the paper's reuse claim at
//! the [`WorkItemKernel`] level.
//!
//! The conclusion of the paper: the designer "just needs to rewrite the
//! application function in Listing 2" to retarget the decoupled engine.
//! On the unified layer that means implementing [`WorkItemKernel`] — and
//! every backend (functional threads, lockstep counterfactual, NDRange,
//! cycle-level simulation, SIMT trace replay) runs the new application
//! unchanged. This module provides two such applications beyond the gamma
//! chain of [`GammaListing2`](crate::kernel::GammaListing2):
//!
//! * [`TruncatedNormalKernel`] — Robert's one-sided truncated normal
//!   sampler, the second application,
//! * [`SeverityExpMix`] — a rejection-sampled two-component exponential
//!   mixture for the CreditRisk+ severity tail, the third application.

use crate::kernel::{Divergence, KernelInstance, Step, WorkItemKernel};
use dwi_rng::mt::{AdaptedMt, MtParams, MT19937};
use dwi_rng::uniform::uint2float;
use dwi_rng::RejectionStats;

/// One-sided truncated normal `N(0,1) | X ≥ a` by Robert (1995):
/// exponential proposal with rate `λ = (a + sqrt(a² + 4))/2`, accepted
/// with probability `exp(−(x − λ)²/2)`, emitting `quota` samples per
/// work-item. A textbook rejection method with a data-dependent accept
/// rule and dynamic loop exit — the paper's target algorithm family.
/// Every rejected attempt is a [`Divergence::RejectedApp`] — the
/// sampler's accept rule is the application-level branch.
#[derive(Debug, Clone, Copy)]
pub struct TruncatedNormalKernel {
    /// Truncation point `a ≥ 0` (sample X ≥ a).
    pub a: f32,
    /// Mersenne-Twister parameter set for the two uniform streams.
    pub mt: MtParams,
    /// Base seed; each work-item derives its own streams from it.
    pub seed: u32,
    /// Samples each work-item must emit.
    pub quota: u64,
}

impl TruncatedNormalKernel {
    /// MT19937-backed kernel for truncation point `a`.
    pub fn new(a: f32, quota: u64, seed: u32) -> Self {
        assert!(a >= 0.0, "one-sided sampler needs a >= 0");
        assert!(quota >= 1);
        Self {
            a,
            mt: MT19937,
            seed,
            quota,
        }
    }
}

impl WorkItemKernel for TruncatedNormalKernel {
    fn name(&self) -> &'static str {
        "truncated-normal"
    }

    fn outputs_per_workitem(&self) -> u64 {
        self.quota
    }

    fn param_digest(&self) -> u64 {
        crate::digest::Digest::new()
            .f32(self.a)
            .mt(&self.mt)
            .u32(self.seed)
            .u64(self.quota)
            .finish()
    }

    fn instantiate(&self, wid: u32) -> Box<dyn KernelInstance> {
        let (a, seed) = (self.a, self.seed);
        Box::new(TruncatedNormalInstance {
            a,
            lambda: 0.5 * (a + (a * a + 4.0).sqrt()),
            mt0: AdaptedMt::new(self.mt, seed ^ wid.rotate_left(16) ^ 0x51ED_1234),
            mt1: AdaptedMt::new(self.mt, seed ^ wid.rotate_left(8) ^ 0x0BAD_5EED),
            stats: RejectionStats::new(),
            produced: 0,
            quota: self.quota,
        })
    }
}

struct TruncatedNormalInstance {
    a: f32,
    lambda: f32,
    mt0: AdaptedMt,
    mt1: AdaptedMt,
    stats: RejectionStats,
    produced: u64,
    quota: u64,
}

impl KernelInstance for TruncatedNormalInstance {
    fn step(&mut self) -> Step {
        assert!(self.produced < self.quota, "stepped a completed work-item");
        // Both generators always advance — the same structure Listing 2
        // gives the gamma chain.
        let u0 = uint2float(self.mt0.next(true));
        let u1 = uint2float(self.mt1.next(true));
        // Shifted exponential proposal x = a − ln(u0)/λ; u0 = 0 is an
        // invalid draw and never accepted.
        let x = self.a - u0.ln() / self.lambda;
        let d = x - self.lambda;
        let accept = u0 != 0.0 && u1 < (-0.5 * d * d).exp();
        self.stats.record(accept);
        if !accept {
            return Step {
                emit: None,
                divergence: Divergence::RejectedApp,
                phase_end: None,
                done: false,
            };
        }
        self.produced += 1;
        let done = self.produced == self.quota;
        Step {
            emit: Some(x),
            divergence: Divergence::Accepted,
            phase_end: done.then_some(0),
            done,
        }
    }

    fn stats(&self) -> RejectionStats {
        self.stats
    }
}

/// The third application: rejection-sampled two-component exponential
/// mixture for a CreditRisk+ severity tail.
///
/// CreditRisk+ models loss severities with heavy-tailed mixtures; the
/// common two-regime form is `f(x) = w·λ₁e^{−λ₁x} + (1−w)·λ₂e^{−λ₂x}`
/// with a fast "body" rate `λ₁` and a slow "tail" rate `λ₂ < λ₁`. The
/// sampler proposes from the *tail* component `Exp(λ₂)` (which dominates
/// the mixture) and accepts with probability `f(x)/(M·g(x))` where
/// `M = w·λ₁/λ₂ + (1−w)` — a textbook rejection chain with the same
/// data-dependent accept branch and dynamic loop exit the paper targets.
/// With the CreditRisk+ defaults (`w = 0.5, λ₁ = 2, λ₂ = 0.5`) the
/// acceptance rate is `1/M = 40 %`, i.e. markedly *more* divergent than
/// the gamma chain — a stress case for the lockstep backends.
#[derive(Debug, Clone, Copy)]
pub struct SeverityExpMix {
    /// Weight of the body component, in (0, 1).
    pub w: f32,
    /// Body rate λ₁ (≥ λ₂).
    pub lambda1: f32,
    /// Tail (proposal) rate λ₂ > 0.
    pub lambda2: f32,
    /// Mersenne-Twister parameter set for the two uniform streams.
    pub mt: MtParams,
    /// Base seed; each work-item derives its own streams from it.
    pub seed: u32,
    /// Samples each work-item must emit.
    pub quota: u64,
}

impl SeverityExpMix {
    /// A mixture kernel with explicit parameters (MT19937 streams).
    pub fn new(w: f32, lambda1: f32, lambda2: f32, quota: u64, seed: u32) -> Self {
        assert!((0.0..1.0).contains(&w) && w > 0.0, "weight in (0,1)");
        assert!(lambda2 > 0.0 && lambda1 >= lambda2, "need λ1 ≥ λ2 > 0");
        assert!(quota >= 1);
        Self {
            w,
            lambda1,
            lambda2,
            mt: MT19937,
            seed,
            quota,
        }
    }

    /// The CreditRisk+ severity-tail defaults: `w = 0.5`, body rate 2,
    /// tail rate 0.5 (40 % acceptance).
    pub fn credit_severity(quota: u64, seed: u32) -> Self {
        Self::new(0.5, 2.0, 0.5, quota, seed)
    }

    /// Analytic CDF of the mixture (for distribution validation):
    /// `F(x) = w(1 − e^{−λ₁x}) + (1−w)(1 − e^{−λ₂x})`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let (w, l1, l2) = (self.w as f64, self.lambda1 as f64, self.lambda2 as f64);
        w * (1.0 - (-l1 * x).exp()) + (1.0 - w) * (1.0 - (-l2 * x).exp())
    }

    /// Expected acceptance rate `1/M` of the rejection chain.
    pub fn acceptance_rate(&self) -> f64 {
        let (w, l1, l2) = (self.w as f64, self.lambda1 as f64, self.lambda2 as f64);
        1.0 / (w * l1 / l2 + (1.0 - w))
    }
}

impl WorkItemKernel for SeverityExpMix {
    fn name(&self) -> &'static str {
        "severity-exp-mix"
    }

    fn outputs_per_workitem(&self) -> u64 {
        self.quota
    }

    fn param_digest(&self) -> u64 {
        crate::digest::Digest::new()
            .f32(self.w)
            .f32(self.lambda1)
            .f32(self.lambda2)
            .mt(&self.mt)
            .u32(self.seed)
            .u64(self.quota)
            .finish()
    }

    fn instantiate(&self, wid: u32) -> Box<dyn KernelInstance> {
        Box::new(SeverityInstance {
            cfg: *self,
            // Per-work-item streams, derived like the other applications':
            // wid-rotated xors keep neighbouring ids well separated.
            mt0: AdaptedMt::new(self.mt, self.seed ^ wid.rotate_left(16) ^ 0x5E7E_C0DE),
            mt1: AdaptedMt::new(self.mt, self.seed ^ wid.rotate_left(8) ^ 0x7A11_FACE),
            stats: RejectionStats::new(),
            produced: 0,
        })
    }
}

struct SeverityInstance {
    cfg: SeverityExpMix,
    mt0: AdaptedMt,
    mt1: AdaptedMt,
    stats: RejectionStats,
    produced: u64,
}

impl KernelInstance for SeverityInstance {
    fn step(&mut self) -> Step {
        assert!(
            self.produced < self.cfg.quota,
            "stepped a completed work-item"
        );
        // Both generators always advance — the same fixed-structure
        // pipeline Listing 2 gives the gamma chain.
        let u0 = uint2float(self.mt0.next(true));
        let u1 = uint2float(self.mt1.next(true));
        if u0 == 0.0 {
            // Invalid proposal draw — the generator-stage branch.
            self.stats.record(false);
            return Step {
                emit: None,
                divergence: Divergence::RejectedNormal,
                phase_end: None,
                done: false,
            };
        }
        let (w, l1, l2) = (self.cfg.w, self.cfg.lambda1, self.cfg.lambda2);
        // Proposal from the tail component Exp(λ2).
        let x = -u0.ln() / l2;
        // f(x)/(M·g(x)) = (w·(λ1/λ2)·e^{−(λ1−λ2)x} + (1−w)) / (w·λ1/λ2 + (1−w)).
        let ratio = l1 / l2;
        let accept_p = (w * ratio * (-(l1 - l2) * x).exp() + (1.0 - w)) / (w * ratio + (1.0 - w));
        let accept = u1 < accept_p;
        self.stats.record(accept);
        if accept {
            self.produced += 1;
            let done = self.produced == self.cfg.quota;
            Step {
                emit: Some(x),
                divergence: Divergence::Accepted,
                phase_end: done.then_some(0),
                done,
            }
        } else {
            Step {
                emit: None,
                divergence: Divergence::RejectedApp,
                phase_end: None,
                done: false,
            }
        }
    }

    fn stats(&self) -> RejectionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::reference_samples;

    /// CDF of N(0,1) truncated to [a, ∞).
    fn truncated_cdf(a: f64, x: f64) -> f64 {
        let n = dwi_stats::Normal::new(0.0, 1.0);
        if x <= a {
            return 0.0;
        }
        (n.cdf(x) - n.cdf(a)) / (1.0 - n.cdf(a))
    }

    /// Step work-item 0 to completion; its rejection statistics.
    fn rejection_stats(kernel: &TruncatedNormalKernel) -> RejectionStats {
        let mut inst = kernel.instantiate(0);
        while !inst.step().done {}
        inst.stats()
    }

    #[test]
    fn truncated_normal_matches_the_truncated_cdf() {
        for a in [0.0f32, 1.0, 2.5] {
            let samples = reference_samples(&TruncatedNormalKernel::new(a, 20_000, 99), 0);
            assert!(samples.iter().all(|&x| x >= a));
            let sample: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
            let r = dwi_stats::ks_test(&sample, |x| truncated_cdf(a as f64, x));
            assert!(r.accepts(1e-4), "a={a}: KS p = {}", r.p_value);
        }
    }

    #[test]
    fn truncated_normal_acceptance_above_robert_band() {
        // Robert's λ-tuned proposal accepts well over 70% of attempts.
        let stats = rejection_stats(&TruncatedNormalKernel::new(1.5, 30_000, 3));
        let acc = 1.0 - stats.rejection_rate();
        assert!(acc > 0.7, "acceptance {acc}");
    }

    #[test]
    fn truncated_normal_deep_truncation_stays_cheap() {
        // λ-tuned proposal keeps acceptance healthy even at a = 3.
        let stats = rejection_stats(&TruncatedNormalKernel::new(3.0, 5_000, 5));
        assert!(stats.overhead() < 0.5, "overhead {}", stats.overhead());
    }

    #[test]
    #[should_panic(expected = "a >= 0")]
    fn negative_truncation_panics() {
        TruncatedNormalKernel::new(-1.0, 16, 1);
    }

    #[test]
    fn truncated_normal_kernel_stops_at_quota() {
        let kernel = TruncatedNormalKernel::new(0.5, 64, 7);
        let mut inst = kernel.instantiate(0);
        let mut emitted = 0;
        loop {
            let st = inst.step();
            if st.emit.is_some() {
                emitted += 1;
            }
            if st.done {
                assert_eq!(st.phase_end, Some(0));
                break;
            }
        }
        assert_eq!(emitted, 64);
    }

    #[test]
    fn severity_mixture_distribution_validates() {
        let kernel = SeverityExpMix::credit_severity(30_000, 11);
        let samples = reference_samples(&kernel, 0);
        assert_eq!(samples.len(), 30_000);
        assert!(samples.iter().all(|&x| x > 0.0 && x.is_finite()));
        let sample: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        let r = dwi_stats::ks_test(&sample, |x| kernel.cdf(x));
        assert!(r.accepts(1e-4), "KS p = {}", r.p_value);
    }

    #[test]
    fn severity_acceptance_matches_analytic_rate() {
        let kernel = SeverityExpMix::credit_severity(20_000, 3);
        let mut inst = kernel.instantiate(0);
        loop {
            if inst.step().done {
                break;
            }
        }
        let stats = inst.stats();
        let acc = 1.0 - stats.rejection_rate();
        let expect = kernel.acceptance_rate();
        assert!(
            (acc - expect).abs() < 0.02,
            "acceptance {acc} vs analytic {expect}"
        );
    }

    #[test]
    fn severity_workitems_are_decoupled_streams() {
        // Different work-items draw from disjoint streams.
        let kernel = SeverityExpMix::credit_severity(256, 5);
        let a = reference_samples(&kernel, 0);
        let b = reference_samples(&kernel, 1);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "completed work-item")]
    fn severity_step_past_done_panics() {
        let kernel = SeverityExpMix::credit_severity(4, 1);
        let mut inst = kernel.instantiate(0);
        loop {
            if inst.step().done {
                break;
            }
        }
        inst.step();
    }

    #[test]
    #[should_panic(expected = "λ1 ≥ λ2")]
    fn inverted_rates_panic() {
        SeverityExpMix::new(0.5, 0.5, 2.0, 16, 1);
    }
}

//! Deterministic random sampling.
//!
//! Every stochastic model in the simulation (latency jitter, stragglers,
//! cold-start variance) draws from a [`SimRng`] that is seeded from the
//! experiment configuration, so a given seed always reproduces the same
//! run. Components should [`fork`](SimRng::fork) their own stream so that
//! adding draws in one component does not perturb another.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A shared, cheaply cloneable deterministic RNG stream.
#[derive(Clone)]
pub struct SimRng {
    inner: Rc<RefCell<SmallRng>>,
    spare_normal: Rc<RefCell<Option<f64>>>,
}

impl SimRng {
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: Rc::new(RefCell::new(SmallRng::seed_from_u64(seed))),
            spare_normal: Rc::new(RefCell::new(None)),
        }
    }

    /// Derive an independent child stream. The child's sequence depends only
    /// on the parent's state at fork time.
    pub fn fork(&self) -> SimRng {
        let seed = self.inner.borrow_mut().random::<u64>();
        SimRng::new(seed)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&self) -> f64 {
        self.inner.borrow_mut().random::<f64>()
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range_u64(&self, lo: u64, hi: u64) -> u64 {
        self.inner.borrow_mut().random_range(lo..=hi)
    }

    /// Bernoulli trial.
    pub fn bernoulli(&self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (caching the spare deviate).
    pub fn normal(&self) -> f64 {
        if let Some(z) = self.spare_normal.borrow_mut().take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        *self.spare_normal.borrow_mut() = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Log-normal sample parameterized by its median: returns
    /// `median * exp(sigma * Z)`. Used for latency jitter with heavy tails.
    pub fn lognormal(&self, median: f64, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return median;
        }
        median * (sigma * self.normal()).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = SimRng::new(7);
        let b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.f64(), b.f64());
        }
    }

    #[test]
    fn forked_streams_are_reproducible_but_distinct() {
        let a = SimRng::new(7);
        let fa = a.fork();
        let b = SimRng::new(7);
        let fb = b.fork();
        assert_eq!(fa.f64(), fb.f64());
        assert_ne!(fa.f64(), a.f64());
    }

    #[test]
    fn normal_has_roughly_zero_mean_unit_variance() {
        let rng = SimRng::new(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn lognormal_median_is_parameter() {
        let rng = SimRng::new(1);
        let n = 20_001;
        let mut samples: Vec<f64> = (0..n).map(|_| rng.lognormal(10.0, 0.5)).collect();
        samples.sort_by(f64::total_cmp);
        let median = samples[n / 2];
        assert!((median - 10.0).abs() < 0.5, "median = {median}");
    }

    #[test]
    fn range_bounds_respected() {
        let rng = SimRng::new(3);
        for _ in 0..1000 {
            let v = rng.range_f64(2.0, 5.0);
            assert!((2.0..5.0).contains(&v));
            let u = rng.range_u64(10, 12);
            assert!((10..=12).contains(&u));
        }
    }
}

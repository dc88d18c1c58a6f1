//! Probability distributions with samplers *and* analytic pmf/pdf/cdf.
//!
//! Every distribution the fairness analysis touches is here, each with an
//! exact analytic law next to its sampler so simulations can be validated
//! against theory:
//!
//! * [`Binomial`] — the PoW win count (Theorem 4.2 / Figure 3a);
//! * [`Beta`] — the ML-PoS Pólya-urn limit law (Section 4.3);
//! * [`Gamma`], [`Dirichlet`], [`Multinomial`] — building blocks for Beta
//!   sampling and the C-PoS shard lottery (Section 2.4);
//! * [`Geometric`], [`Exponential`] — block-interval laws behind the
//!   hash-level lotteries in `chain-sim`;
//! * [`Uniform`], [`Normal`], [`Bernoulli`], [`Poisson`] — general
//!   numerics support;
//! * the `*_race_*` helpers — closed forms for "who hits first" lotteries
//!   used to cross-check the consensus engines.

use crate::rng::Xoshiro256StarStar;
use crate::special::{erf, ln_gamma, reg_inc_beta, reg_lower_gamma};

/// A real-valued distribution: analytic density/CDF plus a sampler.
pub trait ContinuousDistribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;
    /// `Pr[X ≤ x]`.
    fn cdf(&self, x: f64) -> f64;
    /// Expected value.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
    /// Draw one value.
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64;
}

/// A distribution over non-negative integers: analytic pmf/CDF plus a
/// sampler.
pub trait DiscreteDistribution {
    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64;
    /// `Pr[X ≤ k]`.
    fn cdf(&self, k: u64) -> f64;
    /// Expected value.
    fn mean(&self) -> f64;
    /// Variance.
    fn variance(&self) -> f64;
    /// Draw one value.
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64;
}

/// Draw a uniform in the open interval `(0, 1)` — safe for logarithms.
fn open_unit(rng: &mut Xoshiro256StarStar) -> f64 {
    loop {
        let u = rng.next_f64();
        if u > 0.0 {
            return u;
        }
    }
}

// ---------------------------------------------------------------------------
// Uniform
// ---------------------------------------------------------------------------

/// Continuous uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Uniform on `[lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and both are finite.
    #[must_use]
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "need lo < hi, got [{lo}, {hi})"
        );
        Self { lo, hi }
    }
}

impl ContinuousDistribution for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x >= self.lo && x < self.hi {
            1.0 / (self.hi - self.lo)
        } else {
            0.0
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
    fn variance(&self) -> f64 {
        let w = self.hi - self.lo;
        w * w / 12.0
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.lo + rng.next_f64() * (self.hi - self.lo)
    }
}

// ---------------------------------------------------------------------------
// Exponential
// ---------------------------------------------------------------------------

/// Exponential with rate `λ` (mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Exponential with rate `λ > 0`.
    ///
    /// # Panics
    /// Panics unless `rate > 0` and finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "rate must be > 0, got {rate}"
        );
        Self { rate }
    }

    /// The rate `λ`.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ContinuousDistribution for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        -open_unit(rng).ln() / self.rate
    }
}

// ---------------------------------------------------------------------------
// Normal
// ---------------------------------------------------------------------------

/// Normal (Gaussian) with the given mean and standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Normal with mean `mu` and standard deviation `sigma > 0`.
    ///
    /// # Panics
    /// Panics unless `sigma > 0` and both parameters are finite.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "mean must be finite, got {mu}");
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be > 0, got {sigma}"
        );
        Self { mu, sigma }
    }

    /// The standard normal quantile function (inverse CDF), by bisection on
    /// the analytic CDF — accurate to ~1e-12, used for confidence bounds.
    #[must_use]
    pub fn standard_quantile(p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile needs p in (0,1), got {p}");
        let std = Normal::new(0.0, 1.0);
        let (mut lo, mut hi) = (-40.0f64, 40.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if std.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

impl ContinuousDistribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * core::f64::consts::PI).sqrt())
    }
    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / (self.sigma * core::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        // Box–Muller.
        let u1 = open_unit(rng);
        let u2 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        self.mu + self.sigma * r * (2.0 * core::f64::consts::PI * u2).cos()
    }
}

// ---------------------------------------------------------------------------
// Gamma
// ---------------------------------------------------------------------------

/// Gamma with shape `k` and scale `θ` (mean `k·θ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Gamma with shape `k > 0` and scale `θ > 0`.
    ///
    /// # Panics
    /// Panics unless both parameters are positive and finite.
    #[must_use]
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(
            shape.is_finite() && shape > 0.0,
            "shape must be > 0, got {shape}"
        );
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be > 0, got {scale}"
        );
        Self { shape, scale }
    }

    /// Marsaglia–Tsang sampler for shape ≥ 1 on the unit scale.
    fn sample_unit_scale(shape: f64, rng: &mut Xoshiro256StarStar) -> f64 {
        if shape < 1.0 {
            // Boost: G(k) = G(k+1) · U^{1/k}.
            let g = Self::sample_unit_scale(shape + 1.0, rng);
            return g * open_unit(rng).powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = Normal::new(0.0, 1.0).sample(rng);
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = open_unit(rng);
            if u.ln() < 0.5 * z * z + d - d * v3 + d * v3.ln() {
                return d * v3;
            }
        }
    }
}

impl ContinuousDistribution for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let y = x / self.scale;
        ((self.shape - 1.0) * y.ln() - y - ln_gamma(self.shape)).exp() / self.scale
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.shape, x / self.scale)
        }
    }
    fn mean(&self) -> f64 {
        self.shape * self.scale
    }
    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        self.scale * Self::sample_unit_scale(self.shape, rng)
    }
}

// ---------------------------------------------------------------------------
// Beta
// ---------------------------------------------------------------------------

/// Beta distribution on `[0, 1]` — the Pólya-urn limit law of ML-PoS
/// (Section 4.3 of the paper): `λ_A → Beta(a/w, (1−a)/w)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// Beta with shape parameters `α > 0`, `β > 0`.
    ///
    /// # Panics
    /// Panics unless both parameters are positive and finite.
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be > 0, got {alpha}"
        );
        assert!(
            beta.is_finite() && beta > 0.0,
            "beta must be > 0, got {beta}"
        );
        Self { alpha, beta }
    }

    /// The first shape parameter `α`.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The second shape parameter `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }
}

impl ContinuousDistribution for Beta {
    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return 0.0;
        }
        if x == 0.0 || x == 1.0 {
            // Density endpoints: finite only for α,β ≥ 1; report 0 for the
            // measure-zero endpoints rather than ±∞.
            return 0.0;
        }
        let ln_b = ln_gamma(self.alpha) + ln_gamma(self.beta) - ln_gamma(self.alpha + self.beta);
        ((self.alpha - 1.0) * x.ln() + (self.beta - 1.0) * (1.0 - x).ln() - ln_b).exp()
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            reg_inc_beta(self.alpha, self.beta, x)
        }
    }
    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }
    fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        let x = Gamma::new(self.alpha, 1.0).sample(rng);
        let y = Gamma::new(self.beta, 1.0).sample(rng);
        x / (x + y)
    }
}

// ---------------------------------------------------------------------------
// Bernoulli
// ---------------------------------------------------------------------------

/// Bernoulli over `{0, 1}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Bernoulli with success probability `p ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        Self { p }
    }
}

impl DiscreteDistribution for Bernoulli {
    fn pmf(&self, k: u64) -> f64 {
        match k {
            0 => 1.0 - self.p,
            1 => self.p,
            _ => 0.0,
        }
    }
    fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            1.0 - self.p
        } else {
            1.0
        }
    }
    fn mean(&self) -> f64 {
        self.p
    }
    fn variance(&self) -> f64 {
        self.p * (1.0 - self.p)
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        u64::from(rng.next_f64() < self.p)
    }
}

// ---------------------------------------------------------------------------
// Binomial
// ---------------------------------------------------------------------------

/// Binomial `Bin(n, p)` — the PoW win-count law (Section 4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Binomial with `n ≥ 1` trials and success probability `p ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics unless `n ≥ 1` and `p ∈ [0, 1]`.
    #[must_use]
    pub fn new(n: u64, p: f64) -> Self {
        assert!(n >= 1, "need at least one trial");
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
        Self { n, p }
    }

    /// Number of trials `n`.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability `p`.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl DiscreteDistribution for Binomial {
    fn pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return 0.0;
        }
        if self.p == 0.0 {
            return if k == 0 { 1.0 } else { 0.0 };
        }
        if self.p == 1.0 {
            return if k == self.n { 1.0 } else { 0.0 };
        }
        let (n, k) = (self.n as f64, k as f64);
        let ln_choose = ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0);
        (ln_choose + k * self.p.ln() + (n - k) * (1.0 - self.p).ln()).exp()
    }
    fn cdf(&self, k: u64) -> f64 {
        if k >= self.n {
            return 1.0;
        }
        if self.p == 0.0 {
            return 1.0;
        }
        if self.p == 1.0 {
            return 0.0; // k < n and all mass is at n
        }
        // Pr[X ≤ k] = I_{1−p}(n−k, k+1).
        reg_inc_beta((self.n - k) as f64, (k + 1) as f64, 1.0 - self.p)
    }
    fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }
    fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        // Direct Bernoulli counting: O(n), exact, and n is small wherever
        // the workspace samples (shard counts, per-block trials).
        let mut wins = 0u64;
        for _ in 0..self.n {
            if rng.next_f64() < self.p {
                wins += 1;
            }
        }
        wins
    }
}

// ---------------------------------------------------------------------------
// Geometric
// ---------------------------------------------------------------------------

/// Geometric over `{1, 2, …}`: number of trials up to and including the
/// first success (mean `1/p`) — the block-interval law of a per-tick
/// lottery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// Geometric with per-trial success probability `p ∈ (0, 1]`.
    ///
    /// # Panics
    /// Panics unless `p ∈ (0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0,1], got {p}");
        Self { p }
    }
}

impl DiscreteDistribution for Geometric {
    fn pmf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        // Log space: stable and exact for huge k (no i32 exponent cast).
        (((k - 1) as f64) * (1.0 - self.p).ln() + self.p.ln()).exp()
    }
    fn cdf(&self, k: u64) -> f64 {
        if k == 0 {
            return 0.0;
        }
        // 1 − (1−p)^k, computed stably in log space for huge k.
        -((1.0 - self.p).ln() * k as f64).exp_m1()
    }
    fn mean(&self) -> f64 {
        1.0 / self.p
    }
    fn variance(&self) -> f64 {
        (1.0 - self.p) / (self.p * self.p)
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u = open_unit(rng);
        let k = (u.ln() / (1.0 - self.p).ln()).ceil();
        if k < 1.0 {
            1
        } else {
            k as u64
        }
    }
}

// ---------------------------------------------------------------------------
// Poisson
// ---------------------------------------------------------------------------

/// Poisson with rate `λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Poisson with rate `λ > 0`.
    ///
    /// # Panics
    /// Panics unless `λ > 0` and finite.
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be > 0, got {lambda}"
        );
        Self { lambda }
    }
}

impl DiscreteDistribution for Poisson {
    fn pmf(&self, k: u64) -> f64 {
        let kf = k as f64;
        (kf * self.lambda.ln() - self.lambda - ln_gamma(kf + 1.0)).exp()
    }
    fn cdf(&self, k: u64) -> f64 {
        // Pr[X ≤ k] = Q(k+1, λ) = 1 − P(k+1, λ).
        1.0 - reg_lower_gamma((k + 1) as f64, self.lambda)
    }
    fn mean(&self) -> f64 {
        self.lambda
    }
    fn variance(&self) -> f64 {
        self.lambda
    }
    fn sample(&self, rng: &mut Xoshiro256StarStar) -> u64 {
        // Inversion by exponential inter-arrival sums in log space, O(λ).
        let mut k = 0u64;
        let mut acc = 0.0f64;
        loop {
            acc += -open_unit(rng).ln();
            if acc >= self.lambda {
                return k;
            }
            k += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Dirichlet
// ---------------------------------------------------------------------------

/// Dirichlet over the probability simplex.
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    alphas: Vec<f64>,
}

impl Dirichlet {
    /// Dirichlet with concentration parameters `α_i > 0`.
    ///
    /// # Panics
    /// Panics if fewer than two parameters are given or any is
    /// non-positive.
    #[must_use]
    pub fn new(alphas: Vec<f64>) -> Self {
        assert!(alphas.len() >= 2, "Dirichlet needs at least two components");
        for (i, &a) in alphas.iter().enumerate() {
            assert!(a.is_finite() && a > 0.0, "alpha[{i}] must be > 0, got {a}");
        }
        Self { alphas }
    }

    /// The concentration parameters.
    #[must_use]
    pub fn alphas(&self) -> &[f64] {
        &self.alphas
    }

    /// Component-wise means `α_i / Σα`.
    #[must_use]
    pub fn mean(&self) -> Vec<f64> {
        let total: f64 = self.alphas.iter().sum();
        self.alphas.iter().map(|&a| a / total).collect()
    }

    /// Draw one point on the simplex (normalized independent Gammas).
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> Vec<f64> {
        let draws: Vec<f64> = self
            .alphas
            .iter()
            .map(|&a| Gamma::new(a, 1.0).sample(rng))
            .collect();
        let total: f64 = draws.iter().sum();
        draws.into_iter().map(|x| x / total).collect()
    }
}

// ---------------------------------------------------------------------------
// Multinomial
// ---------------------------------------------------------------------------

/// Multinomial: `n` independent categorical draws over fixed
/// probabilities — the C-PoS shard-proposer lottery (Section 2.4).
#[derive(Debug, Clone, PartialEq)]
pub struct Multinomial {
    n: u64,
    probs: Vec<f64>,
}

impl Multinomial {
    /// Multinomial with `n` trials over `probs` (non-negative, positive
    /// sum; normalized internally).
    ///
    /// # Panics
    /// Panics if `probs` has fewer than two entries, contains a negative
    /// or non-finite value, or sums to zero.
    #[must_use]
    pub fn new(n: u64, probs: Vec<f64>) -> Self {
        assert!(
            probs.len() >= 2,
            "Multinomial needs at least two categories"
        );
        let mut total = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            assert!(p.is_finite() && p >= 0.0, "probs[{i}] must be ≥ 0, got {p}");
            total += p;
        }
        assert!(total > 0.0, "probabilities must not all be zero");
        let probs = probs.into_iter().map(|p| p / total).collect();
        Self { n, probs }
    }

    /// Component-wise means `n·p_i`.
    #[must_use]
    pub fn mean(&self) -> Vec<f64> {
        self.probs.iter().map(|&p| self.n as f64 * p).collect()
    }

    /// Draw category counts summing to `n`.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> Vec<u64> {
        let mut counts = vec![0u64; self.probs.len()];
        Self::trials_into(self.n, &self.probs, &mut counts, rng);
        counts
    }

    /// The allocation-free equivalent of `Multinomial::new(n,
    /// weights.to_vec()).sample(rng)`: normalizes `weights` into the
    /// caller's `normalized` scratch and accumulates trial counts into
    /// `counts` (cleared and resized in place). Performs bit-for-bit the
    /// same arithmetic and consumes bit-for-bit the same RNG stream as the
    /// allocating path — the simulation hot loops (C-PoS epochs) rely on
    /// that equivalence, and a unit test pins it.
    ///
    /// # Panics
    /// Panics under the same conditions as [`new`](Self::new).
    pub fn sample_weights_into(
        n: u64,
        weights: &[f64],
        normalized: &mut Vec<f64>,
        counts: &mut Vec<u64>,
        rng: &mut Xoshiro256StarStar,
    ) {
        assert!(
            weights.len() >= 2,
            "Multinomial needs at least two categories"
        );
        // Identical accumulation order to `new`, so the normalization
        // divides by the bit-identical total.
        let mut total = 0.0;
        for (i, &p) in weights.iter().enumerate() {
            assert!(p.is_finite() && p >= 0.0, "probs[{i}] must be ≥ 0, got {p}");
            total += p;
        }
        assert!(total > 0.0, "probabilities must not all be zero");
        normalized.clear();
        normalized.extend(weights.iter().map(|&p| p / total));
        counts.clear();
        counts.resize(weights.len(), 0);
        Self::trials_into(n, normalized, counts, rng);
    }

    /// The shared trial loop: `n` categorical draws over already
    /// normalized probabilities, counted into `counts`.
    fn trials_into(n: u64, probs: &[f64], counts: &mut [u64], rng: &mut Xoshiro256StarStar) {
        for _ in 0..n {
            let mut u = rng.next_f64();
            let mut winner = probs.len() - 1;
            for (i, &p) in probs.iter().enumerate() {
                if u < p {
                    winner = i;
                    break;
                }
                u -= p;
            }
            counts[winner] += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Race closed forms
// ---------------------------------------------------------------------------

/// Probability that racer `i` wins an exponential race with the given
/// rates: `λ_i / Σλ` (the memoryless-lottery law behind PoW with
/// continuous time).
///
/// # Panics
/// Panics if `rates` is empty, `i` is out of range, any rate is negative,
/// or all rates are zero.
#[must_use]
pub fn exponential_race_win(rates: &[f64], i: usize) -> f64 {
    assert!(!rates.is_empty(), "need at least one racer");
    assert!(i < rates.len(), "racer index {i} out of range");
    let mut total = 0.0;
    for (j, &r) in rates.iter().enumerate() {
        assert!(r.is_finite() && r >= 0.0, "rate[{j}] must be ≥ 0, got {r}");
        total += r;
    }
    assert!(total > 0.0, "at least one rate must be positive");
    rates[i] / total
}

/// Sample an exponential race: returns `(winner, winning_time)`.
///
/// Racers with zero rate never win.
///
/// # Panics
/// Panics under the same conditions as [`exponential_race_win`].
pub fn sample_exponential_race(rates: &[f64], rng: &mut Xoshiro256StarStar) -> (usize, f64) {
    assert!(!rates.is_empty(), "need at least one racer");
    let mut best: Option<(usize, f64)> = None;
    for (j, &r) in rates.iter().enumerate() {
        assert!(r.is_finite() && r >= 0.0, "rate[{j}] must be ≥ 0, got {r}");
        if r == 0.0 {
            continue;
        }
        let t = Exponential::new(r).sample(rng);
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((j, t));
        }
    }
    best.expect("at least one rate must be positive")
}

/// Probability that a geometric racer with per-round success probability
/// `p_i` strictly beats one with `p_j`:
/// `p_i(1−p_j) / (1 − (1−p_i)(1−p_j))`.
///
/// # Panics
/// Panics unless both probabilities are in `[0, 1]` and not both zero.
#[must_use]
pub fn geometric_race_win(p_i: f64, p_j: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p_i),
        "p_i must be in [0,1], got {p_i}"
    );
    assert!(
        (0.0..=1.0).contains(&p_j),
        "p_j must be in [0,1], got {p_j}"
    );
    assert!(
        p_i > 0.0 || p_j > 0.0,
        "at least one racer must be able to win"
    );
    let q = (1.0 - p_i) * (1.0 - p_j);
    p_i * (1.0 - p_j) / (1.0 - q)
}

/// Probability that two geometric racers hit on the same round:
/// `p_i·p_j / (1 − (1−p_i)(1−p_j))`.
///
/// # Panics
/// Panics under the same conditions as [`geometric_race_win`].
#[must_use]
pub fn geometric_race_tie(p_i: f64, p_j: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p_i),
        "p_i must be in [0,1], got {p_i}"
    );
    assert!(
        (0.0..=1.0).contains(&p_j),
        "p_j must be in [0,1], got {p_j}"
    );
    assert!(
        p_i > 0.0 || p_j > 0.0,
        "at least one racer must be able to win"
    );
    let q = (1.0 - p_i) * (1.0 - p_j);
    p_i * p_j / (1.0 - q)
}

/// Probability that racer `i` wins a geometric race when simultaneous hits
/// are broken in `i`'s favour with probability `tie_win`.
///
/// # Panics
/// Panics unless `tie_win ∈ [0, 1]` and the race probabilities are valid.
#[must_use]
pub fn geometric_race_win_with_tiebreak(p_i: f64, p_j: f64, tie_win: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&tie_win),
        "tie_win must be in [0,1], got {tie_win}"
    );
    geometric_race_win(p_i, p_j) + tie_win * geometric_race_tie(p_i, p_j)
}

// ---------------------------------------------------------------------------
// Adversarial-strategy closed forms
// ---------------------------------------------------------------------------

/// Eyal–Sirer relative revenue of a selfish miner with hash-power share
/// `alpha` and tie-break parameter `gamma` ("Majority is not Enough",
/// Eq. 8):
///
/// ```text
/// R = [α(1−α)²(4α + γ(1−2α)) − α³] / [1 − α(1 + (2−α)α)]
/// ```
///
/// `gamma` is the fraction of honest power that mines on the attacker's
/// branch during a 1-vs-1 tip race. The strategy is profitable exactly when
/// `R > α`, i.e. above [`selfish_mining_threshold`]. The Monte-Carlo fork
/// driver in `fairness-core::adversary` is validated against this law.
///
/// # Panics
/// Panics unless `alpha ∈ [0, 0.5]` and `gamma ∈ [0, 1]`.
#[must_use]
pub fn selfish_mining_relative_revenue(alpha: f64, gamma: f64) -> f64 {
    assert!(
        (0.0..=0.5).contains(&alpha),
        "attacker share must be in [0, 0.5], got {alpha}"
    );
    assert!(
        (0.0..=1.0).contains(&gamma),
        "gamma must be in [0, 1], got {gamma}"
    );
    let a = alpha;
    let numerator = a * (1.0 - a) * (1.0 - a) * (4.0 * a + gamma * (1.0 - 2.0 * a)) - a * a * a;
    let denominator = 1.0 - a * (1.0 + (2.0 - a) * a);
    if denominator <= 0.0 {
        // Only reachable at α = 0.5 boundary round-off: monopoly.
        return 1.0;
    }
    (numerator / denominator).clamp(0.0, 1.0)
}

/// Profitability threshold of Eyal–Sirer selfish mining: withholding beats
/// honest mining iff the attacker's share exceeds `(1−γ)/(3−2γ)`.
///
/// `1/3` at `γ = 0`, `1/4` at `γ = 0.5`, `0` at `γ = 1`.
///
/// # Panics
/// Panics unless `gamma ∈ [0, 1]`.
#[must_use]
pub fn selfish_mining_threshold(gamma: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&gamma),
        "gamma must be in [0, 1], got {gamma}"
    );
    (1.0 - gamma) / (3.0 - 2.0 * gamma)
}

/// Stationary per-block win rate of a stake-grinding miner on a
/// single-lottery PoS chain whose honest per-block win probability is `p`.
///
/// Whenever the grinder authored the previous block she redraws the next
/// lottery's seed up to `tries` times and keeps the first winning draw
/// (falling back to the final draw), boosting her conditional win
/// probability to `g = 1 − (1−p)^tries`. The control bit "did I author the
/// previous block" is a two-state Markov chain whose stationary win rate is
///
/// ```text
/// π = p / (1 + p − g)
/// ```
///
/// `tries = 1` gives `g = p` and `π = p` — grinding degenerates to honest
/// mining. The lottery-redraw adapters in `fairness-core::adversary` and
/// the candidate-nonce grinder in `chain-sim` are validated against this
/// law at frozen stakes.
///
/// # Panics
/// Panics unless `p ∈ [0, 1]` and `tries ≥ 1`.
#[must_use]
pub fn stake_grinding_win_probability(p: f64, tries: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    assert!(tries >= 1, "grinding needs at least one draw");
    let g = 1.0 - (1.0 - p).powi(tries.min(i32::MAX as u32) as i32);
    p / (1.0 + p - g)
}

/// Sybil advantage of a *uniform* rebate lottery: a miner presenting as
/// `identities` addresses among `m` single-identity peers holds
/// `identities` of the `m + identities − 1` tickets, so her expected
/// rebate relative to playing one identity is
///
/// ```text
/// A(m, k) = k·m / (m + k − 1)
/// ```
///
/// `A(100, 10) ≈ 9.17` — the designed value behind the ≈ 9.3× advantage
/// botho measures empirically for uniform lotteries; the value-weighted
/// variant has `A ≡ 1` (splitting stake never changes total ticket
/// weight). The `repro redistribution` Monte-Carlo tables are validated
/// against this law.
///
/// # Panics
/// Panics unless `m ≥ 1` and `identities ≥ 1`.
#[must_use]
pub fn uniform_lottery_sybil_advantage(m: usize, identities: u32) -> f64 {
    assert!(m >= 1, "need at least one miner");
    assert!(identities >= 1, "a miner has at least one identity");
    let m = m as f64;
    let k = f64::from(identities);
    k * m / (m + k - 1.0)
}

/// Expected per-step income share of a `k = identities` Sybil miner under
/// fee-lottery redistribution over `m` equally-staked miners (stakes
/// frozen at the initial split):
///
/// ```text
/// share = (1 − fee)/m + fee · [ k/(m + k − 1)   uniform
///                               1/m             value-weighted ]
/// ```
///
/// The `1 − fee` part flows through the stake-proportional inner
/// protocol, which identity splitting cannot move; the fee pot goes to
/// the rebate lottery, where only the uniform variant counts addresses.
///
/// # Panics
/// Panics unless `m ≥ 1`, `identities ≥ 1` and `fee ∈ [0, 1]`.
#[must_use]
pub fn fee_lottery_income_share(m: usize, identities: u32, fee: f64, weighted: bool) -> f64 {
    assert!(m >= 1, "need at least one miner");
    assert!(identities >= 1, "a miner has at least one identity");
    assert!(
        (0.0..=1.0).contains(&fee),
        "fee must be in [0, 1], got {fee}"
    );
    let base = 1.0 / m as f64;
    let rebate = if weighted {
        base
    } else {
        let k = f64::from(identities);
        k / (m as f64 + k - 1.0)
    };
    (1.0 - fee) * base + fee * rebate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_moments<D: ContinuousDistribution>(d: &D, seed: u64, tol: f64) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - d.mean()).abs() < tol, "mean {mean} vs {}", d.mean());
        assert!(
            (var - d.variance()).abs() < tol * 10.0,
            "var {var} vs {}",
            d.variance()
        );
    }

    #[test]
    fn continuous_samplers_match_moments() {
        check_moments(&Uniform::new(-1.0, 3.0), 1, 0.01);
        check_moments(&Exponential::new(2.0), 2, 0.01);
        check_moments(&Normal::new(1.0, 2.0), 3, 0.02);
        check_moments(&Gamma::new(2.0, 1.5), 4, 0.03);
        check_moments(&Beta::new(2.0, 5.0), 5, 0.005);
    }

    #[test]
    fn binomial_cdf_matches_direct_sum() {
        let bin = Binomial::new(20, 0.3);
        let mut acc = 0.0;
        for k in 0..=20u64 {
            acc += bin.pmf(k);
            assert!((bin.cdf(k) - acc).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn binomial_paper_scale_cdf() {
        // Figure 3(a) scale: n = 5000, a = 0.2. Mean 1000, sd ≈ 28.28.
        let bin = Binomial::new(5000, 0.2);
        let c = bin.cdf(1000);
        assert!((c - 0.5).abs() < 0.02, "median ≈ mean: {c}");
        assert!(bin.cdf(900) < 0.001);
        assert!(bin.cdf(1100) > 0.999);
    }

    #[test]
    fn poisson_cdf_matches_direct_sum() {
        let pois = Poisson::new(4.2);
        let mut acc = 0.0;
        for k in 0..=30u64 {
            acc += pois.pmf(k);
            assert!((pois.cdf(k) - acc).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn geometric_cdf_and_mean() {
        let g = Geometric::new(0.25);
        assert!((g.mean() - 4.0).abs() < 1e-12);
        assert!((g.cdf(1) - 0.25).abs() < 1e-12);
        assert!((g.cdf(2) - 0.4375).abs() < 1e-12);
        assert_eq!(g.cdf(0), 0.0);
    }

    #[test]
    fn geometric_pmf_is_a_probability_for_huge_k() {
        let g = Geometric::new(0.5);
        // Must not wrap through an i32 exponent: stays in [0, 1] and
        // consistent with the log-space cdf.
        let huge = 2_147_483_650u64;
        let p = g.pmf(huge);
        assert!((0.0..=1.0).contains(&p), "{p}");
        assert_eq!(p, 0.0); // (1/2)^(2^31) underflows to exactly 0
        let small = g.pmf(10);
        assert!((small - 0.5f64.powi(10)).abs() < 1e-15);
    }

    #[test]
    fn discrete_samplers_match_means() {
        let mut rng = Xoshiro256StarStar::new(9);
        let n = 100_000;
        let bin = Binomial::new(32, 0.2);
        let pois = Poisson::new(11.5);
        let geo = Geometric::new(0.05);
        let (mut sb, mut sp, mut sg) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            sb += bin.sample(&mut rng) as f64;
            sp += pois.sample(&mut rng) as f64;
            sg += geo.sample(&mut rng) as f64;
        }
        assert!((sb / n as f64 - bin.mean()).abs() < 0.05);
        assert!((sp / n as f64 - pois.mean()).abs() < 0.05);
        assert!((sg / n as f64 - geo.mean()).abs() < 0.3);
    }

    #[test]
    fn multinomial_counts_sum_to_n() {
        let mut rng = Xoshiro256StarStar::new(10);
        let m = Multinomial::new(32, vec![0.2, 0.3, 0.5]);
        let mut totals = [0u64; 3];
        let reps = 20_000;
        for _ in 0..reps {
            let c = m.sample(&mut rng);
            assert_eq!(c.iter().sum::<u64>(), 32);
            for (t, x) in totals.iter_mut().zip(&c) {
                *t += x;
            }
        }
        for (t, want) in totals.iter().zip(m.mean()) {
            let emp = *t as f64 / reps as f64;
            assert!((emp - want).abs() < 0.1, "{emp} vs {want}");
        }
    }

    #[test]
    fn multinomial_sample_weights_into_is_bit_identical() {
        // The zero-allocation path must consume the same RNG stream and
        // produce the same counts as the allocating constructor path —
        // the C-PoS hot loop depends on it for byte-identical figures.
        let weights = vec![0.2, 0.3000000000000001, 0.5, 1e-12];
        let mut a_rng = Xoshiro256StarStar::new(77);
        let mut b_rng = Xoshiro256StarStar::new(77);
        let m = Multinomial::new(32, weights.clone());
        let mut normalized = Vec::new();
        let mut counts = Vec::new();
        for _ in 0..200 {
            let via_alloc = m.sample(&mut a_rng);
            Multinomial::sample_weights_into(
                32,
                &weights,
                &mut normalized,
                &mut counts,
                &mut b_rng,
            );
            assert_eq!(via_alloc, counts);
        }
        // RNG streams stayed aligned throughout.
        assert_eq!(a_rng.next(), b_rng.next());
    }

    #[test]
    fn dirichlet_points_live_on_simplex() {
        let mut rng = Xoshiro256StarStar::new(11);
        let d = Dirichlet::new(vec![2.0, 3.0, 5.0]);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            let total: f64 = x.iter().sum();
            assert!((total - 1.0).abs() < 1e-12);
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn selfish_mining_closed_form_reference_points() {
        // At the γ=0 threshold α = 1/3 the strategy exactly breaks even.
        let r = selfish_mining_relative_revenue(1.0 / 3.0, 0.0);
        assert!((r - 1.0 / 3.0).abs() < 1e-12, "{r}");
        // Below the threshold it strictly loses; above it strictly wins.
        assert!(selfish_mining_relative_revenue(0.25, 0.0) < 0.25);
        assert!(selfish_mining_relative_revenue(0.4, 0.0) > 0.4);
        // γ = 1 makes any positive share profitable.
        assert!(selfish_mining_relative_revenue(0.1, 1.0) > 0.1);
        // Degenerate attacker earns nothing; α = 0.5 monopolizes.
        assert_eq!(selfish_mining_relative_revenue(0.0, 0.5), 0.0);
        assert!((selfish_mining_relative_revenue(0.5, 0.0) - 1.0).abs() < 1e-9);
        // Revenue is monotone in γ.
        let lo = selfish_mining_relative_revenue(0.3, 0.0);
        let mid = selfish_mining_relative_revenue(0.3, 0.5);
        let hi = selfish_mining_relative_revenue(0.3, 1.0);
        assert!(lo < mid && mid < hi, "{lo} {mid} {hi}");
    }

    #[test]
    fn selfish_mining_threshold_reference_points() {
        assert!((selfish_mining_threshold(0.0) - 1.0 / 3.0).abs() < 1e-15);
        assert!((selfish_mining_threshold(0.5) - 0.25).abs() < 1e-15);
        assert_eq!(selfish_mining_threshold(1.0), 0.0);
        // Crossing property: revenue equals α exactly at the threshold.
        for gamma in [0.0, 0.25, 0.5, 0.75] {
            let t = selfish_mining_threshold(gamma);
            let r = selfish_mining_relative_revenue(t, gamma);
            assert!((r - t).abs() < 1e-12, "γ={gamma}: {r} vs {t}");
        }
    }

    #[test]
    fn stake_grinding_reference_points() {
        // One try is honest mining.
        assert!((stake_grinding_win_probability(0.125, 1) - 0.125).abs() < 1e-15);
        // More tries strictly help (until saturation).
        let p = 0.125;
        let w2 = stake_grinding_win_probability(p, 2);
        let w8 = stake_grinding_win_probability(p, 8);
        assert!(p < w2 && w2 < w8, "{w2} {w8}");
        // Hand-computed: p=0.5, tries=2 → g=0.75, π=0.5/0.75=2/3.
        assert!((stake_grinding_win_probability(0.5, 2) - 2.0 / 3.0).abs() < 1e-15);
        // Saturation: many tries → g → 1 → π → p/p = 1.
        let sat = stake_grinding_win_probability(0.3, 1000);
        assert!(sat <= 1.0 && sat > 0.99, "{sat}");
        assert_eq!(stake_grinding_win_probability(0.0, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 0.5]")]
    fn selfish_mining_rejects_majority_share() {
        let _ = selfish_mining_relative_revenue(0.6, 0.0);
    }

    #[test]
    fn fee_lottery_reference_points() {
        // One identity is no attack under either variant.
        assert!((uniform_lottery_sybil_advantage(100, 1) - 1.0).abs() < 1e-15);
        // botho's designed reference: k = 10 of m = 100 → 1000/109 ≈ 9.17
        // (measured ≈ 9.3× for the uniform lottery).
        let adv = uniform_lottery_sybil_advantage(100, 10);
        assert!((adv - 1000.0 / 109.0).abs() < 1e-12, "{adv}");
        // Pure-fee income ratio equals the advantage by construction.
        let ratio = fee_lottery_income_share(100, 10, 1.0, false)
            / fee_lottery_income_share(100, 1, 1.0, false);
        assert!((ratio - adv).abs() < 1e-12, "{ratio}");
        // Value-weighted shares never move with the identity count.
        for k in [1, 2, 10, 50] {
            let share = fee_lottery_income_share(20, k, 0.5, true);
            assert!((share - 0.05).abs() < 1e-15, "k={k}: {share}");
        }
        // Zero fee: everything flows through the proportional inner
        // protocol, identities irrelevant.
        assert!((fee_lottery_income_share(10, 10, 0.0, false) - 0.1).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "at least one identity")]
    fn sybil_advantage_rejects_zero_identities() {
        let _ = uniform_lottery_sybil_advantage(10, 0);
    }

    #[test]
    fn race_probabilities_are_consistent() {
        // Exponential race: probabilities are rate shares.
        assert!((exponential_race_win(&[2.0, 6.0], 0) - 0.25).abs() < 1e-12);
        // Geometric race: win_i + win_j + tie = 1.
        let (pi, pj) = (0.3, 0.2);
        let total =
            geometric_race_win(pi, pj) + geometric_race_win(pj, pi) + geometric_race_tie(pi, pj);
        assert!((total - 1.0).abs() < 1e-12, "{total}");
        // Fair tiebreak splits the tie mass.
        let w = geometric_race_win_with_tiebreak(pi, pj, 0.5);
        assert!(w > geometric_race_win(pi, pj));
        // Symmetric racers with fair tiebreak: ½ each.
        let s = geometric_race_win_with_tiebreak(0.1, 0.1, 0.5);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampled_exponential_race_matches_closed_form() {
        let mut rng = Xoshiro256StarStar::new(12);
        let rates = [1.0, 3.0];
        let n = 100_000;
        let mut wins0 = 0u64;
        for _ in 0..n {
            if sample_exponential_race(&rates, &mut rng).0 == 0 {
                wins0 += 1;
            }
        }
        let emp = wins0 as f64 / n as f64;
        assert!((emp - 0.25).abs() < 0.01, "{emp}");
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let std = Normal::new(0.0, 1.0);
        for &p in &[0.025, 0.5, 0.9, 0.975] {
            let z = Normal::standard_quantile(p);
            assert!((std.cdf(z) - p).abs() < 1e-9, "p={p}");
        }
        assert!((Normal::standard_quantile(0.975) - 1.959_964).abs() < 1e-5);
    }
}

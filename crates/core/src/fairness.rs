//! Fairness definitions (Sections 3.1 and 4.1).
//!
//! * **Expectational fairness** (Definition 3.1): miner A holding a
//!   fraction `a` of the total resource is treated fairly in expectation if
//!   `E[λ_A] = a`, where `λ_A` is her fraction of the total reward.
//! * **(ε, δ)-robust fairness** (Definition 4.1): the protocol is robustly
//!   fair if `Pr[(1−ε)a ≤ λ_A ≤ (1+ε)a] ≥ 1 − δ`. The interval
//!   `[(1−ε)a, (1+ε)a]` is the *fair area*; its complement in `[0, 1]` is
//!   the *unfair area*, and `Pr[λ_A ∉ fair area]` is the *unfair
//!   probability* reported throughout Section 5.

/// The `(ε, δ)` parameters of robust fairness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpsilonDelta {
    /// Relative half-width of the fair area.
    pub epsilon: f64,
    /// Allowed probability mass outside the fair area.
    pub delta: f64,
}

impl Default for EpsilonDelta {
    /// The paper's default: ε = 0.1, δ = 0.1 (Section 5.1).
    fn default() -> Self {
        Self {
            epsilon: 0.1,
            delta: 0.1,
        }
    }
}

impl EpsilonDelta {
    /// Creates an `(ε, δ)` pair.
    ///
    /// # Panics
    /// Panics unless `ε ≥ 0` and `δ ∈ [0, 1]`.
    #[must_use]
    pub fn new(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be >= 0, got {epsilon}");
        assert!(
            (0.0..=1.0).contains(&delta),
            "delta must be in [0,1], got {delta}"
        );
        Self { epsilon, delta }
    }

    /// The fair area `[(1−ε)a, (1+ε)a]` for initial share `a`.
    #[must_use]
    pub fn fair_area(&self, a: f64) -> (f64, f64) {
        ((1.0 - self.epsilon) * a, (1.0 + self.epsilon) * a)
    }

    /// Whether `lambda` lies in the fair area for share `a`.
    ///
    /// A relative slack of 1e-12 absorbs floating-point rounding at the
    /// boundary (e.g. `0.9 × 0.2` is not exactly `0.18` in binary), so a
    /// value mathematically on the boundary is classified as fair.
    #[must_use]
    pub fn is_fair(&self, a: f64, lambda: f64) -> bool {
        let (lo, hi) = self.fair_area(a);
        let slack = 1e-12 * (1.0 + a.abs());
        lambda >= lo - slack && lambda <= hi + slack
    }

    /// Whether an unfair probability satisfies the δ criterion.
    #[must_use]
    pub fn accepts(&self, unfair_probability: f64) -> bool {
        unfair_probability <= self.delta
    }
}

/// Empirical unfair probability: the fraction of outcomes outside the fair
/// area — the paper's main figure-3/5 metric.
///
/// # Panics
/// Panics if `samples` is empty.
#[must_use]
pub fn unfair_probability(samples: &[f64], a: f64, eps_delta: EpsilonDelta) -> f64 {
    assert!(!samples.is_empty(), "unfair probability of empty sample");
    let outside = samples
        .iter()
        .filter(|&&lambda| !eps_delta.is_fair(a, lambda))
        .count();
    outside as f64 / samples.len() as f64
}

/// Empirical expectational-fairness gap `|mean(λ) − a|`.
///
/// # Panics
/// Panics if `samples` is empty.
#[must_use]
pub fn expectational_gap(samples: &[f64], a: f64) -> f64 {
    assert!(!samples.is_empty(), "expectational gap of empty sample");
    let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
    (mean - a).abs()
}

/// Equitability in the sense of Fanti et al. (FC 2019, "Compounding of
/// Wealth in Proof-of-Stake Cryptocurrencies"), discussed in the paper's
/// related work: the ratio of terminal reward-fraction variance to a
/// reference variance. Lower is more equitable; 0 means deterministic
/// outcomes. Here normalized as `Var(λ) / (a(1−a))`, the variance of the
/// "all-or-nothing" game with the same expectation — so values lie in
/// `[0, 1]` for expectationally fair protocols.
///
/// # Panics
/// Panics if `samples` is empty or `a ∉ (0, 1)`.
#[must_use]
pub fn equitability(samples: &[f64], a: f64) -> f64 {
    assert!(!samples.is_empty(), "equitability of empty sample");
    assert!(a > 0.0 && a < 1.0, "share must be in (0,1), got {a}");
    let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
    let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
    var / (a * (1.0 - a))
}

/// Verdict of an empirical fairness evaluation at one horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FairnessVerdict {
    /// Initial resource share of the tracked miner.
    pub share: f64,
    /// Sample mean of `λ`.
    pub mean_lambda: f64,
    /// Empirical unfair probability.
    pub unfair_probability: f64,
    /// Whether `|mean − a|` is within the given tolerance.
    pub expectationally_fair: bool,
    /// Whether the `(ε, δ)` criterion holds.
    pub robustly_fair: bool,
}

impl FairnessVerdict {
    /// Evaluates both fairness notions on an outcome sample.
    ///
    /// `mean_tolerance` is the acceptance band for the expectational check
    /// (statistical, since the mean is estimated from finitely many
    /// repetitions).
    ///
    /// # Panics
    /// Panics if `samples` is empty.
    #[must_use]
    pub fn evaluate(samples: &[f64], a: f64, eps_delta: EpsilonDelta, mean_tolerance: f64) -> Self {
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let unfair = unfair_probability(samples, a, eps_delta);
        Self {
            share: a,
            mean_lambda: mean,
            unfair_probability: unfair,
            expectationally_fair: (mean - a).abs() <= mean_tolerance,
            robustly_fair: eps_delta.accepts(unfair),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let ed = EpsilonDelta::default();
        assert_eq!(ed.epsilon, 0.1);
        assert_eq!(ed.delta, 0.1);
        let (lo, hi) = ed.fair_area(0.2);
        assert!((lo - 0.18).abs() < 1e-15);
        assert!((hi - 0.22).abs() < 1e-15);
    }

    #[test]
    fn fair_area_membership() {
        let ed = EpsilonDelta::default();
        assert!(ed.is_fair(0.2, 0.2));
        assert!(ed.is_fair(0.2, 0.18));
        assert!(ed.is_fair(0.2, 0.22));
        assert!(!ed.is_fair(0.2, 0.1799));
        assert!(!ed.is_fair(0.2, 0.2201));
    }

    #[test]
    fn zero_epsilon_requires_exactness() {
        let ed = EpsilonDelta::new(0.0, 0.0);
        assert!(ed.is_fair(0.2, 0.2));
        assert!(!ed.is_fair(0.2, 0.2000001));
    }

    #[test]
    fn unfair_probability_counts_tails() {
        let ed = EpsilonDelta::default();
        let samples = [0.2, 0.19, 0.21, 0.05, 0.5]; // 2 of 5 outside
        assert!((unfair_probability(&samples, 0.2, ed) - 0.4).abs() < 1e-15);
    }

    #[test]
    fn verdict_for_concentrated_sample() {
        let ed = EpsilonDelta::default();
        let samples = vec![0.2; 100];
        let v = FairnessVerdict::evaluate(&samples, 0.2, ed, 0.01);
        assert!(v.expectationally_fair);
        assert!(v.robustly_fair);
        assert_eq!(v.unfair_probability, 0.0);
    }

    #[test]
    fn verdict_for_bimodal_sample() {
        // The paper's "second game": win everything w.p. 0.2 else nothing —
        // expectationally fair, never robustly fair.
        let ed = EpsilonDelta::default();
        let mut samples = vec![1.0; 200];
        samples.extend(vec![0.0; 800]);
        let v = FairnessVerdict::evaluate(&samples, 0.2, ed, 0.01);
        assert!(v.expectationally_fair, "mean {}", v.mean_lambda);
        assert!(!v.robustly_fair);
        assert_eq!(v.unfair_probability, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn unfair_probability_rejects_empty() {
        let _ = unfair_probability(&[], 0.2, EpsilonDelta::default());
    }

    #[test]
    #[should_panic(expected = "delta must be in")]
    fn rejects_bad_delta() {
        let _ = EpsilonDelta::new(0.1, 1.5);
    }
}

//! Pólya urn machinery.
//!
//! The ML-PoS mining game with two miners *is* a (generalized) Pólya urn:
//! the urn starts with `a` white and `b = 1 − a` black "mass", each draw
//! picks a colour with probability proportional to current mass, and `w`
//! mass of the drawn colour is added back. Mahmoud (2008, Thm 3.2) gives the
//! almost-sure limit `λ_A → Beta(a/w, b/w)`, which Section 4.3 of the paper
//! uses to show ML-PoS is *not* robustly fair for practical `w`.
//!
//! Besides simulation, this module computes the **exact finite-`n`
//! distribution** of the number of wins by dynamic programming — possible
//! because the win probability after `i` draws depends on the path only
//! through the number of previous wins `k`: `p = (a + k·w)/(1 + i·w)`.

use crate::dist::{Beta, ContinuousDistribution};
use crate::rng::Xoshiro256StarStar;

/// A two-colour Pólya urn with continuous mass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolyaUrn {
    /// Initial mass of colour A (the tracked miner).
    a: f64,
    /// Initial mass of colour B (everyone else).
    b: f64,
    /// Mass added to the drawn colour per draw (the block reward).
    w: f64,
}

impl PolyaUrn {
    /// Creates an urn with initial masses `a`, `b` and reinforcement `w`.
    ///
    /// # Panics
    /// Panics unless `a > 0`, `b > 0`, `w > 0`.
    #[must_use]
    pub fn new(a: f64, b: f64, w: f64) -> Self {
        assert!(
            a > 0.0 && a.is_finite(),
            "initial mass a must be > 0, got {a}"
        );
        assert!(
            b > 0.0 && b.is_finite(),
            "initial mass b must be > 0, got {b}"
        );
        assert!(
            w > 0.0 && w.is_finite(),
            "reinforcement w must be > 0, got {w}"
        );
        Self { a, b, w }
    }

    /// Initial A-mass.
    #[must_use]
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Initial B-mass.
    #[must_use]
    pub fn b(&self) -> f64 {
        self.b
    }

    /// Reinforcement per draw.
    #[must_use]
    pub fn w(&self) -> f64 {
        self.w
    }

    /// The almost-sure limit distribution of the fraction of A-draws:
    /// `Beta(a/w, b/w)` (Mahmoud 2008, Theorem 3.2).
    #[must_use]
    pub fn limit_distribution(&self) -> Beta {
        Beta::new(self.a / self.w, self.b / self.w)
    }

    /// Simulates `n` draws, returning the number won by colour A.
    pub fn simulate(&self, n: u64, rng: &mut Xoshiro256StarStar) -> u64 {
        let mut wins = 0u64;
        for i in 0..n {
            let total = self.a + self.b + self.w * i as f64;
            let p = (self.a + self.w * wins as f64) / total;
            if rng.next_f64() < p {
                wins += 1;
            }
        }
        wins
    }

    /// Exact probability mass function of the number of A-wins after `n`
    /// draws, computed by dynamic programming in `O(n²)`.
    ///
    /// Entry `k` of the returned vector is `Pr[#wins = k]`.
    #[must_use]
    pub fn exact_win_distribution(&self, n: usize) -> Vec<f64> {
        let mut probs = vec![0.0f64; n + 1];
        probs[0] = 1.0;
        for i in 0..n {
            let total = self.a + self.b + self.w * i as f64;
            let mut next = vec![0.0f64; n + 1];
            // After i draws only counts 0..=i are reachable.
            for (k, &pk) in probs.iter().enumerate().take(i + 1) {
                if pk == 0.0 {
                    continue;
                }
                let p_win = (self.a + self.w * k as f64) / total;
                next[k + 1] += pk * p_win;
                next[k] += pk * (1.0 - p_win);
            }
            probs = next;
        }
        probs
    }

    /// Exact probability that the fraction of A-wins after `n` draws lies in
    /// `[lo, hi]` (the paper's "fair area" when `lo = (1−ε)a`,
    /// `hi = (1+ε)a`).
    #[must_use]
    pub fn exact_fraction_probability(&self, n: usize, lo: f64, hi: f64) -> f64 {
        let dist = self.exact_win_distribution(n);
        dist.iter()
            .enumerate()
            .filter(|(k, _)| {
                let frac = *k as f64 / n as f64;
                frac >= lo && frac <= hi
            })
            .map(|(_, &p)| p)
            .sum()
    }

    /// Asymptotic probability that the limiting fraction lies in `[lo, hi]`,
    /// from the Beta limit law.
    #[must_use]
    pub fn limit_fraction_probability(&self, lo: f64, hi: f64) -> f64 {
        let beta = self.limit_distribution();
        beta.cdf(hi) - beta.cdf(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_distribution_sums_to_one() {
        let urn = PolyaUrn::new(0.2, 0.8, 0.01);
        for n in [1usize, 10, 50] {
            let d = urn.exact_win_distribution(n);
            let total: f64 = d.iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "n={n}: {total}");
        }
    }

    #[test]
    fn exact_mean_is_expectational_fair() {
        // Theorem 3.3: E[λ_A] = a at every horizon.
        let urn = PolyaUrn::new(0.2, 0.8, 0.05);
        for n in [1usize, 5, 20, 100] {
            let d = urn.exact_win_distribution(n);
            let mean_wins: f64 = d.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
            assert!(
                (mean_wins / n as f64 - 0.2).abs() < 1e-10,
                "n={n}: mean fraction {}",
                mean_wins / n as f64
            );
        }
    }

    #[test]
    fn classic_polya_uniform_special_case() {
        // With a = b = w the classic urn gives a uniform distribution over
        // win counts: Beta(1,1) limit, and exactly uniform at finite n.
        let urn = PolyaUrn::new(1.0, 1.0, 1.0);
        let d = urn.exact_win_distribution(10);
        for &p in &d {
            assert!((p - 1.0 / 11.0).abs() < 1e-12, "{p}");
        }
    }

    #[test]
    fn simulation_agrees_with_exact() {
        let urn = PolyaUrn::new(0.2, 0.8, 0.1);
        let n = 30u64;
        let reps = 100_000;
        let mut rng = Xoshiro256StarStar::new(7);
        let mut counts = vec![0u64; n as usize + 1];
        for _ in 0..reps {
            counts[urn.simulate(n, &mut rng) as usize] += 1;
        }
        let exact = urn.exact_win_distribution(n as usize);
        for (k, &c) in counts.iter().enumerate() {
            let obs = c as f64 / reps as f64;
            let exp = exact[k];
            let se = (exp * (1.0 - exp) / reps as f64).sqrt();
            assert!(
                (obs - exp).abs() < 6.0 * se + 1e-4,
                "k={k}: observed {obs} expected {exp}"
            );
        }
    }

    #[test]
    fn limit_distribution_parameters() {
        let urn = PolyaUrn::new(0.2, 0.8, 0.01);
        let beta = urn.limit_distribution();
        assert!((beta.alpha() - 20.0).abs() < 1e-12);
        assert!((beta.beta() - 80.0).abs() < 1e-12);
        assert!((beta.mean() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn exact_converges_toward_limit() {
        // The exact fair-area mass at n=400 should be within a few percent
        // of the Beta-limit mass for w=0.1 (fast-mixing case).
        let urn = PolyaUrn::new(0.2, 0.8, 0.1);
        let exact = urn.exact_fraction_probability(400, 0.18, 0.22);
        let limit = urn.limit_fraction_probability(0.18, 0.22);
        assert!(
            (exact - limit).abs() < 0.05,
            "exact {exact} vs limit {limit}"
        );
    }

    #[test]
    fn smaller_reward_is_fairer_in_the_limit() {
        // Section 5.4.2: the fair-area mass grows as w shrinks.
        let mass = |w: f64| PolyaUrn::new(0.2, 0.8, w).limit_fraction_probability(0.18, 0.22);
        let m4 = mass(1e-4);
        let m3 = mass(1e-3);
        let m2 = mass(1e-2);
        let m1 = mass(1e-1);
        assert!(m4 > m3 && m3 > m2 && m2 > m1, "{m4} {m3} {m2} {m1}");
        assert!(m4 > 0.999, "w=1e-4 should be almost surely fair, got {m4}");
        assert!(m1 < 0.15, "w=0.1 should be very unfair, got {m1}");
    }

    #[test]
    #[should_panic(expected = "must be > 0")]
    fn rejects_zero_reward() {
        let _ = PolyaUrn::new(0.2, 0.8, 0.0);
    }
}

//! Algorand-style incentive (Section 6.4).
//!
//! Algorand distributes only *inflation* rewards, proportional to wallet
//! stakes, with no proposer reward. The allocation is deterministic given
//! stakes, so every outcome equals the expectation: absolutely fair
//! ((0, 0)-fairness) — at the cost, the paper notes, of weak participation
//! incentives.

use super::assert_positive_reward;
use crate::protocol::{IncentiveProtocol, StepOutcome};
use fairness_stats::rng::Xoshiro256StarStar;

/// Algorand-style inflation-only rewards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Algorand {
    inflation: f64,
}

impl Algorand {
    /// Creates a game distributing `inflation` per step proportionally.
    ///
    /// # Panics
    /// Panics if the inflation reward is non-positive.
    #[must_use]
    pub fn new(inflation: f64) -> Self {
        assert_positive_reward(inflation);
        Self { inflation }
    }
}

impl IncentiveProtocol for Algorand {
    fn name(&self) -> &'static str {
        "Algorand"
    }

    fn reward_per_step(&self) -> f64 {
        self.inflation
    }

    fn params(&self) -> Vec<f64> {
        vec![self.inflation]
    }

    fn step_into(
        &mut self,
        stakes: &[f64],
        _step: u64,
        _rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        let total: f64 = stakes.iter().sum();
        debug_assert!(total.is_finite() && total > 0.0);
        let slots = out.split_slots(stakes.len());
        for (slot, &s) in slots.iter_mut().zip(stakes) {
            *slot = self.inflation * s / total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{run_ensemble, EnsembleConfig};
    use crate::protocol::StepRewards;

    #[test]
    fn deterministic_proportional_split() {
        let mut alg = Algorand::new(0.1);
        let mut rng = Xoshiro256StarStar::new(1);
        let StepRewards::Split(r) = alg.step(&[0.2, 0.8], 0, &mut rng) else {
            panic!("Algorand must split");
        };
        assert!((r[0] - 0.02).abs() < 1e-15);
        assert!((r[1] - 0.08).abs() < 1e-15);
    }

    #[test]
    fn share_ratios_invariant_under_compounding() {
        // s_i' = s_i (1 + v/Σs): proportions never change.
        let mut alg = Algorand::new(0.1);
        let mut rng = Xoshiro256StarStar::new(2);
        let mut stakes = vec![0.2, 0.8];
        for i in 0..100 {
            let StepRewards::Split(r) = alg.step(&stakes, i, &mut rng) else {
                unreachable!()
            };
            for (s, x) in stakes.iter_mut().zip(&r) {
                *s += x;
            }
        }
        let total: f64 = stakes.iter().sum();
        assert!((stakes[0] / total - 0.2).abs() < 1e-12);
    }

    #[test]
    fn algorand_absolutely_fair() {
        let config = EnsembleConfig::paper_default(0.2, 100, 200, 1);
        let last = run_ensemble(&Algorand::new(0.1), &config).final_point();
        assert!((last.mean - 0.2).abs() < 1e-12);
        assert_eq!(last.unfair_probability, 0.0);
        assert!((last.p95 - last.p05).abs() < 1e-12);
    }
}

//! EOS-style delegated PoS incentive (Section 6.4).
//!
//! A fixed committee of delegates proposes blocks in turn, so each delegate
//! receives a **constant** proposer reward per round regardless of stake,
//! plus an inflation reward proportional to stake. Because the constant
//! part is not proportional to stake, neither expectational nor robust
//! fairness holds in general (small delegates are over-paid relative to
//! their stake, large ones under-paid).

use super::assert_positive_reward;
use crate::protocol::{IncentiveProtocol, StepOutcome};
use fairness_stats::rng::Xoshiro256StarStar;

/// EOS-style delegated PoS: equal proposer pay plus proportional inflation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Eos {
    /// Total proposer budget per round, split equally across delegates.
    proposer_reward: f64,
    /// Inflation budget per round, split proportionally to stakes.
    inflation_reward: f64,
}

impl Eos {
    /// Creates an EOS-style game.
    ///
    /// # Panics
    /// Panics unless `proposer_reward > 0` and `inflation_reward ≥ 0`.
    #[must_use]
    pub fn new(proposer_reward: f64, inflation_reward: f64) -> Self {
        assert_positive_reward(proposer_reward);
        assert!(
            inflation_reward.is_finite() && inflation_reward >= 0.0,
            "inflation reward must be non-negative, got {inflation_reward}"
        );
        Self {
            proposer_reward,
            inflation_reward,
        }
    }
}

impl IncentiveProtocol for Eos {
    fn name(&self) -> &'static str {
        "EOS"
    }

    fn reward_per_step(&self) -> f64 {
        self.proposer_reward + self.inflation_reward
    }

    fn params(&self) -> Vec<f64> {
        vec![self.proposer_reward, self.inflation_reward]
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
        let m = stakes.len() as f64;
        let slots = out.split_slots(stakes.len());
        for (slot, &s) in slots.iter_mut().zip(stakes) {
            *slot = self.proposer_reward / m + self.inflation_reward * s / total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{run_ensemble, EnsembleConfig};
    use crate::protocol::StepRewards;

    #[test]
    fn small_delegate_overpaid() {
        // Delegate 0 stakes 10% but receives 50% of the proposer budget.
        let mut eos = Eos::new(0.01, 0.0);
        let mut rng = Xoshiro256StarStar::new(1);
        let StepRewards::Split(r) = eos.step(&[0.1, 0.9], 0, &mut rng) else {
            panic!("EOS must split");
        };
        let frac0 = r[0] / 0.01;
        assert!((frac0 - 0.5).abs() < 1e-12, "{frac0}");
        assert!(frac0 > 0.1, "constant pay over-rewards small delegates");
    }

    #[test]
    fn inflation_component_proportional() {
        let mut eos = Eos::new(1e-9, 0.1);
        let mut rng = Xoshiro256StarStar::new(2);
        let StepRewards::Split(r) = eos.step(&[0.2, 0.8], 0, &mut rng) else {
            unreachable!()
        };
        assert!((r[0] / (r[0] + r[1]) - 0.2).abs() < 1e-6);
    }

    #[test]
    fn total_reward_constant() {
        let mut eos = Eos::new(0.01, 0.05);
        let mut rng = Xoshiro256StarStar::new(3);
        let StepRewards::Split(r) = eos.step(&[0.3, 0.3, 0.4], 0, &mut rng) else {
            unreachable!()
        };
        assert!((r.iter().sum::<f64>() - 0.06).abs() < 1e-12);
    }

    #[test]
    fn eos_expectationally_unfair() {
        // Constant proposer pay: miner A with 20% stake earns
        // w/2 + v·s_A/Σs per step — strictly more than 20% of (w + v) at
        // every step, and the excess compounds into her stake, so the mean
        // reward fraction sits clearly above the fair share.
        let config = EnsembleConfig::paper_default(0.2, 100, 200, 1);
        let last = run_ensemble(&Eos::new(0.01, 0.1), &config).final_point();
        let static_floor = (0.005 + 0.1 * 0.2) / 0.11; // ≈ 0.227, pre-compounding
        assert!(
            last.mean > static_floor - 1e-9,
            "{} should exceed the static floor {static_floor}",
            last.mean
        );
        assert!(last.mean > 0.2 + 0.01, "small delegate over-paid");
    }
}

//! NEO-style incentive (Section 6.4).
//!
//! NEO pays rewards in a *separate asset* (NEO Gas) that carries no future
//! mining power, so the lottery weight stays pinned at the initial base
//! -asset shares. The dynamics are therefore identical to PoW: i.i.d.
//! proposer draws proportional to a fixed resource — both fairness notions
//! hold for long games.

use super::assert_positive_reward;
use crate::protocol::{IncentiveProtocol, StepOutcome};
use fairness_stats::rng::Xoshiro256StarStar;

/// NEO-style PoS with a non-compounding reward asset.
#[derive(Debug, Clone, PartialEq)]
pub struct Neo {
    /// Fixed base-asset shares.
    shares: Vec<f64>,
    reward: f64,
}

impl Neo {
    /// Creates a NEO-style game.
    ///
    /// # Panics
    /// Panics on invalid shares or non-positive reward.
    #[must_use]
    pub fn new(shares: &[f64], reward: f64) -> Self {
        assert_positive_reward(reward);
        Self {
            shares: crate::miner::normalize_shares(shares),
            reward,
        }
    }
}

impl IncentiveProtocol for Neo {
    fn name(&self) -> &'static str {
        "NEO"
    }

    fn reward_per_step(&self) -> f64 {
        self.reward
    }

    fn params(&self) -> Vec<f64> {
        let mut p = vec![self.reward];
        p.extend_from_slice(&self.shares);
        p
    }

    fn rewards_compound(&self) -> bool {
        // Gas rewards never become staking power.
        false
    }

    fn step_into(
        &self,
        stakes: &[f64],
        _step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        debug_assert!(!stakes.is_empty());
        // Fixed voting shares: one sampler build per game, O(log m) draws.
        let w = out.weighted_winner(&self.shares, rng);
        out.set_winner(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StepRewards;

    #[test]
    fn behaves_like_pow() {
        let neo = Neo::new(&[0.2, 0.8], 0.01);
        assert!(!neo.rewards_compound());
        let mut rng = Xoshiro256StarStar::new(1);
        let mut wins = 0u64;
        let n = 100_000;
        for i in 0..n {
            // Stakes diverge wildly; NEO keeps using initial shares.
            if let StepRewards::Winner(0) = neo.step(&[5.0, 0.1], i, &mut rng) {
                wins += 1;
            }
        }
        let frac = wins as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.006, "{frac}");
    }
}

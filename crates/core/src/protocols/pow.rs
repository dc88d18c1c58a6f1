//! PoW incentive model (Section 2.1).
//!
//! The proposer of each block is drawn i.i.d. with probability proportional
//! to *hash power*, which is fixed at game start — mining rewards buy no
//! additional hash power (Assumption 4 rules out reinvestment actions).
//! Hence the win count is `Bin(n, a)`: expectationally fair (Theorem 3.2)
//! and robustly fair for `n ≥ ln(2/δ)/(2a²ε²)` (Theorem 4.2).

use super::assert_positive_reward;
use crate::protocol::{IncentiveProtocol, StepOutcome};
use fairness_stats::rng::Xoshiro256StarStar;

/// Proof-of-Work.
#[derive(Debug, Clone, PartialEq)]
pub struct Pow {
    /// Fixed hash-power shares (normalized at construction).
    shares: Vec<f64>,
    /// Reward per block.
    reward: f64,
}

impl Pow {
    /// Creates a PoW game with the given hash-power shares and block
    /// reward.
    ///
    /// # Panics
    /// Panics if shares are invalid or the reward non-positive.
    #[must_use]
    pub fn new(shares: &[f64], reward: f64) -> Self {
        assert_positive_reward(reward);
        Self {
            shares: crate::miner::normalize_shares(shares),
            reward,
        }
    }

    /// The fixed hash-power shares.
    #[must_use]
    pub fn shares(&self) -> &[f64] {
        &self.shares
    }
}

impl IncentiveProtocol for Pow {
    fn name(&self) -> &'static str {
        "PoW"
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
        // Stakes earned do not add hash power.
        false
    }

    fn step_into(
        &self,
        stakes: &[f64],
        _step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        debug_assert_eq!(stakes.len(), self.shares.len());
        // The hash-power weights never change, so the sampler keyed to
        // `self.shares` builds once per game and every draw is O(log m).
        let w = out.weighted_winner(&self.shares, rng);
        out.set_winner(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StepRewards;

    #[test]
    fn win_rate_matches_hash_power_not_stakes() {
        let pow = Pow::new(&[0.2, 0.8], 0.01);
        let mut rng = Xoshiro256StarStar::new(1);
        // Give miner 0 overwhelming *stake*; PoW must ignore it.
        let stakes = vec![100.0, 1.0];
        let n = 100_000;
        let mut wins = 0u64;
        for i in 0..n {
            if let StepRewards::Winner(0) = pow.step(&stakes, i, &mut rng) {
                wins += 1;
            }
        }
        let frac = wins as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.006, "{frac}");
    }

    #[test]
    fn properties() {
        let pow = Pow::new(&[2.0, 8.0], 0.01); // unnormalized input ok
        assert_eq!(pow.name(), "PoW");
        assert!(!pow.rewards_compound());
        assert_eq!(pow.reward_per_step(), 0.01);
        assert!((pow.shares()[0] - 0.2).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "reward must be positive")]
    fn rejects_zero_reward() {
        let _ = Pow::new(&[0.5, 0.5], 0.0);
    }
}

//! ML-PoS incentive model (Section 2.2).
//!
//! The proposer is drawn with probability proportional to *current* stakes
//! (the small-`p` limit of the geometric timestamp race; the exact race
//! including ties is implemented at hash level in `chain-sim` and matches
//! this limit to within `p_A·p_B` terms). Rewards compound, so the process
//! is a Pólya urn: expectationally fair (Theorem 3.3) with terminal law
//! `Beta(a/w, b/w)` — robustly fair only when `1/n + w ≤ 2a²ε²/ln(2/δ)`
//! (Theorem 4.3).

use super::assert_positive_reward;
use crate::protocol::{IncentiveProtocol, StepOutcome};
use fairness_stats::rng::Xoshiro256StarStar;

/// Multi-lottery Proof-of-Stake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MlPos {
    reward: f64,
}

impl MlPos {
    /// Creates an ML-PoS game with block reward `w` (normalized against an
    /// initial circulation of 1).
    ///
    /// # Panics
    /// Panics if the reward is non-positive.
    #[must_use]
    pub fn new(reward: f64) -> Self {
        assert_positive_reward(reward);
        Self { reward }
    }
}

impl IncentiveProtocol for MlPos {
    fn name(&self) -> &'static str {
        "ML-PoS"
    }

    fn reward_per_step(&self) -> f64 {
        self.reward
    }

    fn params(&self) -> Vec<f64> {
        vec![self.reward]
    }

    /// The compounding hot path: the proposer draw goes through the
    /// outcome's incremental Fenwick sampler — O(log m) per block once
    /// the game loop feeds stake credits back via
    /// [`StepOutcome::note_weight_increment`], instead of the O(m)
    /// re-sum-and-scan per block. Same uniform draw, same winner (the
    /// descent inverts the same prefix-sum as the linear scan).
    fn step_into(
        &self,
        stakes: &[f64],
        _step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        let w = out.weighted_winner(stakes, rng);
        out.set_winner(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StepRewards;

    #[test]
    fn win_rate_tracks_current_stakes() {
        let ml = MlPos::new(0.01);
        let mut rng = Xoshiro256StarStar::new(1);
        let stakes = vec![0.7, 0.3];
        let n = 100_000;
        let mut wins = 0u64;
        for i in 0..n {
            if let StepRewards::Winner(0) = ml.step(&stakes, i, &mut rng) {
                wins += 1;
            }
        }
        let frac = wins as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.006, "{frac}");
    }

    #[test]
    fn compounds() {
        assert!(MlPos::new(0.01).rewards_compound());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_negative_reward() {
        let _ = MlPos::new(-0.01);
    }
}

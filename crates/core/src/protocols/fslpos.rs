//! FSL-PoS — the paper's fair single-lottery treatment (Section 6.2).
//!
//! Replaces the uniform ticket with an exponential one via inverse-transform
//! sampling: `T_i = −ln(1 − U_i)/s_i ~ Exp(s_i)`, so
//! `Pr[i wins] = s_i/Σs` exactly. This restores expectational fairness; the
//! compounding reward still leaves robust fairness unmet (Figure 6a) unless
//! combined with reward withholding (Figure 6b).

use super::assert_positive_reward;
use crate::protocol::{IncentiveProtocol, StepOutcome};
use fairness_stats::rng::Xoshiro256StarStar;

/// Fair single-lottery Proof-of-Stake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FslPos {
    reward: f64,
}

impl FslPos {
    /// Creates an FSL-PoS game with block reward `w`.
    ///
    /// # Panics
    /// Panics if the reward is non-positive.
    #[must_use]
    pub fn new(reward: f64) -> Self {
        assert_positive_reward(reward);
        Self { reward }
    }

    /// Samples the winner of the exponential race: the shared
    /// seed-then-race kernel with exponential tickets
    /// (`-ln(1 − U)` via `ln_1p` for accuracy near zero).
    #[inline]
    pub fn sample_winner(stakes: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
        super::waiting_time_race(stakes, rng, |u| -(-u).ln_1p())
    }
}

impl IncentiveProtocol for FslPos {
    fn name(&self) -> &'static str {
        "FSL-PoS"
    }

    fn reward_per_step(&self) -> f64 {
        self.reward
    }

    fn params(&self) -> Vec<f64> {
        vec![self.reward]
    }

    fn step_into(
        &mut self,
        stakes: &[f64],
        _step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        debug_assert!(stakes.iter().sum::<f64>() > 0.0);
        out.set_winner(Self::sample_winner(stakes, rng));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StepRewards;

    #[test]
    fn win_rate_proportional_to_stake() {
        let mut fsl = FslPos::new(0.01);
        let mut rng = Xoshiro256StarStar::new(1);
        let stakes = vec![0.2, 0.8];
        let n = 200_000;
        let mut wins = 0u64;
        for i in 0..n {
            if let StepRewards::Winner(0) = fsl.step(&stakes, i, &mut rng) {
                wins += 1;
            }
        }
        let frac = wins as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.004, "{frac} vs 0.2");
    }

    #[test]
    fn multi_miner_proportionality() {
        let mut fsl = FslPos::new(0.01);
        let mut rng = Xoshiro256StarStar::new(2);
        let stakes = vec![0.1, 0.3, 0.6];
        let n = 200_000;
        let mut counts = [0u64; 3];
        for i in 0..n {
            if let StepRewards::Winner(w) = fsl.step(&stakes, i, &mut rng) {
                counts[w] += 1;
            }
        }
        for (i, &s) in stakes.iter().enumerate() {
            let frac = counts[i] as f64 / n as f64;
            assert!((frac - s).abs() < 0.005, "miner {i}: {frac} vs {s}");
        }
    }

    #[test]
    fn differs_from_slpos_for_unequal_stakes() {
        // Sanity: the treatment changes the first-block distribution.
        use super::super::SlPos;
        let mut rng = Xoshiro256StarStar::new(3);
        let stakes = vec![0.2, 0.8];
        let n = 100_000;
        let mut fsl_wins = 0u64;
        let mut sl_wins = 0u64;
        for _ in 0..n {
            if FslPos::sample_winner(&stakes, &mut rng) == 0 {
                fsl_wins += 1;
            }
            if SlPos::sample_winner(&stakes, &mut rng) == 0 {
                sl_wins += 1;
            }
        }
        let f = fsl_wins as f64 / n as f64;
        let s = sl_wins as f64 / n as f64;
        assert!(
            f > s + 0.05,
            "FSL {f} should exceed SL {s} by the fairness gap"
        );
    }
}

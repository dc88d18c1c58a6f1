//! SL-PoS incentive model (Section 2.3).
//!
//! Each miner draws one uniform ticket `U_i` and the candidate with the
//! smallest waiting time `U_i/s_i` wins — the continuous limit of NXT's
//! `time = basetime·Hash(pk)/stake`. The winner is *not* proportional to
//! stake (`Pr[A wins] = a/(2b)` for `a ≤ b`, Eq. 1), so SL-PoS is
//! expectationally unfair (Theorem 3.4) and monopolizes almost surely
//! (Theorem 4.9).

use super::assert_positive_reward;
use crate::protocol::{IncentiveProtocol, StepOutcome};
use fairness_stats::rng::Xoshiro256StarStar;

/// Single-lottery Proof-of-Stake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlPos {
    reward: f64,
}

impl SlPos {
    /// Creates an SL-PoS game with block reward `w`.
    ///
    /// # Panics
    /// Panics if the reward is non-positive.
    #[must_use]
    pub fn new(reward: f64) -> Self {
        assert_positive_reward(reward);
        Self { reward }
    }

    /// Samples the winner of the `U_i/s_i` race. Zero-stake miners never
    /// win (and draw no ticket).
    ///
    /// The two-miner case — the paper's default setup and the bulk of
    /// every sweep — is special-cased to a branch-free compare; the
    /// general loop keeps the running best in plain registers. Both paths
    /// perform exactly the original draw sequence and comparisons, so
    /// winners are bit-identical to the first implementation.
    #[inline]
    pub fn sample_winner(stakes: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
        if let [a, b] = *stakes {
            if a > 0.0 && b > 0.0 {
                // First positive-stake miner seeds the race; the second
                // wins on a strictly smaller waiting time — identical to
                // the general loop below.
                let ta = rng.next_f64() / a;
                let tb = rng.next_f64() / b;
                return usize::from(tb < ta);
            }
        }
        // Arbitrary-m path, kept out of the inlined fast path: uniform
        // tickets into the shared seed-then-race kernel.
        super::waiting_time_race(stakes, rng, |u| u)
    }
}

impl IncentiveProtocol for SlPos {
    fn name(&self) -> &'static str {
        "SL-PoS"
    }

    fn reward_per_step(&self) -> f64 {
        self.reward
    }

    fn params(&self) -> Vec<f64> {
        vec![self.reward]
    }

    #[inline]
    fn step_into(
        &self,
        stakes: &[f64],
        _step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        debug_assert!(stakes.iter().sum::<f64>() > 0.0);
        out.set_winner(Self::sample_winner(stakes, rng));
    }

    fn slpos_core_reward(&self) -> Option<f64> {
        Some(self.reward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StepRewards;

    #[test]
    fn two_miner_win_rate_is_half_share_ratio() {
        // Eq. (1): stakes 0.2/0.8 → Pr[A] = 0.2/(2·0.8) = 0.125.
        let sl = SlPos::new(0.01);
        let mut rng = Xoshiro256StarStar::new(1);
        let stakes = vec![0.2, 0.8];
        let n = 200_000;
        let mut wins = 0u64;
        for i in 0..n {
            if let StepRewards::Winner(0) = sl.step(&stakes, i, &mut rng) {
                wins += 1;
            }
        }
        let frac = wins as f64 / n as f64;
        assert!((frac - 0.125).abs() < 0.004, "{frac} vs 0.125");
    }

    #[test]
    fn equal_stakes_symmetric() {
        let sl = SlPos::new(0.01);
        let mut rng = Xoshiro256StarStar::new(2);
        let stakes = vec![0.5, 0.5];
        let n = 100_000;
        let mut wins = 0u64;
        for i in 0..n {
            if let StepRewards::Winner(0) = sl.step(&stakes, i, &mut rng) {
                wins += 1;
            }
        }
        let frac = wins as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.006, "{frac}");
    }

    #[test]
    fn multi_miner_matches_lemma_6_1_integral() {
        // Validated against theory::slpos::win_probabilities in the theory
        // tests; here check a coarse property: the largest miner wins more
        // than her share, the smallest less.
        let sl = SlPos::new(0.01);
        let mut rng = Xoshiro256StarStar::new(3);
        let stakes = vec![0.1, 0.3, 0.6];
        let n = 200_000;
        let mut counts = [0u64; 3];
        for i in 0..n {
            if let StepRewards::Winner(w) = sl.step(&stakes, i, &mut rng) {
                counts[w] += 1;
            }
        }
        let f0 = counts[0] as f64 / n as f64;
        let f2 = counts[2] as f64 / n as f64;
        assert!(f0 < 0.1, "small miner over-wins: {f0}");
        assert!(f2 > 0.6, "large miner under-wins: {f2}");
    }

    #[test]
    fn zero_stake_never_wins() {
        let mut rng = Xoshiro256StarStar::new(4);
        for _ in 0..1000 {
            assert_eq!(SlPos::sample_winner(&[0.0, 1.0], &mut rng), 1);
        }
    }
}

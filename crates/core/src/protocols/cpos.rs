//! C-PoS incentive model (Section 2.4, Ethereum 2.0 style).
//!
//! Each epoch: `X ~ Bin(P, s_i/Σs)` of the `P` shard proposers belong to
//! miner `i`, earning `w·X_i/P`; attesters earn the inflation reward
//! `v·s_i/Σs` deterministically. Expectationally fair (Theorem 3.5) and
//! robustly fair when `w²(1/n + w + v)/((w+v)²·P) ≤ 2a²ε²/ln(2/δ)`
//! (Theorem 4.10) — the inflation reward and the sharding both shrink the
//! proposer-lottery variance.

use super::assert_positive_reward;
use crate::protocol::{IncentiveProtocol, StepOutcome};
use fairness_stats::dist::Multinomial;
use fairness_stats::rng::Xoshiro256StarStar;

/// Compound Proof-of-Stake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CPos {
    /// Proposer reward per epoch (`w`).
    proposer_reward: f64,
    /// Inflation/attester reward per epoch (`v`).
    inflation_reward: f64,
    /// Shards per epoch (`P`).
    shards: u32,
}

impl CPos {
    /// Creates a C-PoS game.
    ///
    /// # Panics
    /// Panics unless `w > 0`, `v ≥ 0` and `shards ≥ 1`.
    #[must_use]
    pub fn new(proposer_reward: f64, inflation_reward: f64, shards: u32) -> Self {
        assert_positive_reward(proposer_reward);
        assert!(
            inflation_reward.is_finite() && inflation_reward >= 0.0,
            "inflation reward must be non-negative, got {inflation_reward}"
        );
        assert!(shards >= 1, "C-PoS needs at least one shard");
        Self {
            proposer_reward,
            inflation_reward,
            shards,
        }
    }

    /// Ethereum 2.0-like defaults relative to a unit initial circulation:
    /// the paper's Figure 2(d) setting `w = 0.01, v = 0.1, P = 32`.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(0.01, 0.1, 32)
    }

    /// The proposer reward `w`.
    #[must_use]
    pub fn proposer_reward(&self) -> f64 {
        self.proposer_reward
    }

    /// The inflation reward `v`.
    #[must_use]
    pub fn inflation_reward(&self) -> f64 {
        self.inflation_reward
    }

    /// Shard count `P`.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }
}

impl IncentiveProtocol for CPos {
    fn name(&self) -> &'static str {
        "C-PoS"
    }

    fn reward_per_step(&self) -> f64 {
        self.proposer_reward + self.inflation_reward
    }

    fn params(&self) -> Vec<f64> {
        vec![
            self.proposer_reward,
            self.inflation_reward,
            f64::from(self.shards),
        ]
    }

    /// One epoch without a single heap allocation: share probabilities,
    /// multinomial scratch and trial counts all borrow the outcome's
    /// pooled buffers, and the trial loop is
    /// [`Multinomial::sample_weights_into`] — bit-for-bit the arithmetic
    /// and RNG stream of the allocating path.
    fn step_into(
        &self,
        stakes: &[f64],
        _step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        let total: f64 = stakes.iter().sum();
        debug_assert!(total.is_finite() && total > 0.0);
        let m = stakes.len();
        let mut probs = out.take_f64();
        probs.extend(stakes.iter().map(|&s| s / total));
        // Proposer lottery: X ~ Multinomial(P, probs).
        let mut normalized = out.take_f64();
        let mut counts = out.take_u64();
        if m == 1 {
            counts.push(self.shards as u64);
        } else {
            Multinomial::sample_weights_into(
                self.shards as u64,
                &probs,
                &mut normalized,
                &mut counts,
                rng,
            );
        }
        let per_shard = self.proposer_reward / self.shards as f64;
        let slots = out.split_slots(m);
        for ((slot, &x), &p) in slots.iter_mut().zip(&counts).zip(&probs) {
            *slot = x as f64 * per_shard + self.inflation_reward * p;
        }
        out.give_f64(probs);
        out.give_f64(normalized);
        out.give_u64(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::StepRewards;

    #[test]
    fn split_sums_to_step_reward() {
        let cpos = CPos::paper_default();
        let mut rng = Xoshiro256StarStar::new(1);
        let stakes = vec![0.2, 0.3, 0.5];
        for i in 0..100 {
            let StepRewards::Split(r) = cpos.step(&stakes, i, &mut rng) else {
                panic!("C-PoS must split");
            };
            let total: f64 = r.iter().sum();
            assert!((total - 0.11).abs() < 1e-12, "{total}");
        }
    }

    #[test]
    fn mean_reward_proportional_to_stake() {
        let cpos = CPos::paper_default();
        let mut rng = Xoshiro256StarStar::new(2);
        let stakes = vec![0.2, 0.8];
        let n = 50_000;
        let mut sum0 = 0.0;
        for i in 0..n {
            let StepRewards::Split(r) = cpos.step(&stakes, i, &mut rng) else {
                unreachable!()
            };
            sum0 += r[0];
        }
        let mean = sum0 / n as f64;
        let expect = 0.2 * 0.11;
        assert!((mean - expect).abs() < 0.0005, "{mean} vs {expect}");
    }

    #[test]
    fn inflation_part_is_deterministic() {
        // With w→0 the split is exactly proportional.
        let cpos = CPos::new(1e-12, 0.1, 32);
        let mut rng = Xoshiro256StarStar::new(3);
        let stakes = vec![0.2, 0.8];
        let StepRewards::Split(r) = cpos.step(&stakes, 0, &mut rng) else {
            unreachable!()
        };
        assert!((r[0] - 0.02).abs() < 1e-10, "{}", r[0]);
        assert!((r[1] - 0.08).abs() < 1e-10, "{}", r[1]);
    }

    #[test]
    fn variance_shrinks_with_more_shards() {
        let few = CPos::new(0.01, 0.0, 1);
        let many = CPos::new(0.01, 0.0, 64);
        let stakes = vec![0.2, 0.8];
        let var = |cp: &CPos, seed: u64| {
            let mut rng = Xoshiro256StarStar::new(seed);
            let n = 20_000;
            let mut w = fairness_stats::summary::Welford::new();
            for i in 0..n {
                let StepRewards::Split(r) = cp.step(&stakes, i, &mut rng) else {
                    unreachable!()
                };
                w.push(r[0]);
            }
            w.variance()
        };
        let v_few = var(&few, 4);
        let v_many = var(&many, 5);
        assert!(
            v_many < v_few / 10.0,
            "64 shards should slash variance: {v_many} vs {v_few}"
        );
    }

    #[test]
    fn degenerates_to_mlpos_form_when_v0_p1() {
        // Theorem 4.10 note: v=0, P=1 reduces to an ML-PoS-like winner take
        // all per epoch.
        let cpos = CPos::new(0.01, 0.0, 1);
        let mut rng = Xoshiro256StarStar::new(6);
        let stakes = vec![0.2, 0.8];
        let StepRewards::Split(r) = cpos.step(&stakes, 0, &mut rng) else {
            unreachable!()
        };
        // Exactly one miner holds the whole reward.
        let nonzero: Vec<&f64> = r.iter().filter(|&&x| x > 0.0).collect();
        assert_eq!(nonzero.len(), 1);
        assert!((*nonzero[0] - 0.01).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn rejects_zero_shards() {
        let _ = CPos::new(0.01, 0.1, 0);
    }
}

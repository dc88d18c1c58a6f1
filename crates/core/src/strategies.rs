//! Strategic miner behaviours — relaxing Assumption 4.
//!
//! The paper's model assumes passive miners (no withdrawal/top-up, no
//! coalitions). Two strategic behaviours it *discusses* are implemented
//! here so their fairness impact can be measured:
//!
//! * [`CashOut`] — a miner who sells every reward instead of restaking
//!   (Section 3.1's withdrawal action). Under a compounding protocol her
//!   staking power stays at the initial level while everyone else grows,
//!   so her win rate — and income — decays even under ML-PoS: Assumption 4
//!   is load-bearing for Theorem 3.3.
//! * [`MiningPool`] — a coalition that merges members' staking power and
//!   redistributes the pool's per-step income proportionally to
//!   contributions (Section 6.5, "Preventing Mining Pools"). Pooling never
//!   changes expected income, but slashes its variance — which is exactly
//!   why robust-fairness-preserving protocols remove the incentive to
//!   pool.

use crate::protocol::{protocol_tag, IncentiveProtocol, StepOutcome, StepRewardsView};
use fairness_stats::rng::Xoshiro256StarStar;

/// Wraps a protocol so that a designated miner's rewards never compound
/// into staking power (she withdraws them each step). Income accounting is
/// unchanged — only future lottery weight is affected.
///
/// Implemented as a protocol adapter: the inner protocol sees a stake
/// vector whose `cash_out` entry is clamped to the miner's initial stake.
#[derive(Debug, Clone, PartialEq)]
pub struct CashOut<P> {
    inner: P,
    /// Index of the withdrawing miner.
    miner: usize,
    /// Her frozen staking power.
    frozen_stake: f64,
}

impl<P: IncentiveProtocol> CashOut<P> {
    /// Wraps `inner` so that `miner` keeps exactly `frozen_stake` staking
    /// power forever.
    ///
    /// # Panics
    /// Panics if `frozen_stake` is negative or non-finite.
    #[must_use]
    pub fn new(inner: P, miner: usize, frozen_stake: f64) -> Self {
        assert!(
            frozen_stake.is_finite() && frozen_stake >= 0.0,
            "frozen stake must be non-negative, got {frozen_stake}"
        );
        Self {
            inner,
            miner,
            frozen_stake,
        }
    }
}

impl<P: IncentiveProtocol> IncentiveProtocol for CashOut<P> {
    fn name(&self) -> &'static str {
        "cash-out"
    }

    fn label(&self) -> String {
        format!("cash-out({})", self.inner.label())
    }

    fn reward_per_step(&self) -> f64 {
        self.inner.reward_per_step()
    }

    fn rewards_compound(&self) -> bool {
        self.inner.rewards_compound()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = vec![protocol_tag(&self.inner)];
        p.extend(self.inner.params());
        p.push(self.miner as f64);
        p.push(self.frozen_stake);
        p
    }

    fn step_into(
        &self,
        stakes: &[f64],
        step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        if self.miner >= stakes.len() || !self.inner.rewards_compound() {
            return self.inner.step_into(stakes, step, rng, out);
        }
        let mut effective = out.take_f64();
        effective.extend_from_slice(stakes);
        effective[self.miner] = self.frozen_stake;
        // The effective vector is rewritten every step; a live stake
        // sampler over its previous contents would be stale.
        out.invalidate_weights();
        self.inner.step_into(&effective, step, rng, out);
        out.give_f64(effective);
    }
}

/// A mining pool: members `members` contribute their full staking power;
/// the pool competes as one entity and splits every reward it wins
/// proportionally to contributed stake.
///
/// Implemented as a protocol adapter over the *aggregated* stake vector:
/// the inner protocol sees one combined competitor in place of the
/// members, and the pool's winnings are fanned back out.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningPool<P> {
    inner: P,
    /// Sorted member indices.
    members: Vec<usize>,
}

impl<P: IncentiveProtocol> MiningPool<P> {
    /// Creates a pool of `members` (at least two, all distinct).
    ///
    /// # Panics
    /// Panics if fewer than two distinct members are given.
    #[must_use]
    pub fn new(inner: P, mut members: Vec<usize>) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(members.len() >= 2, "a pool needs at least two members");
        Self { inner, members }
    }

    /// The pool's member indices.
    #[must_use]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    fn is_member(&self, i: usize) -> bool {
        self.members.binary_search(&i).is_ok()
    }
}

impl<P: IncentiveProtocol> IncentiveProtocol for MiningPool<P> {
    fn name(&self) -> &'static str {
        "mining-pool"
    }

    fn label(&self) -> String {
        format!("mining-pool({})", self.inner.label())
    }

    fn reward_per_step(&self) -> f64 {
        self.inner.reward_per_step()
    }

    fn rewards_compound(&self) -> bool {
        self.inner.rewards_compound()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = vec![protocol_tag(&self.inner)];
        p.extend(self.inner.params());
        p.extend(self.members.iter().map(|&i| i as f64));
        p
    }

    fn step_into(
        &self,
        stakes: &[f64],
        step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        let m = stakes.len();
        // Aggregated stake vector: non-members keep their slots, the pool
        // occupies one synthetic slot at the end — all in pooled scratch.
        let mut outsiders = out.take_idx();
        outsiders.extend((0..m).filter(|&i| !self.is_member(i)));
        let pool_stake: f64 = self.members.iter().map(|&i| stakes[i]).sum();
        let mut agg = out.take_f64();
        agg.extend(outsiders.iter().map(|&i| stakes[i]));
        agg.push(pool_stake);
        // The aggregate is rewritten every step; invalidate any live
        // sampler over its previous contents.
        out.invalidate_weights();
        let mut alloc = out.take_f64();
        alloc.resize(m, 0.0);

        self.inner.step_into(&agg, step, rng, out);

        let total = self.reward_per_step();
        let assign_pool = |alloc: &mut Vec<f64>, amount: f64| {
            if amount <= 0.0 {
                return;
            }
            if pool_stake > 0.0 {
                for &i in &self.members {
                    alloc[i] += amount * stakes[i] / pool_stake;
                }
            } else {
                // Degenerate: split equally if the pool holds nothing.
                let share = amount / self.members.len() as f64;
                for &i in &self.members {
                    alloc[i] += share;
                }
            }
        };
        match out.view() {
            StepRewardsView::Winner(w) => {
                if w == outsiders.len() {
                    assign_pool(&mut alloc, total);
                } else {
                    alloc[outsiders[w]] = total;
                }
            }
            StepRewardsView::Split(v) => {
                for (slot, &amount) in v.iter().enumerate() {
                    if slot == outsiders.len() {
                        assign_pool(&mut alloc, amount);
                    } else {
                        alloc[outsiders[slot]] = amount;
                    }
                }
            }
        }
        out.commit_split(alloc);
        out.give_f64(agg);
        out.give_idx(outsiders);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::MiningGame;
    use crate::miner::two_miner;
    use crate::montecarlo::{run_ensemble, EnsembleConfig};
    use crate::protocol::StepRewards;
    use crate::protocols::{MlPos, Pow, SlPos};

    #[test]
    fn adapter_params_distinguish_inner_protocols() {
        // Same numeric parameters, different inner protocols: the
        // fingerprints must differ or memoizing harnesses would conflate
        // them.
        let a = CashOut::new(MlPos::new(0.01), 0, 0.2).params();
        let b = CashOut::new(SlPos::new(0.01), 0, 0.2).params();
        assert_ne!(a, b);
        let c = MiningPool::new(MlPos::new(0.01), vec![0, 1]).params();
        let d = MiningPool::new(SlPos::new(0.01), vec![0, 1]).params();
        assert_ne!(c, d);
        // Deterministic across calls.
        assert_eq!(a, CashOut::new(MlPos::new(0.01), 0, 0.2).params());
    }

    #[test]
    fn cash_out_miner_income_decays_under_mlpos() {
        // Theorem 3.3 needs Assumption 4: a withdrawing 20% miner in
        // ML-PoS earns less than 20% because her relative weight dilutes
        // as total stake grows.
        let config = EnsembleConfig {
            checkpoints: vec![5000],
            ..EnsembleConfig::paper_default(0.2, 5000, 1500, 51)
        };
        let passive = run_ensemble(&MlPos::new(0.01), &config).final_point().mean;
        let cash_out = run_ensemble(&CashOut::new(MlPos::new(0.01), 0, 0.2), &config)
            .final_point()
            .mean;
        assert!((passive - 0.2).abs() < 0.01, "passive {passive}");
        assert!(
            cash_out < 0.15,
            "cash-out income should dilute well below 0.2: {cash_out}"
        );
    }

    #[test]
    fn cash_out_is_noop_for_pow() {
        // PoW weight is hash power, not stake: withdrawal changes nothing.
        let config = EnsembleConfig {
            checkpoints: vec![1000],
            ..EnsembleConfig::paper_default(0.2, 1000, 1000, 53)
        };
        let plain = run_ensemble(&Pow::new(&two_miner(0.2), 0.01), &config);
        let wrapped = run_ensemble(
            &CashOut::new(Pow::new(&two_miner(0.2), 0.01), 0, 0.2),
            &config,
        );
        assert!((plain.final_point().mean - wrapped.final_point().mean).abs() < 0.01);
    }

    #[test]
    fn pool_preserves_expected_income() {
        // A pool of miners 0 and 1 (of 3) in ML-PoS: each member's mean λ
        // is unchanged.
        let shares = vec![0.2, 0.3, 0.5];
        let config = EnsembleConfig {
            initial_shares: shares.clone(),
            checkpoints: vec![2000],
            repetitions: 2000,
            seed: 55,
            eps_delta: crate::fairness::EpsilonDelta::default(),
            withholding: None,
        };
        let pooled = run_ensemble(&MiningPool::new(MlPos::new(0.01), vec![0, 1]), &config);
        assert!(
            (pooled.final_point().mean - 0.2).abs() < 0.01,
            "pooled member mean {}",
            pooled.final_point().mean
        );
    }

    #[test]
    fn pool_reduces_income_variance() {
        // Section 6.5: pooling is attractive because it shrinks variance.
        let shares = vec![0.2, 0.3, 0.5];
        let config = EnsembleConfig {
            initial_shares: shares.clone(),
            checkpoints: vec![1000],
            repetitions: 3000,
            seed: 57,
            eps_delta: crate::fairness::EpsilonDelta::default(),
            withholding: None,
        };
        let solo = run_ensemble(&MlPos::new(0.01), &config).final_point();
        let pooled =
            run_ensemble(&MiningPool::new(MlPos::new(0.01), vec![0, 1]), &config).final_point();
        let solo_width = solo.p95 - solo.p05;
        let pooled_width = pooled.p95 - pooled.p05;
        assert!(
            pooled_width < 0.8 * solo_width,
            "pooling should narrow the band: {pooled_width} vs {solo_width}"
        );
    }

    #[test]
    fn pool_changes_slpos_fate() {
        // Two small miners (0.2, 0.3) facing a 0.5 whale under SL-PoS both
        // die solo; pooled they match the whale and survive half the time.
        let shares = vec![0.2, 0.3, 0.5];
        let mut solo_survivals = 0u64;
        let mut pooled_survivals = 0u64;
        let reps = 200u64;
        for seed in 0..reps {
            let mut rng = Xoshiro256StarStar::new(1000 + seed);
            let mut game = MiningGame::new(SlPos::new(0.05), &shares);
            game.run(30_000, &mut rng);
            if game.stake(0) + game.stake(1) > game.stake(2) {
                solo_survivals += 1;
            }
            let mut rng = Xoshiro256StarStar::new(1000 + seed);
            let mut game = MiningGame::new(MiningPool::new(SlPos::new(0.05), vec![0, 1]), &shares);
            game.run(30_000, &mut rng);
            if game.stake(0) + game.stake(1) > game.stake(2) {
                pooled_survivals += 1;
            }
        }
        assert!(
            pooled_survivals > solo_survivals + reps / 10,
            "pooling should help small SL-PoS miners: {pooled_survivals} vs {solo_survivals}"
        );
    }

    #[test]
    fn pool_allocation_sums_to_step_reward() {
        let pool = MiningPool::new(MlPos::new(0.01), vec![0, 2]);
        let mut rng = Xoshiro256StarStar::new(59);
        let stakes = vec![0.1, 0.4, 0.2, 0.3];
        for i in 0..200 {
            let StepRewards::Split(v) = pool.step(&stakes, i, &mut rng) else {
                panic!("pool must split");
            };
            assert_eq!(v.len(), 4);
            let total: f64 = v.iter().sum();
            assert!((total - 0.01).abs() < 1e-12, "{total}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two members")]
    fn pool_rejects_singleton() {
        let _ = MiningPool::new(MlPos::new(0.01), vec![3, 3]);
    }
}

//! Redistribution mechanisms — can protocol design undo rich-get-richer?
//!
//! The paper measures how compounding rewards concentrate stake; the
//! related work proposes counter-measures. This module expresses three
//! families of them as protocol adapters, composable over any
//! [`IncentiveProtocol`] exactly like [`crate::strategies::CashOut`] and
//! [`crate::strategies::MiningPool`]:
//!
//! * [`ClusterTax`] — a progressive fee on step rewards: the tax rate
//!   grows with the recipient's *wealth cluster*, a blend of her initial
//!   wealth ranking (decaying over steps) and her current share; the
//!   proceeds are rebated equally to everyone.
//! * [`FeeLottery`] — a flat fee on every reward, redistributed to one
//!   lottery winner per step. The *uniform* variant gives every miner
//!   equal odds (progressive — expected rebates flow from rich to poor);
//!   the *value-weighted* variant draws proportionally to stake
//!   (regressive: the rebate mirrors the existing distribution, but it is
//!   Sybil-proof).
//! * [`Alleviation`] — compounding alleviation in the style of Naderi et
//!   al.: a recipient keeps only `(1 − share)^β` of her reward, so the
//!   effective reward decays smoothly with wealth; the remainder is
//!   rebated equally.
//!
//! All three **conserve the full step reward** — redistribution moves
//! value, never burns it — so every [`crate::game::MiningGame`] invariant
//! (allocation sums to `reward_per_step`, compounded power totals `1 +
//! issued`) holds unchanged.
//!
//! The canonical attack on progressive schemes is Sybil identities: a
//! miner splits her stake across `k` addresses so each looks poor. The
//! [`Sybil`] adapter plus the [`SybilSplit`] strategy model exactly that —
//! miner 0's stake enters the inner protocol as `k` equal slices and her
//! slices' winnings are merged back. Under a uniform [`FeeLottery`] she
//! holds `k` of `m + k − 1` tickets (advantage `k·m/(m + k − 1)` over a
//! single identity); under the value-weighted variant her total ticket
//! weight is unchanged and the advantage collapses to 1. The
//! `repro redistribution` experiment reproduces that uniform-beats-
//! value-weighted-for-Sybils finding inside this framework.

use crate::adversary::{ForkAction, ForkEvent, ForkState, Honest, Strategy};
use crate::miner::normalize_shares;
use crate::protocol::{protocol_tag, IncentiveProtocol, StepOutcome, StepRewardsView};
use fairness_stats::rng::Xoshiro256StarStar;

/// Progressive cluster-tax fee redistribution.
///
/// Each step, recipient `i` of reward `a` pays `a · strength ·
/// cluster_i / max_j cluster_j` into a pot that is rebated equally to all
/// miners. The cluster weight is `d · init_i + (1 − d) · share_i` with
/// `d = (1 − decay)^step`: at `decay = 0` the tax brackets are frozen at
/// the initial wealth ranking, at `decay = 1` they track current shares
/// from the first step on — the "decaying over hops" of botho's scheme,
/// with one game step per hop.
///
/// When the adapter sees a stake vector whose length differs from the
/// initial shares it was built with (a [`Sybil`] wrapper expanded the
/// population), it falls back to current shares as cluster weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterTax<P> {
    inner: P,
    /// Top tax rate in `[0, 1]` — the richest cluster's rate.
    strength: f64,
    /// Per-step decay of the initial cluster tags, in `[0, 1]`.
    decay: f64,
    /// Normalized initial shares: the frozen part of the cluster weights.
    init: Vec<f64>,
}

impl<P: IncentiveProtocol> ClusterTax<P> {
    /// Wraps `inner` with a progressive tax of top rate `strength` whose
    /// initial brackets (from `shares`) decay at `decay` per step.
    ///
    /// # Panics
    /// Panics if `strength` or `decay` is outside `[0, 1]`, or if
    /// `shares` is empty, contains a negative/non-finite entry, or sums
    /// to zero.
    #[must_use]
    pub fn new(inner: P, strength: f64, decay: f64, shares: &[f64]) -> Self {
        assert!(
            (0.0..=1.0).contains(&strength),
            "tax strength must be in [0, 1], got {strength}"
        );
        assert!(
            (0.0..=1.0).contains(&decay),
            "tax decay must be in [0, 1], got {decay}"
        );
        Self {
            inner,
            strength,
            decay,
            init: normalize_shares(shares),
        }
    }
}

impl<P: IncentiveProtocol> IncentiveProtocol for ClusterTax<P> {
    fn name(&self) -> &'static str {
        "cluster-tax"
    }

    fn label(&self) -> String {
        format!("cluster-tax({})", self.inner.label())
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
        p.push(self.strength);
        p.push(self.decay);
        p.extend(self.init.iter().copied());
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
        let total: f64 = stakes.iter().sum();
        // Cluster weights in pooled scratch; tags apply only while the
        // population still matches the initial shares.
        let anchored = self.init.len() == m;
        let d = if anchored {
            (1.0 - self.decay).powf(step as f64)
        } else {
            0.0
        };
        let mut cluster = out.take_f64();
        for (i, &s) in stakes.iter().enumerate() {
            let share = if total > 0.0 { s / total } else { 0.0 };
            let tag = if anchored { self.init[i] } else { 0.0 };
            cluster.push(d * tag + (1.0 - d) * share);
        }
        let top = cluster.iter().fold(0.0_f64, |a, &c| a.max(c));
        let mut alloc = out.take_f64();
        alloc.resize(m, 0.0);

        self.inner.step_into(stakes, step, rng, out);

        let mut pot = 0.0;
        {
            let mut levy = |alloc: &mut Vec<f64>, i: usize, amount: f64| {
                let rate = if top > 0.0 {
                    self.strength * cluster[i] / top
                } else {
                    0.0
                };
                alloc[i] += amount * (1.0 - rate);
                pot += amount * rate;
            };
            match out.view() {
                StepRewardsView::Winner(w) => levy(&mut alloc, w, self.reward_per_step()),
                StepRewardsView::Split(v) => {
                    for (i, &amount) in v.iter().enumerate() {
                        levy(&mut alloc, i, amount);
                    }
                }
            }
        }
        if pot > 0.0 {
            let rebate = pot / m as f64;
            for a in &mut alloc {
                *a += rebate;
            }
        }
        out.commit_split(alloc);
        out.give_f64(cluster);
    }
}

/// Lottery-based fee redistribution.
///
/// Every recipient keeps `1 − fee` of her reward; the pooled fee goes to
/// one lottery winner per step — drawn uniformly over miners
/// (`weighted = false`, progressive) or proportionally to stake
/// (`weighted = true`, regressive but Sybil-proof). At `fee = 0` the
/// adapter is bit-identical to the inner protocol (no extra draw).
#[derive(Debug, Clone, PartialEq)]
pub struct FeeLottery<P> {
    inner: P,
    /// Fee rate in `[0, 1]` levied on every step reward.
    fee: f64,
    /// `true` = value-weighted rebate lottery, `false` = uniform.
    weighted: bool,
}

impl<P: IncentiveProtocol> FeeLottery<P> {
    /// Wraps `inner` with a `fee`-rate lottery rebate.
    ///
    /// # Panics
    /// Panics if `fee` is outside `[0, 1]`.
    #[must_use]
    pub fn new(inner: P, fee: f64, weighted: bool) -> Self {
        assert!(
            (0.0..=1.0).contains(&fee),
            "lottery fee must be in [0, 1], got {fee}"
        );
        Self {
            inner,
            fee,
            weighted,
        }
    }
}

impl<P: IncentiveProtocol> IncentiveProtocol for FeeLottery<P> {
    fn name(&self) -> &'static str {
        "fee-lottery"
    }

    fn label(&self) -> String {
        let kind = if self.weighted { "value" } else { "uniform" };
        format!("fee-lottery[{kind}]({})", self.inner.label())
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
        p.push(self.fee);
        p.push(f64::from(u8::from(self.weighted)));
        p
    }

    fn step_into(
        &self,
        stakes: &[f64],
        step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        if self.fee == 0.0 {
            // No fee, no rebate draw: bit-identical to the inner protocol.
            return self.inner.step_into(stakes, step, rng, out);
        }
        let m = stakes.len();
        let mut alloc = out.take_f64();
        alloc.resize(m, 0.0);

        self.inner.step_into(stakes, step, rng, out);

        let keep = 1.0 - self.fee;
        let mut pot = 0.0;
        match out.view() {
            StepRewardsView::Winner(w) => {
                let total = self.reward_per_step();
                alloc[w] = total * keep;
                pot = total * self.fee;
            }
            StepRewardsView::Split(v) => {
                for (i, &amount) in v.iter().enumerate() {
                    alloc[i] = amount * keep;
                    pot += amount * self.fee;
                }
            }
        }
        // One rebate draw per step, after the inner protocol's draws.
        // The stake slice is unchanged since the inner step, so the
        // value-weighted draw reuses any live sampler over it.
        let winner = if self.weighted {
            out.weighted_winner(stakes, rng)
        } else {
            ((rng.next_f64() * m as f64) as usize).min(m - 1)
        };
        alloc[winner] += pot;
        out.commit_split(alloc);
    }
}

/// Naderi-style compounding alleviation.
///
/// A recipient with current stake share `s` keeps `(1 − s)^β` of her
/// reward; the remainder is rebated equally. `β = 0` is a bit-identical
/// no-op; larger `β` discounts the wealthy more sharply, damping the
/// compounding feedback loop the paper's Theorem 4.4 builds on.
#[derive(Debug, Clone, PartialEq)]
pub struct Alleviation<P> {
    inner: P,
    /// Discount exponent `β ≥ 0`.
    beta: f64,
}

impl<P: IncentiveProtocol> Alleviation<P> {
    /// Wraps `inner` with a `(1 − share)^beta` reward discount.
    ///
    /// # Panics
    /// Panics if `beta` is negative or non-finite.
    #[must_use]
    pub fn new(inner: P, beta: f64) -> Self {
        assert!(
            beta.is_finite() && beta >= 0.0,
            "alleviation exponent must be non-negative and finite, got {beta}"
        );
        Self { inner, beta }
    }
}

impl<P: IncentiveProtocol> IncentiveProtocol for Alleviation<P> {
    fn name(&self) -> &'static str {
        "alleviation"
    }

    fn label(&self) -> String {
        format!("alleviation({})", self.inner.label())
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
        p.push(self.beta);
        p
    }

    fn step_into(
        &self,
        stakes: &[f64],
        step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        if self.beta == 0.0 {
            // No discount: bit-identical to the inner protocol.
            return self.inner.step_into(stakes, step, rng, out);
        }
        let m = stakes.len();
        let total: f64 = stakes.iter().sum();
        let mut alloc = out.take_f64();
        alloc.resize(m, 0.0);

        self.inner.step_into(stakes, step, rng, out);

        let damp = |i: usize| -> f64 {
            let share = if total > 0.0 {
                (stakes[i] / total).clamp(0.0, 1.0)
            } else {
                0.0
            };
            (1.0 - share).powf(self.beta)
        };
        let mut surplus = 0.0;
        match out.view() {
            StepRewardsView::Winner(w) => {
                let total_reward = self.reward_per_step();
                let kept = total_reward * damp(w);
                alloc[w] = kept;
                surplus = total_reward - kept;
            }
            StepRewardsView::Split(v) => {
                for (i, &amount) in v.iter().enumerate() {
                    let kept = amount * damp(i);
                    alloc[i] = kept;
                    surplus += amount - kept;
                }
            }
        }
        if surplus > 0.0 {
            let rebate = surplus / m as f64;
            for a in &mut alloc {
                *a += rebate;
            }
        }
        out.commit_split(alloc);
    }
}

/// A UTXO-splitting Sybil strategy: publish honestly, but present the
/// attacker's stake as `identities` separate addresses to any
/// cluster-sensitive redistribution scheme (via the [`Sybil`] adapter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SybilSplit {
    identities: u32,
}

impl SybilSplit {
    /// A Sybil miner running `identities` addresses (`1` = no attack).
    ///
    /// # Panics
    /// Panics if `identities` is zero.
    #[must_use]
    pub fn new(identities: u32) -> Self {
        assert!(identities >= 1, "a miner has at least one identity");
        Self { identities }
    }
}

impl Strategy for SybilSplit {
    fn name(&self) -> &'static str {
        "sybil-split"
    }

    fn decide(&self, state: ForkState, event: ForkEvent) -> ForkAction {
        // Fork play stays honest; the attack lives entirely in the
        // identity split.
        Honest.decide(state, event)
    }

    fn params(&self) -> Vec<f64> {
        vec![f64::from(self.identities)]
    }

    fn sybil_identities(&self) -> u32 {
        self.identities
    }
}

/// Protocol adapter giving miner 0 a Sybil identity split.
///
/// The inner protocol sees miner 0's stake as `k =
/// `[`Strategy::sybil_identities`]` equal slices followed by the other
/// miners' stakes unchanged; whatever the slices win is merged back into
/// miner 0's slot. For stake-proportional protocols the split is
/// income-neutral; for schemes that treat small balances favourably
/// (uniform [`FeeLottery`], [`ClusterTax`]) it is the canonical exploit.
///
/// The inner protocol must derive its lottery weights from the stake
/// vector it is handed ([`crate::protocols::MlPos`] and friends, or
/// redistribution adapters over them) — protocols holding a fixed
/// per-miner weight vector ([`crate::protocols::Pow`],
/// [`crate::protocols::Neo`]) would see a population they were not built
/// for.
#[derive(Debug, Clone, PartialEq)]
pub struct Sybil<P, S> {
    inner: P,
    strategy: S,
}

impl<P: IncentiveProtocol, S: Strategy> Sybil<P, S> {
    /// Wraps `inner` so miner 0 plays `strategy`'s identity split.
    #[must_use]
    pub fn new(inner: P, strategy: S) -> Self {
        Self { inner, strategy }
    }

    fn identities(&self) -> usize {
        self.strategy.sybil_identities().max(1) as usize
    }
}

impl<P: IncentiveProtocol, S: Strategy> IncentiveProtocol for Sybil<P, S> {
    fn name(&self) -> &'static str {
        "sybil"
    }

    fn label(&self) -> String {
        format!("sybil[{}x]({})", self.identities(), self.inner.label())
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
        p.extend(self.strategy.params());
        p
    }

    fn step_into(
        &self,
        stakes: &[f64],
        step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        let k = self.identities();
        if k == 1 {
            // Single identity: bit-identical to the inner protocol.
            return self.inner.step_into(stakes, step, rng, out);
        }
        let m = stakes.len();
        // Expanded population: k slices of miner 0, then miners 1..m.
        let mut expanded = out.take_f64();
        expanded.resize(k, stakes[0] / k as f64);
        expanded.extend_from_slice(&stakes[1..]);
        // The expansion is rewritten every step; a live stake sampler
        // over its previous contents would be stale.
        out.invalidate_weights();
        let mut alloc = out.take_f64();
        alloc.resize(m, 0.0);

        self.inner.step_into(&expanded, step, rng, out);

        match out.view() {
            StepRewardsView::Winner(w) => {
                let total = self.reward_per_step();
                if w < k {
                    alloc[0] = total;
                } else {
                    alloc[w - k + 1] = total;
                }
            }
            StepRewardsView::Split(v) => {
                alloc[0] = v[..k].iter().sum();
                for (j, &amount) in v[k..].iter().enumerate() {
                    alloc[j + 1] = amount;
                }
            }
        }
        out.commit_split(alloc);
        out.give_f64(expanded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decentralization::DecentralizationReport;
    use crate::game::MiningGame;
    use crate::miner::{equal_shares, zipf_shares};
    use crate::montecarlo::{run_ensemble, EnsembleConfig};
    use crate::protocol::StepRewards;
    use crate::protocols::{Algorand, MlPos, SlPos};

    fn stakes_after<P: IncentiveProtocol>(protocol: P, shares: &[f64], seed: u64) -> Vec<f64> {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut game = MiningGame::new(protocol, shares);
        game.run(2000, &mut rng);
        game.stakes().to_vec()
    }

    #[test]
    fn adapter_params_distinguish_configurations() {
        let shares = [0.5, 0.5];
        // Different inner protocols at equal numeric parameters must
        // fingerprint apart, or memoizing harnesses would conflate them.
        let a = ClusterTax::new(MlPos::new(0.01), 0.5, 0.1, &shares).params();
        let b = ClusterTax::new(SlPos::new(0.01), 0.5, 0.1, &shares).params();
        assert_ne!(a, b);
        assert_eq!(
            a,
            ClusterTax::new(MlPos::new(0.01), 0.5, 0.1, &shares).params()
        );
        // The two lottery variants differ only in the weighted flag.
        let c = FeeLottery::new(MlPos::new(0.01), 0.3, false).params();
        let d = FeeLottery::new(MlPos::new(0.01), 0.3, true).params();
        assert_ne!(c, d);
        let e = Alleviation::new(MlPos::new(0.01), 2.0).params();
        let f = Alleviation::new(SlPos::new(0.01), 2.0).params();
        assert_ne!(e, f);
        let g = Sybil::new(MlPos::new(0.01), SybilSplit::new(2)).params();
        let h = Sybil::new(MlPos::new(0.01), SybilSplit::new(3)).params();
        assert_ne!(g, h);
    }

    #[test]
    fn allocations_conserve_the_step_reward() {
        let stakes = vec![0.1, 0.2, 0.3, 0.4];
        let check = |protocol: &dyn IncentiveProtocol| {
            let mut rng = Xoshiro256StarStar::new(61);
            for i in 0..200 {
                let StepRewards::Split(v) = protocol.step(&stakes, i, &mut rng) else {
                    panic!("{} must split", protocol.label());
                };
                assert_eq!(v.len(), 4, "{}", protocol.label());
                let total: f64 = v.iter().sum();
                assert!(
                    (total - 0.01).abs() < 1e-12,
                    "{}: {total}",
                    protocol.label()
                );
                assert!(v.iter().all(|&a| a >= 0.0), "{}", protocol.label());
            }
        };
        check(&ClusterTax::new(MlPos::new(0.01), 0.8, 0.05, &stakes));
        check(&FeeLottery::new(MlPos::new(0.01), 0.5, false));
        check(&FeeLottery::new(MlPos::new(0.01), 0.5, true));
        check(&Alleviation::new(MlPos::new(0.01), 3.0));
        check(&Sybil::new(MlPos::new(0.01), SybilSplit::new(3)));
    }

    #[test]
    fn neutral_settings_are_bit_identical_to_the_inner_protocol() {
        let shares = vec![0.2, 0.3, 0.5];
        let bare = stakes_after(MlPos::new(0.01), &shares, 67);
        assert_eq!(
            bare,
            stakes_after(FeeLottery::new(MlPos::new(0.01), 0.0, true), &shares, 67),
            "fee = 0 must not perturb the trajectory"
        );
        assert_eq!(
            bare,
            stakes_after(Alleviation::new(MlPos::new(0.01), 0.0), &shares, 67),
            "beta = 0 must not perturb the trajectory"
        );
        assert_eq!(
            bare,
            stakes_after(
                Sybil::new(MlPos::new(0.01), SybilSplit::new(1)),
                &shares,
                67
            ),
            "one identity must not perturb the trajectory"
        );
        // strength = 0 taxes nothing: same credited amounts (and no extra
        // draws), hence the same trajectory.
        assert_eq!(
            bare,
            stakes_after(
                ClusterTax::new(MlPos::new(0.01), 0.0, 0.1, &shares),
                &shares,
                67
            ),
            "strength = 0 must not perturb the trajectory"
        );
    }

    #[test]
    fn cluster_tax_taxes_the_rich_and_rebates_the_poor() {
        // Algorand splits proportionally, so one step is deterministic:
        // under a full-strength tax the richest keeps nothing but the
        // rebate, the poorest nets a gain.
        let stakes = vec![0.7, 0.2, 0.1];
        let tax = ClusterTax::new(Algorand::new(0.1), 1.0, 0.0, &stakes);
        let mut rng = Xoshiro256StarStar::new(71);
        let StepRewards::Split(taxed) = tax.step(&stakes, 0, &mut rng) else {
            panic!("must split");
        };
        let mut rng = Xoshiro256StarStar::new(71);
        let StepRewards::Split(plain) = Algorand::new(0.1).step(&stakes, 0, &mut rng) else {
            panic!("must split");
        };
        assert!(
            taxed[0] < plain[0],
            "richest must net less: {} vs {}",
            taxed[0],
            plain[0]
        );
        assert!(
            taxed[2] > plain[2],
            "poorest must net more: {} vs {}",
            taxed[2],
            plain[2]
        );
        // The richest (rate 1.0) keeps only the equal rebate.
        assert!(taxed[0] > 0.0);
    }

    #[test]
    fn equalization_reduces_concentration() {
        // SL-PoS concentrates hard; every redistribution family should
        // pull the long-run Gini down from the laissez-faire baseline.
        let shares = zipf_shares(10, 1.2);
        fn mean_gini<P: IncentiveProtocol + Clone>(protocol: &P, shares: &[f64]) -> f64 {
            let reps = 20u64;
            let mut acc = 0.0;
            for seed in 0..reps {
                let mut rng = Xoshiro256StarStar::new(900 + seed);
                let mut game = MiningGame::new(protocol.clone(), shares);
                game.run(10_000, &mut rng);
                acc += DecentralizationReport::measure(game.stakes()).gini;
            }
            acc / reps as f64
        }
        let baseline = mean_gini(&SlPos::new(0.05), &shares);
        let taxed = mean_gini(
            &ClusterTax::new(SlPos::new(0.05), 1.0, 0.02, &shares),
            &shares,
        );
        let lottery = mean_gini(&FeeLottery::new(SlPos::new(0.05), 0.5, false), &shares);
        let alleviated = mean_gini(&Alleviation::new(SlPos::new(0.05), 4.0), &shares);
        assert!(taxed < baseline, "cluster tax: {taxed} vs {baseline}");
        assert!(
            lottery < baseline,
            "uniform lottery: {lottery} vs {baseline}"
        );
        assert!(
            alleviated < baseline,
            "alleviation: {alleviated} vs {baseline}"
        );
    }

    #[test]
    fn sybil_split_is_neutral_for_proportional_lotteries() {
        // Splitting stake across identities never changes a
        // stake-proportional protocol's odds: miner 0 still wins ≈ her
        // share, and the allocation maps back to the original population.
        let stakes = vec![0.4, 0.3, 0.3];
        let sybil = Sybil::new(MlPos::new(0.01), SybilSplit::new(4));
        let mut rng = Xoshiro256StarStar::new(63);
        let mut attacker_wins = 0u32;
        let steps = 4000;
        for i in 0..steps {
            let StepRewards::Split(v) = sybil.step(&stakes, i, &mut rng) else {
                panic!("sybil must split");
            };
            assert_eq!(v.len(), 3);
            if v[0] > 0.0 {
                attacker_wins += 1;
            }
        }
        let rate = f64::from(attacker_wins) / steps as f64;
        assert!((rate - 0.4).abs() < 0.03, "win rate {rate}");
    }

    #[test]
    fn uniform_lottery_rewards_sybils_value_weighted_does_not() {
        // botho's finding: a uniform rebate lottery hands a k-identity
        // Sybil k tickets (advantage k·m/(m + k − 1)); the value-weighted
        // variant is Sybil-proof.
        let shares = equal_shares(10);
        let income = |weighted: bool, identities: u32| {
            let protocol = Sybil::new(
                FeeLottery::new(MlPos::new(0.01), 0.5, weighted),
                SybilSplit::new(identities),
            );
            let config = EnsembleConfig {
                initial_shares: shares.clone(),
                checkpoints: vec![400],
                repetitions: 400,
                seed: 73,
                eps_delta: crate::fairness::EpsilonDelta::default(),
                withholding: None,
            };
            run_ensemble(&protocol, &config).final_point().mean
        };
        let uniform_advantage = income(false, 10) / income(false, 1);
        let value_advantage = income(true, 10) / income(true, 1);
        assert!(
            uniform_advantage > 2.0,
            "uniform lottery should reward Sybils: {uniform_advantage}"
        );
        assert!(
            (value_advantage - 1.0).abs() < 0.2,
            "value-weighted lottery should be Sybil-proof: {value_advantage}"
        );
        assert!(uniform_advantage > value_advantage);
    }

    #[test]
    fn drained_and_zero_stake_miners_do_not_panic() {
        // A zero-share miner is legal; redistribution must neither crash
        // on her nor (for stake-weighted rebates) resurrect her.
        let shares = vec![0.0, 0.5, 0.5];
        let mut rng = Xoshiro256StarStar::new(77);
        let mut game = MiningGame::new(FeeLottery::new(MlPos::new(0.01), 0.7, true), &shares);
        game.run(500, &mut rng);
        assert_eq!(game.stake(0), 0.0, "stake-weighted rebates cannot revive");
        let report = DecentralizationReport::measure(game.stakes());
        assert!(report.gini > 0.0 && report.nakamoto >= 1);

        // Equal rebates (cluster tax) do revive a drained miner — and the
        // metrics handle the in-between states without panicking.
        let mut rng = Xoshiro256StarStar::new(79);
        let mut game = MiningGame::new(
            ClusterTax::new(MlPos::new(0.01), 1.0, 0.0, &shares),
            &shares,
        );
        game.run(500, &mut rng);
        assert!(game.stake(0) > 0.0, "equal rebates revive the drained");
        let _ = DecentralizationReport::measure(game.stakes());
    }

    #[test]
    #[should_panic(expected = "fee must be in [0, 1]")]
    fn lottery_rejects_bad_fee() {
        let _ = FeeLottery::new(MlPos::new(0.01), 1.5, false);
    }

    #[test]
    #[should_panic(expected = "at least one identity")]
    fn sybil_split_rejects_zero_identities() {
        let _ = SybilSplit::new(0);
    }
}

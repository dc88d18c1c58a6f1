//! Proof-of-Work lottery: literal nonce grinding (Section 2.1).
//!
//! Each tick, miner `i` checks `hash_rate_i` nonces; a nonce is valid when
//! `Hash("pow-trial", prev, pk, nonce) < target`. The first tick containing
//! a success ends the race; if several miners succeed in the same tick, the
//! smallest trial hash wins (deterministic fork resolution). With per-trial
//! success probability `p = target/2²⁵⁶`, miner `i`'s block count per tick
//! is Binomial(`rate_i`, `p`) ≈ Poisson(`rate_i·p`) — exactly the paper's
//! model, so the win probability converges to `H_A/(H_A + H_B)`.

use super::{check_inputs, BlockLottery, LotteryOutcome, MinerProfile};
use crate::hash::{Hash256, HashBuilder, HashMidstate, TrialPairs};
use crate::u256::U256;
use fairness_stats::rng::Xoshiro256StarStar;

/// PoW engine parameterized by a difficulty target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowEngine {
    target: U256,
    /// Safety valve: abort the tick loop after this many ticks (the target
    /// should make success overwhelmingly likely long before).
    max_ticks: u64,
}

impl PowEngine {
    /// Creates a PoW engine with the given target.
    ///
    /// # Panics
    /// Panics if the target is zero.
    #[must_use]
    pub fn new(target: U256) -> Self {
        assert!(!target.is_zero(), "PoW target must be positive");
        Self {
            target,
            max_ticks: 10_000_000,
        }
    }

    /// The difficulty target.
    #[must_use]
    pub fn target(&self) -> U256 {
        self.target
    }

    /// Replaces the target (difficulty retarget).
    pub fn set_target(&mut self, target: U256) {
        assert!(!target.is_zero(), "PoW target must be positive");
        self.target = target;
    }

    /// The hash of one nonce trial.
    #[must_use]
    pub fn trial_hash(prev: &Hash256, pubkey: &Hash256, nonce: u64) -> Hash256 {
        HashBuilder::new("pow-trial")
            .hash(prev)
            .hash(pubkey)
            .u64(nonce)
            .finish()
    }

    /// Midstate over the fixed trial-hash prefix `(prev, pubkey)`:
    /// grinding a nonce from it yields [`trial_hash`](Self::trial_hash)
    /// bit-for-bit (the domain and both hashes are absorbed once, and
    /// each candidate pays one compression of a padded template instead
    /// of two plus the builder copies).
    #[must_use]
    pub fn trial_midstate(prev: &Hash256, pubkey: &Hash256) -> HashMidstate {
        HashBuilder::new("pow-trial")
            .hash(prev)
            .hash(pubkey)
            .midstate()
    }

    /// Whether a trial hash satisfies the target.
    #[must_use]
    pub fn trial_valid(&self, trial: &Hash256) -> bool {
        trial.to_u256() < self.target
    }

    /// Runs the nonce race with **per-miner parent tips** — the fork-aware
    /// variant of [`BlockLottery::run`] used when an adversary withholds
    /// blocks: miner `i` grinds on `tips[i]`, so public and private
    /// branches race on equal terms. With all tips equal this is exactly
    /// the ordinary lottery (and [`BlockLottery::run`] delegates here).
    ///
    /// # Panics
    /// Panics if `tips` or `stakes` length differs from `miners`, no miner
    /// has positive hash rate, or the target is so hard that no block is
    /// found within the internal safety bound.
    #[must_use]
    pub fn run_on_tips(
        &self,
        tips: &[Hash256],
        miners: &[MinerProfile],
        stakes: &[u64],
        rng: &mut Xoshiro256StarStar,
    ) -> LotteryOutcome {
        check_inputs(miners, stakes);
        assert_eq!(
            tips.len(),
            miners.len(),
            "tips length must match miner count"
        );
        assert!(
            miners.iter().any(|m| m.hash_rate > 0),
            "PoW needs at least one miner with positive hash rate"
        );
        // Each miner starts from a random nonce offset (real miners pick
        // random extraNonce ranges), then scans sequentially.
        let mut cursors: Vec<u64> = miners.iter().map(|_| rng.next()).collect();
        // The trial prefix (tip, pubkey) is fixed for the whole race:
        // absorb it once per miner and grind every nonce from the
        // midstate — same digests, one compression per candidate.
        let midstates: Vec<HashMidstate> = miners
            .iter()
            .enumerate()
            .map(|(mi, miner)| Self::trial_midstate(&tips[mi], &miner.pubkey))
            .collect();
        for tick in 0..self.max_ticks {
            let mut best: Option<(Hash256, usize, u64)> = None;
            let mut consider = |(mi, nonce): (usize, u64), trial: Hash256| {
                if self.trial_valid(&trial) && best.is_none_or(|(h, _, _)| trial < h) {
                    best = Some((trial, mi, nonce));
                }
            };
            // The tick's trials are hashed two at a time, in the
            // sequential order (miner by miner, nonce by nonce; an odd
            // trial pairs with the next miner's first), and considered in
            // that order, so the strict `<` keeps the same winner.
            let mut pairs = TrialPairs::new();
            for (mi, miner) in miners.iter().enumerate() {
                // Batched per-miner grind: nonces are consecutive, so the
                // cursor is bumped once per tick instead of per trial.
                let start = cursors[mi];
                cursors[mi] = start.wrapping_add(miner.hash_rate);
                for off in 0..miner.hash_rate {
                    let nonce = start.wrapping_add(off);
                    pairs.push(&midstates[mi], nonce, (mi, nonce), &mut consider);
                }
            }
            pairs.flush(&mut consider);
            if let Some((trial, winner, nonce)) = best {
                return LotteryOutcome {
                    winner,
                    elapsed_ticks: tick + 1,
                    nonce,
                    proof_hash: trial,
                };
            }
        }
        panic!(
            "PoW lottery found no block within {} ticks — target too hard",
            self.max_ticks
        );
    }
}

impl BlockLottery for PowEngine {
    fn name(&self) -> &'static str {
        "pow"
    }

    fn run(
        &self,
        prev: &Hash256,
        _height: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
        rng: &mut Xoshiro256StarStar,
    ) -> LotteryOutcome {
        let tips = vec![*prev; miners.len()];
        self.run_on_tips(&tips, miners, stakes, rng)
    }

    fn verify(
        &self,
        prev: &Hash256,
        _height: u64,
        miners: &[MinerProfile],
        _stakes: &[u64],
        outcome: &LotteryOutcome,
    ) -> bool {
        let Some(miner) = miners.get(outcome.winner) else {
            return false;
        };
        let trial = Self::trial_hash(prev, &miner.pubkey, outcome.nonce);
        trial == outcome.proof_hash && self.trial_valid(&trial)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::target_for_expected_interval;

    fn miners(rates: &[u64]) -> Vec<MinerProfile> {
        rates
            .iter()
            .enumerate()
            .map(|(i, &r)| MinerProfile::new(i, r))
            .collect()
    }

    #[test]
    fn lottery_completes_and_verifies() {
        let ms = miners(&[4, 16]);
        let stakes = vec![0, 0];
        // Expect ~5 ticks per block at rate 20.
        let engine = PowEngine::new(target_for_expected_interval(20, 5));
        let mut rng = Xoshiro256StarStar::new(1);
        let prev = Hash256::ZERO;
        let out = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        assert!(out.winner < 2);
        assert!(out.elapsed_ticks >= 1);
        assert!(engine.verify(&prev, 1, &ms, &stakes, &out));
    }

    #[test]
    fn verify_rejects_tampered_outcome() {
        let ms = miners(&[4, 16]);
        let stakes = vec![0, 0];
        let engine = PowEngine::new(target_for_expected_interval(20, 5));
        let mut rng = Xoshiro256StarStar::new(2);
        let prev = Hash256::ZERO;
        let mut out = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        out.nonce = out.nonce.wrapping_add(1);
        assert!(!engine.verify(&prev, 1, &ms, &stakes, &out));
        let out2 = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        let mut wrong_winner = out2;
        wrong_winner.winner = 5;
        assert!(!engine.verify(&prev, 1, &ms, &stakes, &wrong_winner));
    }

    #[test]
    fn win_rate_proportional_to_hash_power() {
        // H_A : H_B = 1 : 4 → A should win ≈ 20% of blocks.
        let ms = miners(&[2, 8]);
        let stakes = vec![0, 0];
        let engine = PowEngine::new(target_for_expected_interval(10, 4));
        let mut rng = Xoshiro256StarStar::new(3);
        let mut wins_a = 0u64;
        let n = 3000;
        let mut prev = Hash256::ZERO;
        for h in 0..n {
            let out = engine.run(&prev, h, &ms, &stakes, &mut rng);
            if out.winner == 0 {
                wins_a += 1;
            }
            // Chain the lotteries like real blocks.
            prev = HashBuilder::new("chain")
                .hash(&prev)
                .hash(&out.proof_hash)
                .finish();
        }
        let frac = wins_a as f64 / n as f64;
        // SE ≈ sqrt(0.2*0.8/3000) ≈ 0.0073; allow 4.5 sigma.
        assert!((frac - 0.2).abs() < 0.033, "win fraction {frac}");
    }

    #[test]
    fn elapsed_ticks_mean_matches_design() {
        let ms = miners(&[10]);
        let stakes = vec![0];
        let engine = PowEngine::new(target_for_expected_interval(10, 8));
        let mut rng = Xoshiro256StarStar::new(4);
        let mut total = 0u64;
        let n = 800;
        let mut prev = Hash256::ZERO;
        for h in 0..n {
            let out = engine.run(&prev, h, &ms, &stakes, &mut rng);
            total += out.elapsed_ticks;
            prev = HashBuilder::new("chain").hash(&prev).u64(h).finish();
        }
        let mean = total as f64 / n as f64;
        // Geometric-ish with mean ~8 ticks (discretization shifts it a bit).
        assert!(mean > 5.0 && mean < 12.0, "mean interval {mean}");
    }

    #[test]
    #[should_panic(expected = "target must be positive")]
    fn zero_target_rejected() {
        let _ = PowEngine::new(U256::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive hash rate")]
    fn all_zero_rates_rejected() {
        let ms = miners(&[0, 0]);
        let engine = PowEngine::new(U256::MAX);
        let mut rng = Xoshiro256StarStar::new(5);
        let _ = engine.run(&Hash256::ZERO, 1, &ms, &[0, 0], &mut rng);
    }
}

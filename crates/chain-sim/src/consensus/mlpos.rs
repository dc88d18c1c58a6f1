//! Multi-lottery PoS (Qtum/Blackcoin style, Section 2.2).
//!
//! One kernel trial per miner per timestamp: the candidate at timestamp `t`
//! is valid when `Hash("mlpos-kernel", prev, pk, t) < D·stake`. Miners scan
//! timestamps until someone succeeds; simultaneous successes are broken by
//! a fair coin (the paper's 50% tie rule, generalized to uniform choice
//! among the tick's winners). Per-trial success probability is
//! `p_i = D·stake_i/2²⁵⁶`, so the block race is the geometric race of
//! Section 2.2 and the win probability ≈ `S_A/(S_A+S_B)` for small `p`.

use super::{check_inputs, total_stake, BlockLottery, LotteryOutcome, MinerProfile};
use crate::hash::{Hash256, HashBuilder, HashMidstate, TrialPairs};
use crate::u256::U256;
use fairness_stats::rng::Xoshiro256StarStar;

/// ML-PoS engine parameterized by the per-stake-atom difficulty `D`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MlPosEngine {
    /// Difficulty factor: a kernel is valid iff `kernel < difficulty·stake`.
    difficulty: U256,
    /// Design block interval in ticks; used by retargeting.
    target_interval: u64,
    max_ticks: u64,
}

impl MlPosEngine {
    /// Creates an engine with per-atom difficulty `difficulty`.
    ///
    /// # Panics
    /// Panics if the difficulty is zero.
    #[must_use]
    pub fn new(difficulty: U256) -> Self {
        assert!(!difficulty.is_zero(), "ML-PoS difficulty must be positive");
        Self {
            difficulty,
            target_interval: 0,
            max_ticks: 10_000_000,
        }
    }

    /// Convenience: difficulty such that with `total_stake` atoms staked the
    /// expected block interval is `ticks_per_block` ticks
    /// (`Σp_i = 1/ticks_per_block`).
    ///
    /// # Panics
    /// Panics if either argument is zero.
    #[must_use]
    pub fn for_expected_interval(total_stake: u64, ticks_per_block: u64) -> Self {
        assert!(total_stake > 0, "total stake must be positive");
        assert!(ticks_per_block > 0, "interval must be positive");
        let denom = U256::from_u64(total_stake) * U256::from_u64(ticks_per_block);
        let mut engine = Self::new(U256::MAX.div_rem(denom).0.max(U256::ONE));
        engine.target_interval = ticks_per_block;
        engine
    }

    /// Retargets the difficulty for the current total stake, keeping the
    /// expected block interval at its design value. Real ML-PoS chains
    /// (Qtum, Blackcoin) retarget every block for the same reason: as
    /// rewards increase the staked supply, per-timestamp success
    /// probabilities would otherwise creep up, shrinking intervals and
    /// amplifying the tie-break distortion of the lottery.
    ///
    /// No-op when the engine was built with a raw difficulty.
    pub fn retarget(&mut self, total_stake: u64) {
        if self.target_interval == 0 || total_stake == 0 {
            return;
        }
        let denom = U256::from_u64(total_stake) * U256::from_u64(self.target_interval);
        self.difficulty = U256::MAX.div_rem(denom).0.max(U256::ONE);
    }

    /// The per-atom difficulty.
    #[must_use]
    pub fn difficulty(&self) -> U256 {
        self.difficulty
    }

    /// The kernel hash of one (miner, timestamp) trial.
    #[must_use]
    pub fn kernel(prev: &Hash256, pubkey: &Hash256, timestamp: u64) -> Hash256 {
        HashBuilder::new("mlpos-kernel")
            .hash(prev)
            .hash(pubkey)
            .u64(timestamp)
            .finish()
    }

    /// Midstate over the fixed kernel prefix `(prev, pubkey)`; scanning
    /// timestamps from it yields [`kernel`](Self::kernel) bit-for-bit at
    /// one compression per trial (the timestamp scan is this engine's
    /// nonce grind).
    #[must_use]
    pub fn kernel_midstate(prev: &Hash256, pubkey: &Hash256) -> HashMidstate {
        HashBuilder::new("mlpos-kernel")
            .hash(prev)
            .hash(pubkey)
            .midstate()
    }

    /// Whether a kernel satisfies `kernel < difficulty·stake`.
    #[must_use]
    pub fn kernel_valid(&self, kernel: &Hash256, stake: u64) -> bool {
        if stake == 0 {
            return false;
        }
        let threshold = self.difficulty.saturating_mul(U256::from_u64(stake));
        kernel.to_u256() < threshold
    }
}

impl BlockLottery for MlPosEngine {
    fn name(&self) -> &'static str {
        "ml-pos"
    }

    fn run(
        &self,
        prev: &Hash256,
        _height: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
        rng: &mut Xoshiro256StarStar,
    ) -> LotteryOutcome {
        check_inputs(miners, stakes);
        assert!(
            total_stake(stakes) > 0,
            "ML-PoS requires positive total stake"
        );
        // The kernel prefix (prev, pubkey) is fixed for the whole race:
        // absorb it once per miner, then scan timestamps from the
        // midstates (same digests, one compression per trial). Per-miner
        // validity thresholds are fixed too — precompute them.
        let midstates: Vec<Option<(HashMidstate, U256)>> = miners
            .iter()
            .zip(stakes)
            .map(|(miner, &stake)| {
                (stake > 0).then(|| {
                    let threshold = self.difficulty.saturating_mul(U256::from_u64(stake));
                    (Self::kernel_midstate(prev, &miner.pubkey), threshold)
                })
            })
            .collect();
        let mut winners: Vec<(usize, Hash256)> = Vec::new();
        for tick in 1..=self.max_ticks {
            // Collect all miners whose kernel is valid at this timestamp.
            // The staked miners' kernels are hashed two at a time in index
            // order and reported in that order, so `winners` keeps index
            // order and the tie-break draws the same.
            winners.clear();
            let mut collect = |(mi, threshold): (usize, &U256), kernel: Hash256| {
                if kernel.to_u256() < *threshold {
                    winners.push((mi, kernel));
                }
            };
            let mut pairs = TrialPairs::new();
            for (mi, entry) in midstates.iter().enumerate() {
                if let Some((midstate, threshold)) = entry {
                    pairs.push(midstate, tick, (mi, threshold), &mut collect);
                }
            }
            pairs.flush(&mut collect);
            if !winners.is_empty() {
                // The paper's tie rule: a fair coin between simultaneous
                // successes (uniform among >2).
                let pick = if winners.len() == 1 {
                    0
                } else {
                    rng.gen_range(0..winners.len() as u64) as usize
                };
                let (winner, kernel) = winners[pick];
                return LotteryOutcome {
                    winner,
                    elapsed_ticks: tick,
                    nonce: 0,
                    proof_hash: kernel,
                };
            }
        }
        panic!(
            "ML-PoS lottery found no block within {} ticks — difficulty too hard",
            self.max_ticks
        );
    }

    fn verify(
        &self,
        prev: &Hash256,
        _height: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
        outcome: &LotteryOutcome,
    ) -> bool {
        let Some(miner) = miners.get(outcome.winner) else {
            return false;
        };
        let Some(&stake) = stakes.get(outcome.winner) else {
            return false;
        };
        let kernel = Self::kernel(prev, &miner.pubkey, outcome.elapsed_ticks);
        kernel == outcome.proof_hash && self.kernel_valid(&kernel, stake)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miners(n: usize) -> Vec<MinerProfile> {
        (0..n).map(|i| MinerProfile::new(i, 0)).collect()
    }

    #[test]
    fn lottery_completes_and_verifies() {
        let ms = miners(2);
        let stakes = vec![200, 800];
        let engine = MlPosEngine::for_expected_interval(1000, 50);
        let mut rng = Xoshiro256StarStar::new(1);
        let prev = Hash256::ZERO;
        let out = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        assert!(out.winner < 2);
        assert!(engine.verify(&prev, 1, &ms, &stakes, &out));
    }

    #[test]
    fn zero_stake_never_wins() {
        let ms = miners(2);
        let stakes = vec![0, 100];
        let engine = MlPosEngine::for_expected_interval(100, 10);
        let mut rng = Xoshiro256StarStar::new(2);
        let mut prev = Hash256::ZERO;
        for h in 0..200 {
            let out = engine.run(&prev, h, &ms, &stakes, &mut rng);
            assert_eq!(out.winner, 1);
            prev = HashBuilder::new("chain").hash(&prev).u64(h).finish();
        }
    }

    #[test]
    fn win_rate_proportional_to_stake() {
        // 20/80 split, small per-tick probability → win prob ≈ 0.2.
        let ms = miners(2);
        let stakes = vec![200, 800];
        let engine = MlPosEngine::for_expected_interval(1000, 100);
        let mut rng = Xoshiro256StarStar::new(3);
        let mut wins_a = 0u64;
        let n = 3000;
        let mut prev = Hash256::ZERO;
        for h in 0..n {
            let out = engine.run(&prev, h, &ms, &stakes, &mut rng);
            if out.winner == 0 {
                wins_a += 1;
            }
            prev = HashBuilder::new("chain")
                .hash(&prev)
                .hash(&out.proof_hash)
                .finish();
        }
        let frac = wins_a as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.033, "win fraction {frac}");
    }

    #[test]
    fn verify_rejects_wrong_timestamp() {
        let ms = miners(2);
        let stakes = vec![500, 500];
        let engine = MlPosEngine::for_expected_interval(1000, 20);
        let mut rng = Xoshiro256StarStar::new(4);
        let prev = Hash256::ZERO;
        let mut out = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        out.elapsed_ticks += 1;
        assert!(!engine.verify(&prev, 1, &ms, &stakes, &out));
    }

    #[test]
    fn expected_interval_roughly_correct() {
        let ms = miners(2);
        let stakes = vec![300, 700];
        let engine = MlPosEngine::for_expected_interval(1000, 25);
        let mut rng = Xoshiro256StarStar::new(5);
        let mut total = 0u64;
        let n = 600;
        let mut prev = Hash256::ZERO;
        for h in 0..n {
            let out = engine.run(&prev, h, &ms, &stakes, &mut rng);
            total += out.elapsed_ticks;
            prev = HashBuilder::new("chain").hash(&prev).u64(h).finish();
        }
        let mean = total as f64 / n as f64;
        assert!(mean > 18.0 && mean < 33.0, "mean interval {mean}");
    }

    #[test]
    #[should_panic(expected = "positive total stake")]
    fn zero_total_stake_rejected() {
        let ms = miners(2);
        let engine = MlPosEngine::new(U256::ONE << 200u32);
        let mut rng = Xoshiro256StarStar::new(6);
        let _ = engine.run(&Hash256::ZERO, 1, &ms, &[0, 0], &mut rng);
    }
}

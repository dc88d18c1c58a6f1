//! Fair single-lottery PoS — the paper's treatment for SL-PoS (Section 6.2).
//!
//! SL-PoS is unfair because a *uniform* ticket scaled by `1/stake` does not
//! race proportionally. The treatment transforms the uniform hash into an
//! exponential via inverse-transform sampling:
//!
//! ```text
//! time_i = basetime · (−ln(1 − Hash_i/2²⁵⁶)) / stake_i
//! ```
//!
//! which makes `time_i ~ Exp(stake_i)` so that
//! `Pr[A wins] = S_A/(S_A + S_B)` exactly — restoring expectational
//! fairness (though not robust fairness; see Figure 6a).

use super::{check_inputs, total_stake, BlockLottery, LotteryOutcome, MinerProfile};
use crate::hash::{finish_all, Hash256, HashBuilder};
use fairness_stats::rng::Xoshiro256StarStar;

/// FSL-PoS engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FslPosEngine {
    /// Scale factor from the exponential variate to ticks.
    basetime: f64,
}

impl FslPosEngine {
    /// Creates an engine with the given basetime scale.
    ///
    /// # Panics
    /// Panics unless `basetime` is positive and finite.
    #[must_use]
    pub fn new(basetime: f64) -> Self {
        assert!(
            basetime.is_finite() && basetime > 0.0,
            "basetime must be positive, got {basetime}"
        );
        Self { basetime }
    }

    /// The miner's uniform draw for this block, in `[0, 1)`.
    #[must_use]
    pub fn uniform_draw(prev: &Hash256, pubkey: &Hash256) -> f64 {
        Self::draw_hash(prev, pubkey).finish().as_unit_f64()
    }

    /// The builder of the hash a uniform draw is read from.
    fn draw_hash(prev: &Hash256, pubkey: &Hash256) -> HashBuilder {
        HashBuilder::new("fslpos-draw").hash(prev).hash(pubkey)
    }

    /// Waiting time `basetime·(−ln(1−u))/stake`.
    #[must_use]
    pub fn waiting_time(&self, u: f64, stake: u64) -> f64 {
        if stake == 0 {
            return f64::INFINITY;
        }
        // ln1p for numerical accuracy near u = 0.
        self.basetime * (-(-u).ln_1p()) / stake as f64
    }

    /// Runs the lottery for the block after `prev`: the smallest waiting
    /// time wins. Fully deterministic given `prev` (no RNG), so
    /// verification replays it.
    ///
    /// # Panics
    /// Panics if `stakes` length differs from `miners` or total stake is
    /// zero.
    #[must_use]
    pub fn lottery(
        &self,
        prev: &Hash256,
        miners: &[MinerProfile],
        stakes: &[u64],
    ) -> LotteryOutcome {
        check_inputs(miners, stakes);
        assert!(
            total_stake(stakes) > 0,
            "FSL-PoS requires positive total stake"
        );
        let mut best: Option<(f64, usize)> = None;
        // The staked miners' draws are hashed two at a time, in index order.
        let staked = || (0..miners.len()).filter(|&mi| stakes[mi] > 0);
        let draws = finish_all(staked().map(|mi| Self::draw_hash(prev, &miners[mi].pubkey)));
        for (mi, digest) in staked().zip(draws) {
            let u = digest.as_unit_f64();
            let t = self.waiting_time(u, stakes[mi]);
            let better = match best {
                None => true,
                // Ties have probability ~0; break by index deterministically.
                Some((bt, _)) => t < bt,
            };
            if better {
                best = Some((t, mi));
            }
        }
        let (t, winner) = best.expect("some miner has stake");
        LotteryOutcome {
            winner,
            elapsed_ticks: t.min(u64::MAX as f64).ceil().max(1.0) as u64,
            nonce: 0,
            proof_hash: HashBuilder::new("fslpos-proof")
                .hash(prev)
                .hash(&miners[winner].pubkey)
                .finish(),
        }
    }
}

impl BlockLottery for FslPosEngine {
    fn name(&self) -> &'static str {
        "fsl-pos"
    }

    fn run(
        &self,
        prev: &Hash256,
        _height: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
        _rng: &mut Xoshiro256StarStar,
    ) -> LotteryOutcome {
        self.lottery(prev, miners, stakes)
    }

    fn verify(
        &self,
        prev: &Hash256,
        _height: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
        outcome: &LotteryOutcome,
    ) -> bool {
        if outcome.winner >= miners.len() {
            return false;
        }
        let expect = self.lottery(prev, miners, stakes);
        expect.winner == outcome.winner && expect.proof_hash == outcome.proof_hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miners(n: usize) -> Vec<MinerProfile> {
        (0..n).map(|i| MinerProfile::new(i, 0)).collect()
    }

    fn chain_hash(prev: &Hash256, h: u64) -> Hash256 {
        HashBuilder::new("chain").hash(prev).u64(h).finish()
    }

    #[test]
    fn win_rate_proportional_to_stake() {
        // The whole point of the treatment: 20/80 stakes → 20% win rate
        // (vs 12.5% under plain SL-PoS).
        let ms = miners(2);
        let stakes = vec![2000, 8000];
        let engine = FslPosEngine::new(1_000_000.0);
        let mut rng = Xoshiro256StarStar::new(1);
        let n = 20_000;
        let mut wins_a = 0u64;
        let mut prev = Hash256::ZERO;
        for h in 0..n {
            let out = engine.run(&prev, h, &ms, &stakes, &mut rng);
            if out.winner == 0 {
                wins_a += 1;
            }
            prev = chain_hash(&prev, h);
        }
        let frac = wins_a as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.013, "win fraction {frac} vs 0.2");
    }

    #[test]
    fn three_miner_proportionality() {
        let ms = miners(3);
        let stakes = vec![1000, 3000, 6000];
        let engine = FslPosEngine::new(1000.0);
        let mut rng = Xoshiro256StarStar::new(2);
        let n = 30_000;
        let mut wins = [0u64; 3];
        let mut prev = Hash256::ZERO;
        for h in 0..n {
            let out = engine.run(&prev, h, &ms, &stakes, &mut rng);
            wins[out.winner] += 1;
            prev = chain_hash(&prev, h);
        }
        for (i, expect) in [0.1, 0.3, 0.6].iter().enumerate() {
            let frac = wins[i] as f64 / n as f64;
            assert!(
                (frac - expect).abs() < 0.013,
                "miner {i}: {frac} vs {expect}"
            );
        }
    }

    #[test]
    fn deterministic_and_verifiable() {
        let ms = miners(2);
        let stakes = vec![100, 900];
        let engine = FslPosEngine::new(100.0);
        let mut rng = Xoshiro256StarStar::new(3);
        let prev = Hash256::ZERO;
        let a = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        let b = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        assert_eq!(a, b);
        assert!(engine.verify(&prev, 1, &ms, &stakes, &a));
        let mut bad = a;
        bad.winner = 1 - bad.winner;
        assert!(!engine.verify(&prev, 1, &ms, &stakes, &bad));
    }

    #[test]
    fn waiting_time_properties() {
        let engine = FslPosEngine::new(10.0);
        assert_eq!(engine.waiting_time(0.5, 0), f64::INFINITY);
        // Larger stake → shorter wait for the same draw.
        assert!(engine.waiting_time(0.5, 100) < engine.waiting_time(0.5, 10));
        // u → 0 gives time → 0; u → 1 diverges.
        assert!(engine.waiting_time(1e-12, 10) < 1e-10);
        assert!(engine.waiting_time(1.0 - 1e-12, 10) > 1.0);
    }

    #[test]
    #[should_panic(expected = "basetime must be positive")]
    fn bad_basetime_rejected() {
        let _ = FslPosEngine::new(0.0);
    }
}

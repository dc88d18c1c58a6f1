//! Single-lottery PoS (NXT style, Section 2.3).
//!
//! Each miner gets exactly one ticket per block: a 64-bit "hit" drawn from
//! `Hash("slpos-hit", prev, pk)` (NXT takes the first 8 bytes of the
//! generation-signature hash). The candidate becomes valid at waiting time
//!
//! ```text
//! time_i = basetime · hit_i / stake_i
//! ```
//!
//! and the smallest waiting time wins. Because the *minimum* of one uniform
//! sample per miner scaled by `1/stake` is **not** proportional to stake,
//! the win probability is `S_A/(2·S_B)` for the poorer miner (Eq. 1) — the
//! source of SL-PoS's rich-get-richer dynamics (Theorems 3.4, 4.9).

use super::{check_inputs, total_stake, BlockLottery, LotteryOutcome, MinerProfile};
use crate::hash::{finish_all, Hash256, HashBuilder};
use fairness_stats::rng::Xoshiro256StarStar;

/// SL-PoS engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlPosEngine {
    /// Scale factor from hit/stake ratio to ticks.
    basetime: u64,
}

impl SlPosEngine {
    /// Creates an engine with the given basetime scale.
    ///
    /// # Panics
    /// Panics if `basetime` is zero.
    #[must_use]
    pub fn new(basetime: u64) -> Self {
        assert!(basetime > 0, "basetime must be positive");
        Self { basetime }
    }

    /// The basetime scale.
    #[must_use]
    pub fn basetime(&self) -> u64 {
        self.basetime
    }

    /// The miner's 64-bit hit value for this block.
    #[must_use]
    pub fn hit(prev: &Hash256, pubkey: &Hash256) -> u64 {
        Self::hit_of(&Self::hit_hash(prev, pubkey).finish())
    }

    /// The builder of the hash a hit is read from.
    fn hit_hash(prev: &Hash256, pubkey: &Hash256) -> HashBuilder {
        HashBuilder::new("slpos-hit").hash(prev).hash(pubkey)
    }

    /// The hit in a hit hash: its first 8 bytes, big-endian.
    fn hit_of(digest: &Hash256) -> u64 {
        u64::from_be_bytes(digest.0[..8].try_into().expect("8 bytes"))
    }

    /// Waiting time of a candidate: `basetime·hit/stake` (u128 arithmetic;
    /// zero stake waits forever).
    #[must_use]
    pub fn waiting_time(&self, hit: u64, stake: u64) -> u128 {
        if stake == 0 {
            return u128::MAX;
        }
        self.basetime as u128 * hit as u128 / stake as u128
    }

    /// The waiting time a miner would have on top of `prev` — hit lookup
    /// plus scaling in one call. Stake grinders use this to score candidate
    /// parent blocks (every hit is public, so anyone can evaluate the next
    /// lottery for any candidate tip).
    #[must_use]
    pub fn next_waiting_time(&self, prev: &Hash256, pubkey: &Hash256, stake: u64) -> u128 {
        self.waiting_time(Self::hit(prev, pubkey), stake)
    }

    /// Runs the single lottery with **per-miner parent tips** — the
    /// fork-aware variant of [`BlockLottery::run`]: miner `i` draws her hit
    /// from `tips[i]`, so branches race on equal terms during withholding.
    /// Fully deterministic given the tips (no RNG), like the ordinary run.
    ///
    /// # Panics
    /// Panics if `tips` or `stakes` length differs from `miners`, or total
    /// stake is zero.
    #[must_use]
    pub fn run_on_tips(
        &self,
        tips: &[Hash256],
        miners: &[MinerProfile],
        stakes: &[u64],
    ) -> LotteryOutcome {
        check_inputs(miners, stakes);
        assert_eq!(
            tips.len(),
            miners.len(),
            "tips length must match miner count"
        );
        assert!(
            total_stake(stakes) > 0,
            "SL-PoS requires positive total stake"
        );
        let mut best: Option<(u128, u64, usize)> = None;
        // The staked miners' hits are hashed two at a time, in index order.
        let staked = || (0..miners.len()).filter(|&mi| stakes[mi] > 0);
        let hits = finish_all(staked().map(|mi| Self::hit_hash(&tips[mi], &miners[mi].pubkey)));
        for (mi, digest) in staked().zip(hits) {
            let hit = Self::hit_of(&digest);
            let t = self.waiting_time(hit, stakes[mi]);
            // Tie on waiting time broken by the smaller raw hit, then by
            // miner index — fully deterministic like NXT's chain selection.
            let candidate = (t, hit, mi);
            let better = match &best {
                None => true,
                Some(b) => candidate < *b,
            };
            if better {
                best = Some(candidate);
            }
        }
        let (t, _hit, winner) = best.expect("some miner has stake");
        // Winner selection uses the full-precision u128 waiting time; the
        // *reported* elapsed time is scaled down to tick-sized units (raw
        // values are hit/stake ratios with hit ~ U(0, 2⁶⁴)).
        LotteryOutcome {
            winner,
            elapsed_ticks: ((t >> 40) + 1).min(u64::MAX as u128) as u64,
            nonce: 0,
            proof_hash: HashBuilder::new("slpos-proof")
                .hash(&tips[winner])
                .hash(&miners[winner].pubkey)
                .finish(),
        }
    }
}

impl BlockLottery for SlPosEngine {
    fn name(&self) -> &'static str {
        "sl-pos"
    }

    fn run(
        &self,
        prev: &Hash256,
        _height: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
        _rng: &mut Xoshiro256StarStar,
    ) -> LotteryOutcome {
        let tips = vec![*prev; miners.len()];
        self.run_on_tips(&tips, miners, stakes)
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
        // Re-run the deterministic lottery and compare.
        let expect = self.run_on_tips(&vec![*prev; miners.len()], miners, stakes);
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
    fn deterministic_given_prev_hash() {
        let ms = miners(3);
        let stakes = vec![100, 200, 700];
        let engine = SlPosEngine::new(1000);
        let mut rng = Xoshiro256StarStar::new(1);
        let prev = Hash256::ZERO;
        let a = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        let b = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        assert_eq!(a, b);
        assert!(engine.verify(&prev, 1, &ms, &stakes, &a));
    }

    #[test]
    fn poor_miner_wins_half_of_fair_share() {
        // Section 2.3 / Eq. (1): with stakes 20/80, A's win probability is
        // a/(2b) = 0.2/1.6 = 0.125, not 0.2.
        let ms = miners(2);
        let stakes = vec![2000, 8000];
        let engine = SlPosEngine::new(1_000_000);
        let mut rng = Xoshiro256StarStar::new(2);
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
        // SE ≈ sqrt(0.125·0.875/20000) ≈ 0.0023; allow ~4.5σ.
        assert!((frac - 0.125).abs() < 0.011, "win fraction {frac} vs 0.125");
    }

    #[test]
    fn equal_stakes_win_equally() {
        let ms = miners(2);
        let stakes = vec![500, 500];
        let engine = SlPosEngine::new(1000);
        let mut rng = Xoshiro256StarStar::new(3);
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
        assert!((frac - 0.5).abs() < 0.016, "win fraction {frac}");
    }

    #[test]
    fn zero_stake_waits_forever() {
        let engine = SlPosEngine::new(10);
        assert_eq!(engine.waiting_time(12345, 0), u128::MAX);
        let ms = miners(2);
        let stakes = vec![0, 10];
        let mut rng = Xoshiro256StarStar::new(4);
        let out = engine.run(&Hash256::ZERO, 1, &ms, &stakes, &mut rng);
        assert_eq!(out.winner, 1);
    }

    #[test]
    fn waiting_time_scales_inversely_with_stake() {
        let engine = SlPosEngine::new(100);
        let hit = 1_000_000u64;
        assert!(engine.waiting_time(hit, 10) > engine.waiting_time(hit, 100));
        assert_eq!(engine.waiting_time(hit, 100), 100 * 1_000_000 / 100);
    }

    #[test]
    fn verify_rejects_wrong_winner() {
        let ms = miners(2);
        let stakes = vec![100, 900];
        let engine = SlPosEngine::new(1000);
        let mut rng = Xoshiro256StarStar::new(5);
        let prev = Hash256::ZERO;
        let mut out = engine.run(&prev, 1, &ms, &stakes, &mut rng);
        out.winner = 1 - out.winner;
        assert!(!engine.verify(&prev, 1, &ms, &stakes, &out));
    }

    #[test]
    #[should_panic(expected = "basetime must be positive")]
    fn zero_basetime_rejected() {
        let _ = SlPosEngine::new(0);
    }
}

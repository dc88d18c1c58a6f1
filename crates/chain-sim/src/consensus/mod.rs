//! Hash-level consensus engines.
//!
//! Each engine implements the *mechanism* of its protocol exactly as the
//! paper describes it in Section 2 — not the closed-form win probabilities
//! (those live in `fairness-core::theory` and are *validated against* these
//! engines in tests):
//!
//! * [`pow`] — nonce grinding: `Hash(nonce, …) < D` (Section 2.1);
//! * [`mlpos`] — one kernel trial per miner per timestamp:
//!   `Hash(time, …) < D·stake` (Section 2.2);
//! * [`slpos`] — NXT single lottery: `time = basetime·Hash(pk, …)/stake`,
//!   smallest waiting time wins (Section 2.3);
//! * [`fslpos`] — the paper's fairness treatment:
//!   `time = basetime·(−ln(1 − Hash/2²⁵⁶))/stake` (Section 6.2);
//! * [`cpos`] — epochs with `P` shard proposers plus proportional attester
//!   rewards (Section 2.4).

pub mod cpos;
pub mod fslpos;
pub mod mlpos;
pub mod pow;
pub mod slpos;

pub use cpos::{CPosEngine, EpochOutcome};
pub use fslpos::FslPosEngine;
pub use mlpos::MlPosEngine;
pub use pow::PowEngine;
pub use slpos::SlPosEngine;

use crate::account::Address;
use crate::hash::{Hash256, HashBuilder};
use fairness_stats::rng::Xoshiro256StarStar;

/// A participating miner's identity and fixed attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinerProfile {
    /// Dense miner index (0-based).
    pub index: usize,
    /// Public key (hash commitment).
    pub pubkey: Hash256,
    /// Reward address.
    pub address: Address,
    /// PoW hash trials per tick (ignored by PoS engines).
    pub hash_rate: u64,
}

impl MinerProfile {
    /// Builds the canonical profile for miner `index` with the given PoW
    /// hash rate.
    #[must_use]
    pub fn new(index: usize, hash_rate: u64) -> Self {
        let pubkey = HashBuilder::new("miner-pubkey").u64(index as u64).finish();
        Self {
            index,
            pubkey,
            address: Address::from_pubkey(&pubkey),
            hash_rate,
        }
    }
}

/// Outcome of a single-block lottery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LotteryOutcome {
    /// Index of the winning miner.
    pub winner: usize,
    /// Simulated time consumed by the lottery, in ticks.
    pub elapsed_ticks: u64,
    /// Winning nonce (PoW) or 0.
    pub nonce: u64,
    /// The winning lottery hash (kernel/hit), for auditability.
    pub proof_hash: Hash256,
}

/// A consensus engine that elects one proposer per block.
///
/// Engines draw all randomness from the previous block hash (like real
/// chains) plus, where the physical protocol is randomized (PoW nonce
/// starting points, ML-PoS tie-breaking), from the supplied RNG. SL-PoS
/// and FSL-PoS never touch it: their lotteries are inherent methods that
/// take no RNG, and `run` delegates to them.
pub trait BlockLottery {
    /// Engine name for reports.
    fn name(&self) -> &'static str;

    /// Runs the lottery for the block after `prev`, given per-miner stakes
    /// in atoms (PoS) or using profile hash rates (PoW).
    ///
    /// # Panics
    /// Implementations panic if `miners` is empty, `stakes` length differs,
    /// or total stake is zero for a stake-based engine.
    fn run(
        &self,
        prev: &Hash256,
        height: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
        rng: &mut Xoshiro256StarStar,
    ) -> LotteryOutcome;

    /// Verifies that `outcome` is a valid win for `winner` under this
    /// engine's rule (used as the chain's proof check).
    fn verify(
        &self,
        prev: &Hash256,
        height: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
        outcome: &LotteryOutcome,
    ) -> bool;
}

pub(crate) fn check_inputs(miners: &[MinerProfile], stakes: &[u64]) {
    assert!(!miners.is_empty(), "lottery requires at least one miner");
    assert_eq!(
        miners.len(),
        stakes.len(),
        "stakes length must match miner count"
    );
}

pub(crate) fn total_stake(stakes: &[u64]) -> u128 {
    stakes.iter().map(|&s| s as u128).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_deterministic() {
        let a = MinerProfile::new(3, 10);
        let b = MinerProfile::new(3, 10);
        assert_eq!(a, b);
        assert_ne!(a.pubkey, MinerProfile::new(4, 10).pubkey);
        assert_eq!(a.address, Address::from_pubkey(&a.pubkey));
    }

    #[test]
    #[should_panic(expected = "at least one miner")]
    fn empty_miner_set_rejected() {
        check_inputs(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "length must match")]
    fn stake_length_mismatch_rejected() {
        check_inputs(&[MinerProfile::new(0, 1)], &[1, 2]);
    }
}

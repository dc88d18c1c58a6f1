//! Compound PoS (Ethereum 2.0 style, Section 2.4).
//!
//! Mining proceeds in epochs. Each epoch:
//!
//! * one proposer is selected per shard, uniformly over *stake* (every
//!   32-Ether identity is one ticket, i.e. selection weight = stake), for
//!   `P` shards; each proposer earns `w/P` of the proposer budget;
//! * every miner earns an attester ("inflation") reward proportional to her
//!   stake: `v · s_i / Σs`.
//!
//! The attester split uses exact largest-remainder apportionment so the
//! epoch issues exactly `v + w` atoms — the ledger's supply invariant
//! (`1 + (w+v)·n` total after `n` epochs, in the paper's normalization)
//! holds to the atom.

use super::{check_inputs, total_stake, MinerProfile};
use crate::account::proportional_split;
use crate::hash::{Hash256, HashBuilder};

/// C-PoS epoch engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CPosEngine {
    /// Number of shards (proposer slots) per epoch. Ethereum 2.0 uses 32.
    shards: u32,
    /// Total proposer reward per epoch, in atoms.
    proposer_reward: u64,
    /// Total attester (inflation) reward per epoch, in atoms.
    attester_reward: u64,
}

/// Result of one C-PoS epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochOutcome {
    /// Winning miner index per shard (`len == shards`).
    pub shard_proposers: Vec<usize>,
    /// Exact atoms earned by each miner this epoch (proposer + attester).
    pub rewards: Vec<u64>,
    /// Atoms of the proposer budget earned per miner.
    pub proposer_portion: Vec<u64>,
    /// Atoms of the attester budget earned per miner.
    pub attester_portion: Vec<u64>,
}

impl CPosEngine {
    /// Creates an engine.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn new(shards: u32, proposer_reward: u64, attester_reward: u64) -> Self {
        assert!(shards > 0, "C-PoS requires at least one shard");
        Self {
            shards,
            proposer_reward,
            attester_reward,
        }
    }

    /// Number of shards per epoch.
    #[must_use]
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Proposer budget per epoch (atoms).
    #[must_use]
    pub fn proposer_reward(&self) -> u64 {
        self.proposer_reward
    }

    /// Attester budget per epoch (atoms).
    #[must_use]
    pub fn attester_reward(&self) -> u64 {
        self.attester_reward
    }

    /// Selects the proposer for `(epoch, shard)` by stake-weighted choice
    /// driven by the epoch randomness beacon (hash of the previous epoch's
    /// tip).
    #[must_use]
    pub fn select_proposer(prev: &Hash256, epoch: u64, shard: u32, stakes: &[u64]) -> usize {
        let total = total_stake(stakes);
        assert!(total > 0, "C-PoS requires positive total stake");
        let beacon = HashBuilder::new("cpos-proposer")
            .hash(prev)
            .u64(epoch)
            .u64(shard as u64)
            .finish();
        // Map the 256-bit beacon to [0, total) exactly via wide modulo; the
        // modulo bias is < 2^-190 for realistic stake totals.
        let draw = beacon
            .to_u256()
            .div_rem(crate::u256::U256::from_u128(total))
            .1;
        let mut point = draw.low_u128();
        for (i, &s) in stakes.iter().enumerate() {
            if point < s as u128 {
                return i;
            }
            point -= s as u128;
        }
        unreachable!("draw < total stake")
    }

    /// Runs one epoch: selects `P` shard proposers and computes exact
    /// reward portions. The lottery is beacon-driven, so it takes no RNG.
    #[must_use]
    pub fn run_epoch(
        &self,
        prev: &Hash256,
        epoch: u64,
        miners: &[MinerProfile],
        stakes: &[u64],
    ) -> EpochOutcome {
        check_inputs(miners, stakes);
        let m = miners.len();
        let mut shard_proposers = Vec::with_capacity(self.shards as usize);
        let mut blocks_won = vec![0u64; m];
        for shard in 0..self.shards {
            let winner = Self::select_proposer(prev, epoch, shard, stakes);
            shard_proposers.push(winner);
            blocks_won[winner] += 1;
        }
        // Proposer budget split exactly proportionally to shards won
        // (blocks_won sums to `shards > 0`, so the split is well-defined).
        let proposer_portion = proportional_split(self.proposer_reward, &blocks_won);
        let attester_portion = proportional_split(self.attester_reward, stakes);
        let rewards: Vec<u64> = proposer_portion
            .iter()
            .zip(&attester_portion)
            .map(|(&p, &a)| p + a)
            .collect();
        EpochOutcome {
            shard_proposers,
            rewards,
            proposer_portion,
            attester_portion,
        }
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
    fn epoch_issues_exact_total() {
        let engine = CPosEngine::new(32, 1_000, 10_000);
        let ms = miners(3);
        let stakes = vec![200_000, 300_000, 500_000];
        let out = engine.run_epoch(&Hash256::ZERO, 0, &ms, &stakes);
        assert_eq!(out.shard_proposers.len(), 32);
        assert_eq!(out.rewards.iter().sum::<u64>(), 11_000);
        assert_eq!(out.proposer_portion.iter().sum::<u64>(), 1_000);
        assert_eq!(out.attester_portion.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn attester_reward_proportional() {
        let engine = CPosEngine::new(4, 0, 1_000);
        let ms = miners(2);
        let stakes = vec![200, 800];
        let out = engine.run_epoch(&Hash256::ZERO, 0, &ms, &stakes);
        assert_eq!(out.attester_portion, vec![200, 800]);
    }

    #[test]
    fn proposer_selection_is_stake_weighted() {
        let ms = miners(2);
        let stakes = vec![200, 800];
        let engine = CPosEngine::new(32, 32, 0);
        let mut prev = Hash256::ZERO;
        let mut a_blocks = 0u64;
        let epochs = 1000u64;
        for e in 0..epochs {
            let out = engine.run_epoch(&prev, e, &ms, &stakes);
            a_blocks += out.shard_proposers.iter().filter(|&&w| w == 0).count() as u64;
            prev = chain_hash(&prev, e);
        }
        let frac = a_blocks as f64 / (epochs * 32) as f64;
        // Bin(32000, 0.2): SE ≈ 0.0022; allow ~5σ.
        assert!((frac - 0.2).abs() < 0.012, "proposer fraction {frac}");
    }

    #[test]
    fn beacon_selection_deterministic() {
        let stakes = vec![100, 900];
        let a = CPosEngine::select_proposer(&Hash256::ZERO, 3, 7, &stakes);
        let b = CPosEngine::select_proposer(&Hash256::ZERO, 3, 7, &stakes);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_stake_miner_never_proposes_or_attests() {
        let engine = CPosEngine::new(16, 160, 1600);
        let ms = miners(3);
        let stakes = vec![0, 500, 500];
        let mut prev = Hash256::ZERO;
        for e in 0..50 {
            let out = engine.run_epoch(&prev, e, &ms, &stakes);
            assert!(out.shard_proposers.iter().all(|&w| w != 0));
            assert_eq!(out.attester_portion[0], 0);
            prev = chain_hash(&prev, e);
        }
    }

    #[test]
    fn degenerate_single_shard() {
        let engine = CPosEngine::new(1, 100, 0);
        let ms = miners(2);
        let stakes = vec![1, 1];
        let out = engine.run_epoch(&Hash256::ZERO, 0, &ms, &stakes);
        assert_eq!(out.shard_proposers.len(), 1);
        let winner = out.shard_proposers[0];
        assert_eq!(out.proposer_portion[winner], 100);
        assert_eq!(out.proposer_portion[1 - winner], 0);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = CPosEngine::new(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "positive total stake")]
    fn zero_total_stake_rejected() {
        let _ = CPosEngine::select_proposer(&Hash256::ZERO, 0, 0, &[0, 0]);
    }
}

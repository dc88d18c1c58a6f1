//! "Real-system" experiment runner.
//!
//! Drives [`NetworkSim`]/[`CPosSim`] repetitions exactly the way the paper
//! drives its EC2 deployments: run a two-miner (or N-miner) network for `n`
//! blocks, record the reward fraction `λ_A` at checkpoints, repeat, and
//! summarize. The fairness figures overlay these hash-level trajectories on
//! the fast closed-form simulations from `fairness-core` (the paper's green
//! bars vs blue bands).

use super::network::{CPosSim, Engine, NetworkConfig, NetworkSim};
use crate::consensus::{CPosEngine, FslPosEngine, MlPosEngine, PowEngine, SlPosEngine};
use crate::difficulty::target_for_expected_interval;
use fairness_stats::rng::Xoshiro256StarStar;

/// Which protocol an experiment exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Proof-of-Work (Geth stand-in).
    Pow,
    /// Multi-lottery PoS (Qtum/Blackcoin stand-in).
    MlPos,
    /// Single-lottery PoS (NXT stand-in).
    SlPos,
    /// Fair single-lottery PoS (paper's treatment on NXT).
    FslPos,
    /// Compound PoS (Ethereum 2.0 spec).
    CPos,
}

impl ProtocolKind {
    /// Display name matching the paper's terminology.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Pow => "PoW",
            ProtocolKind::MlPos => "ML-PoS",
            ProtocolKind::SlPos => "SL-PoS",
            ProtocolKind::FslPos => "FSL-PoS",
            ProtocolKind::CPos => "C-PoS",
        }
    }
}

/// Configuration of a hash-level experiment.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Initial stake atoms per miner (index 0 is the tracked miner A).
    pub initial_stakes: Vec<u64>,
    /// Hash rates (PoW); proportional to the paper's resource shares.
    pub hash_rates: Vec<u64>,
    /// Block reward in atoms (C-PoS: proposer reward per epoch).
    pub block_reward: u64,
    /// C-PoS attester/inflation reward per epoch, in atoms.
    pub attester_reward: u64,
    /// C-PoS shard count `P`.
    pub shards: u32,
    /// Horizon: number of blocks (epochs for C-PoS).
    pub horizon: u64,
    /// Checkpoints (block/epoch counts) at which `λ_A` is recorded; must be
    /// ascending and ≤ `horizon`.
    pub checkpoints: Vec<u64>,
}

impl ExperimentConfig {
    /// Two-miner configuration matching the paper's default setup: miner A
    /// holds fraction `a` of `total` stake atoms, reward per block is
    /// `w_fraction` of the initial circulation.
    #[must_use]
    pub fn two_miner(protocol: ProtocolKind, a: f64, w_fraction: f64, horizon: u64) -> Self {
        assert!((0.0..1.0).contains(&a) && a > 0.0, "a must be in (0,1)");
        let total: u64 = 1_000_000;
        let stake_a = (a * total as f64).round() as u64;
        let stakes = vec![stake_a, total - stake_a];
        let reward = (w_fraction * total as f64).round() as u64;
        // Hash rates only matter proportionally; small integers keep the
        // nonce-grinding loop affordable (the paper's a values are all
        // multiples of 0.05, so a scale of 20 represents them exactly).
        let rate_a = ((a * 20.0).round() as u64).max(1);
        let rates = vec![rate_a, 20 - rate_a.min(19)];
        Self {
            protocol,
            initial_stakes: stakes,
            hash_rates: rates,
            block_reward: reward.max(1),
            attester_reward: (10.0 * w_fraction * total as f64).round() as u64,
            shards: 32,
            horizon,
            checkpoints: default_checkpoints(horizon),
        }
    }

    /// N-miner configuration (Table 1's multi-miner game at the hash
    /// level): miner `i` holds fraction `shares[i]` of the stake and of the
    /// hash power, index 0 being the tracked miner A. Stake atoms sum
    /// exactly to the same 1,000,000-atom circulation as
    /// [`two_miner`](Self::two_miner); the reward per block is `w_fraction`
    /// of it.
    ///
    /// # Panics
    /// Panics unless `shares` has at least two entries, every share is in
    /// `(0, 1)`, and the shares sum to 1 (within 1e-9).
    #[must_use]
    pub fn multi_miner(
        protocol: ProtocolKind,
        shares: &[f64],
        w_fraction: f64,
        horizon: u64,
    ) -> Self {
        assert!(shares.len() >= 2, "need at least two miners");
        assert!(
            shares.iter().all(|&s| s > 0.0 && s < 1.0),
            "each share must be in (0,1), got {shares:?}"
        );
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares must sum to 1, got {sum}");
        let total: u64 = 1_000_000;
        // Round every stake but give the last miner the exact remainder so
        // the circulation is conserved atom-for-atom.
        let mut stakes: Vec<u64> = shares[..shares.len() - 1]
            .iter()
            .map(|&s| ((s * total as f64).round() as u64).max(1))
            .collect();
        let assigned: u64 = stakes.iter().sum();
        assert!(assigned < total, "shares leave no stake for the last miner");
        stakes.push(total - assigned);
        // Hash rates at scale 100 represent percent-resolution shares
        // exactly while keeping the nonce-grinding loop affordable.
        let rates: Vec<u64> = shares
            .iter()
            .map(|&s| ((s * 100.0).round() as u64).max(1))
            .collect();
        let reward = (w_fraction * total as f64).round() as u64;
        Self {
            protocol,
            initial_stakes: stakes,
            hash_rates: rates,
            block_reward: reward.max(1),
            attester_reward: (10.0 * w_fraction * total as f64).round() as u64,
            shards: 32,
            horizon,
            checkpoints: default_checkpoints(horizon),
        }
    }

    /// The most atoms the run can put in circulation, or `None` when that
    /// exceeds `u64::MAX` and the ledger would overflow mid-run. The bound
    /// is exact: a block network starts with the miners' stakes and the
    /// synthetic users' funds and issues one block reward per block; a
    /// C-PoS network starts with the stakes and issues the proposer and
    /// attester rewards per epoch.
    #[must_use]
    pub fn max_supply(&self) -> Option<u64> {
        let stakes = self
            .initial_stakes
            .iter()
            .try_fold(0u64, |sum, &stake| sum.checked_add(stake))?;
        let (genesis, per_block) = match self.protocol {
            ProtocolKind::CPos => (stakes, self.block_reward.checked_add(self.attester_reward)?),
            _ => (
                stakes.checked_add(NetworkSim::USER_FUNDS * NetworkSim::USER_COUNT as u64)?,
                self.block_reward,
            ),
        };
        genesis.checked_add(self.horizon.checked_mul(per_block)?)
    }
}

/// Ten roughly log-spaced checkpoints up to `horizon`.
#[must_use]
pub fn default_checkpoints(horizon: u64) -> Vec<u64> {
    let mut pts: Vec<u64> = Vec::new();
    let mut v = (horizon / 100).max(1);
    while v < horizon {
        pts.push(v);
        v = (v * 2).max(v + 1);
    }
    pts.push(horizon);
    pts.dedup();
    pts
}

/// Result of one experiment repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOutcome {
    /// `λ_A` at each configured checkpoint.
    pub lambda_series: Vec<f64>,
    /// Final `λ_A` at the horizon.
    pub final_lambda: f64,
    /// Final stake atoms per miner.
    pub final_stakes: Vec<u64>,
    /// Total simulated ticks elapsed.
    pub total_ticks: u64,
}

/// Runs one repetition of the experiment.
///
/// # Panics
/// Panics if checkpoints are not ascending or exceed the horizon.
#[must_use]
pub fn run_experiment(
    config: &ExperimentConfig,
    rng: &mut Xoshiro256StarStar,
) -> ExperimentOutcome {
    assert!(
        config.checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly ascending"
    );
    assert!(
        config
            .checkpoints
            .last()
            .is_none_or(|&last| last <= config.horizon),
        "checkpoints must not exceed the horizon"
    );
    match config.protocol {
        ProtocolKind::CPos => run_cpos(config),
        _ => run_block_lottery(config, rng),
    }
}

fn build_engine(config: &ExperimentConfig) -> Engine {
    let total: u64 = config.initial_stakes.iter().sum();
    match config.protocol {
        ProtocolKind::Pow => {
            let rate: u64 = config.hash_rates.iter().sum();
            // ~4 expected ticks per block keeps hash-level runs affordable.
            Engine::Pow(PowEngine::new(target_for_expected_interval(rate.max(1), 4)))
        }
        // 64-tick intervals keep per-timestamp success probabilities small
        // enough that the tie-break term p_A·p_B is negligible (§2.2).
        ProtocolKind::MlPos => Engine::MlPos(MlPosEngine::for_expected_interval(total, 64)),
        ProtocolKind::SlPos => Engine::SlPos(SlPosEngine::new(1_000)),
        ProtocolKind::FslPos => Engine::FslPos(FslPosEngine::new(1_000.0)),
        ProtocolKind::CPos => unreachable!("C-PoS handled by run_cpos"),
    }
}

fn run_block_lottery(config: &ExperimentConfig, rng: &mut Xoshiro256StarStar) -> ExperimentOutcome {
    let net_config = NetworkConfig {
        engine: build_engine(config),
        initial_stakes: config.initial_stakes.clone(),
        hash_rates: config.hash_rates.clone(),
        block_reward: config.block_reward,
        txs_per_block: 2,
        propagation_delay: 1,
        pow_retarget: None,
    };
    let mut net = NetworkSim::new(net_config, rng);
    let mut series = Vec::with_capacity(config.checkpoints.len());
    let mut next_checkpoint = 0usize;
    for height in 1..=config.horizon {
        net.step_block(rng);
        if next_checkpoint < config.checkpoints.len()
            && height == config.checkpoints[next_checkpoint]
        {
            series.push(net.win_fraction(0));
            next_checkpoint += 1;
        }
    }
    let m = config.initial_stakes.len().max(config.hash_rates.len());
    ExperimentOutcome {
        final_lambda: net.win_fraction(0),
        lambda_series: series,
        final_stakes: (0..m).map(|i| net.stake(i)).collect(),
        total_ticks: net.clock(),
    }
}

fn run_cpos(config: &ExperimentConfig) -> ExperimentOutcome {
    let engine = CPosEngine::new(config.shards, config.block_reward, config.attester_reward);
    let mut sim = CPosSim::new(engine, &config.initial_stakes, 384);
    let mut series = Vec::with_capacity(config.checkpoints.len());
    let mut next_checkpoint = 0usize;
    for epoch in 1..=config.horizon {
        sim.step_epoch();
        if next_checkpoint < config.checkpoints.len()
            && epoch == config.checkpoints[next_checkpoint]
        {
            series.push(sim.reward_fraction(0));
            next_checkpoint += 1;
        }
    }
    ExperimentOutcome {
        final_lambda: sim.reward_fraction(0),
        lambda_series: series,
        final_stakes: (0..config.initial_stakes.len())
            .map(|i| sim.stake(i))
            .collect(),
        total_ticks: sim.epoch() * 384,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_checkpoints_shape() {
        let pts = default_checkpoints(1000);
        assert_eq!(*pts.last().expect("non-empty"), 1000);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        assert!(pts.len() >= 5);
    }

    #[test]
    fn mlpos_experiment_runs() {
        let config = ExperimentConfig::two_miner(ProtocolKind::MlPos, 0.2, 0.01, 100);
        let mut rng = Xoshiro256StarStar::new(1);
        let out = run_experiment(&config, &mut rng);
        assert_eq!(out.lambda_series.len(), config.checkpoints.len());
        assert!((0.0..=1.0).contains(&out.final_lambda));
        // Stake conservation: initial 1e6 + 100 blocks × 10_000 atoms.
        let total: u64 = out.final_stakes.iter().sum();
        assert_eq!(total, 1_000_000 + 100 * 10_000);
    }

    #[test]
    fn pow_experiment_runs() {
        let config = ExperimentConfig::two_miner(ProtocolKind::Pow, 0.2, 0.01, 60);
        let mut rng = Xoshiro256StarStar::new(2);
        let out = run_experiment(&config, &mut rng);
        assert!((0.0..=1.0).contains(&out.final_lambda));
        assert!(out.total_ticks >= 60);
    }

    #[test]
    fn slpos_experiment_poor_miner_declines() {
        let config = ExperimentConfig::two_miner(ProtocolKind::SlPos, 0.2, 0.01, 500);
        let mut rng = Xoshiro256StarStar::new(3);
        let out = run_experiment(&config, &mut rng);
        // Strong expectation: λ_A well below fair share 0.2 (usually ~0).
        assert!(
            out.final_lambda < 0.2,
            "SL-PoS poor miner fraction {}",
            out.final_lambda
        );
    }

    #[test]
    fn fslpos_experiment_runs() {
        let config = ExperimentConfig::two_miner(ProtocolKind::FslPos, 0.2, 0.01, 200);
        let mut rng = Xoshiro256StarStar::new(4);
        let out = run_experiment(&config, &mut rng);
        assert!((0.0..=1.0).contains(&out.final_lambda));
    }

    #[test]
    fn cpos_experiment_runs() {
        let config = ExperimentConfig::two_miner(ProtocolKind::CPos, 0.2, 0.01, 50);
        let mut rng = Xoshiro256StarStar::new(5);
        let out = run_experiment(&config, &mut rng);
        assert_eq!(out.lambda_series.len(), config.checkpoints.len());
        // C-PoS concentrates fast; final λ should be near 0.2 already.
        assert!(
            (out.final_lambda - 0.2).abs() < 0.08,
            "{}",
            out.final_lambda
        );
    }

    #[test]
    fn max_supply_is_the_exact_issuance_bound() {
        let pow = ExperimentConfig::two_miner(ProtocolKind::Pow, 0.2, 0.01, 50);
        assert_eq!(
            pow.max_supply(),
            Some(1_000_000 + 8 * 1_000_000 + 50 * 10_000)
        );
        let cpos = ExperimentConfig::two_miner(ProtocolKind::CPos, 0.2, 0.01, 50);
        assert_eq!(cpos.max_supply(), Some(1_000_000 + 50 * (10_000 + 100_000)));
        // w = 1e12 and 1e13 put 1e18 and 1e19 atoms in each block reward:
        // 50 blocks overflow u64.
        for w in [1e12, 1e13] {
            let config = ExperimentConfig::two_miner(ProtocolKind::Pow, 0.2, w, 50);
            assert_eq!(config.max_supply(), None, "w = {w}");
        }
        // The bound is exact: the largest horizon that fits is accepted.
        let mut edge = ExperimentConfig::two_miner(ProtocolKind::Pow, 0.2, 1e12, 1);
        edge.horizon = (u64::MAX - 9_000_000) / edge.block_reward;
        assert!(edge.max_supply().is_some());
        edge.horizon += 1;
        assert_eq!(edge.max_supply(), None);
    }

    #[test]
    fn a_run_at_the_supply_bound_completes() {
        // A network whose issuance ends exactly at the bound's edge runs
        // to its horizon without a ledger overflow.
        let mut config = ExperimentConfig::two_miner(ProtocolKind::Pow, 0.2, 0.01, 20);
        config.block_reward = (u64::MAX - 9_000_000) / 20;
        assert!(config.max_supply().is_some());
        let mut rng = Xoshiro256StarStar::new(8);
        let outcome = run_experiment(&config, &mut rng);
        assert_eq!(outcome.lambda_series.len(), config.checkpoints.len());
    }

    #[test]
    fn multi_miner_conserves_circulation() {
        // Table 1's setup: A holds 0.2, four others split 0.8.
        let shares = vec![0.2, 0.2, 0.2, 0.2, 0.2];
        let config = ExperimentConfig::multi_miner(ProtocolKind::MlPos, &shares, 0.01, 80);
        assert_eq!(config.initial_stakes.len(), 5);
        assert_eq!(config.initial_stakes.iter().sum::<u64>(), 1_000_000);
        assert_eq!(config.hash_rates, vec![20, 20, 20, 20, 20]);
        let mut rng = Xoshiro256StarStar::new(6);
        let out = run_experiment(&config, &mut rng);
        assert_eq!(
            out.final_stakes.iter().sum::<u64>(),
            1_000_000 + 80 * 10_000
        );
    }

    #[test]
    fn multi_miner_matches_two_miner_stakes() {
        let two = ExperimentConfig::two_miner(ProtocolKind::SlPos, 0.2, 0.01, 100);
        let multi = ExperimentConfig::multi_miner(ProtocolKind::SlPos, &[0.2, 0.8], 0.01, 100);
        assert_eq!(two.initial_stakes, multi.initial_stakes);
        assert_eq!(two.block_reward, multi.block_reward);
        assert_eq!(two.checkpoints, multi.checkpoints);
    }

    #[test]
    fn multi_miner_uneven_shares_round_trip() {
        // 10 miners: A 0.2, nine others 0.8/9 each (not an exact binary
        // fraction — the remainder lands on the last miner).
        let mut shares = vec![0.2];
        shares.extend(std::iter::repeat_n(0.8 / 9.0, 9));
        let config = ExperimentConfig::multi_miner(ProtocolKind::Pow, &shares, 0.01, 30);
        assert_eq!(config.initial_stakes.len(), 10);
        assert_eq!(config.initial_stakes.iter().sum::<u64>(), 1_000_000);
        let mut rng = Xoshiro256StarStar::new(7);
        let out = run_experiment(&config, &mut rng);
        assert_eq!(out.final_stakes.len(), 10);
        assert!((0.0..=1.0).contains(&out.final_lambda));
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn multi_miner_rejects_bad_shares() {
        let _ = ExperimentConfig::multi_miner(ProtocolKind::Pow, &[0.2, 0.2], 0.01, 10);
    }

    #[test]
    fn experiments_are_deterministic_per_seed() {
        let config = ExperimentConfig::two_miner(ProtocolKind::MlPos, 0.3, 0.01, 50);
        let a = run_experiment(&config, &mut Xoshiro256StarStar::new(9));
        let b = run_experiment(&config, &mut Xoshiro256StarStar::new(9));
        let c = run_experiment(&config, &mut Xoshiro256StarStar::new(10));
        assert_eq!(a, b);
        assert!(a != c || a.final_stakes == c.final_stakes);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bad_checkpoints_rejected() {
        let mut config = ExperimentConfig::two_miner(ProtocolKind::MlPos, 0.2, 0.01, 100);
        config.checkpoints = vec![50, 50];
        let mut rng = Xoshiro256StarStar::new(1);
        let _ = run_experiment(&config, &mut rng);
    }
}

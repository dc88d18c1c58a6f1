//! Golden digests pinning the hash-level fork network.
//!
//! Every [`ForkNetSim`] run below is reduced to one digest over the
//! winner of each block race, the settled and orphaned counts before the
//! run is finalized, and then, after `finalize`, every settled block's
//! header hash, each miner's wins and stake, the orphan count and the
//! clock. Selfish mining at γ ∈ {0, 0.5, 1} and the MDP-optimal policy
//! run on PoW, over run lengths that end with the attacker ahead, behind,
//! in a published tie race, or with no fork open. Stake grinding runs on
//! SL-PoS with a nonzero reward, so grinding compounds into stake. A
//! digest moves when the fork rules settle or orphan a different block,
//! when a block commits to different bytes, or when the RNG stream is
//! consumed differently. Regenerate ONLY for a deliberate change of the
//! simulation's semantics.

use chain_sim::{
    target_for_expected_interval, Engine, ForkNetConfig, ForkNetSim, PowEngine, SlPosEngine,
};
use fairness_core::adversary::{SelfishMining, StakeGrinding, Strategy};
use fairness_core::mdp::OptimalWithholding;
use fairness_stats::cache::StableHasher;
use fairness_stats::rng::Xoshiro256StarStar;

/// Block races per selfish-mining run, one run per entry.
const SELFISH_BLOCKS: [u64; 4] = [397, 398, 399, 400];
/// Block races per stake-grinding run.
const GRIND_BLOCKS: u64 = 300;

fn digest<S: Strategy>(config: ForkNetConfig, strategy: S, blocks: u64, seed: u64) -> u64 {
    let miners = config.initial_stakes.len().max(config.hash_rates.len());
    let mut sim = ForkNetSim::new(config, strategy);
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut h = StableHasher::new();
    for _ in 0..blocks {
        h.write_u64(sim.step_block(&mut rng) as u64);
    }
    h.write_u64(sim.settled_height());
    h.write_u64(sim.orphaned());
    sim.finalize();
    for block in sim.settled_chain() {
        h.write_bytes(&block.hash().0);
    }
    for i in 0..miners {
        h.write_u64(sim.wins(i));
        h.write_u64(sim.stake(i));
    }
    h.write_u64(sim.orphaned());
    h.write_u64(sim.clock());
    h.finish()
}

/// A 40 % miner withholding against two honest miners on PoW.
fn withholding_digests<S: Strategy + Clone>(strategy: S) -> Vec<u64> {
    SELFISH_BLOCKS
        .iter()
        .enumerate()
        .map(|(i, &blocks)| {
            let config = ForkNetConfig {
                engine: Engine::Pow(PowEngine::new(target_for_expected_interval(10, 8))),
                initial_stakes: vec![0; 3],
                hash_rates: vec![4, 3, 3],
                block_reward: 100,
                genesis_salt: 0,
            };
            digest(config, strategy.clone(), blocks, 0x5EED_0500 + i as u64)
        })
        .collect()
}

/// Stake grinding by a 20 % staker on SL-PoS with a compounding reward.
fn grinding_digest(tries: u32) -> u64 {
    let config = ForkNetConfig {
        engine: Engine::SlPos(SlPosEngine::new(1_000_000)),
        initial_stakes: vec![200_000, 300_000, 500_000],
        hash_rates: vec![0; 3],
        block_reward: 5_000,
        genesis_salt: u64::from(tries),
    };
    digest(
        config,
        StakeGrinding::new(tries),
        GRIND_BLOCKS,
        0x5EED_0600 + u64::from(tries),
    )
}

/// (γ, one digest per entry of `SELFISH_BLOCKS`).
const SELFISH_GOLDEN: &[(f64, [u64; 4])] = &[
    (
        0.0,
        [
            0x5fab_4a5c_bf67_d4da,
            0x67b1_f4e2_83e0_babb,
            0x1296_eed2_e292_fd0f,
            0xcf40_002c_9689_ef1d,
        ],
    ),
    (
        0.5,
        [
            0x48c1_2ea2_6f22_cd08,
            0x93e5_1a97_69d4_46f2,
            0xc1b9_2643_b385_f9b4,
            0xf507_4554_9857_34b8,
        ],
    ),
    (
        1.0,
        [
            0x7a2f_5ffc_2bf5_9575,
            0xce16_600b_d2f2_6df7,
            0xed70_8d44_da36_5cff,
            0x1230_7381_0f4b_ac18,
        ],
    ),
];

/// One digest per entry of `SELFISH_BLOCKS` for the MDP-optimal policy
/// at α = 0.4, γ = 0.5, depth 16.
const OWD_GOLDEN: [u64; 4] = [
    0x853c_0cf2_9621_8125,
    0x46cc_05a2_0d14_6900,
    0x045d_5715_9bda_1b9d,
    0xd419_eaf4_e8b4_6cd9,
];

/// (tries, digest).
const GRIND_GOLDEN: &[(u32, u64)] = &[
    (1, 0x5777_b1ed_fa16_deae),
    (2, 0x6aa1_2f14_57c9_c8e9),
    (8, 0x4bc0_3984_dd6e_ef93),
];

#[test]
fn selfish_mining_fork_networks_match_goldens() {
    let diverged: Vec<String> = SELFISH_GOLDEN
        .iter()
        .filter_map(|&(gamma, expected)| {
            let got = withholding_digests(SelfishMining::new(gamma));
            (got != expected).then(|| format!("γ={gamma}: {got:#018x?} != {expected:#018x?}"))
        })
        .collect();
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

#[test]
fn optimal_withholding_fork_networks_match_goldens() {
    let got = withholding_digests(OptimalWithholding::new(0.4, 0.5, 16));
    assert_eq!(got, OWD_GOLDEN, "{got:#018x?}");
}

#[test]
fn stake_grinding_fork_networks_match_goldens() {
    let diverged: Vec<String> = GRIND_GOLDEN
        .iter()
        .filter_map(|&(tries, expected)| {
            let got = grinding_digest(tries);
            (got != expected).then(|| format!("tries={tries}: {got:#018x} != {expected:#018x}"))
        })
        .collect();
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

//! Golden digests pinning the bytes of the hash-level network.
//!
//! Every [`NetworkSim`] run below is reduced to one digest over each
//! block's header hash and Merkle root, plus the final supply, clock and
//! per-miner wins. The digests were recorded before the mempool became a
//! lazy FIFO and the chain began caching its tip hash; both changes are
//! bookkeeping and reproduce them. The rows at 1, 3 and 6 transactions per
//! block (Merkle trees of 2, 4 and 7 leaves) were recorded before block
//! bodies were hashed two messages at a time. A change that moves a digest
//! changed which transactions a block includes, what a header commits to,
//! or how the RNG stream is consumed. Regenerate ONLY for a deliberate
//! change of the simulation's semantics.

use chain_sim::{
    run_experiment, target_for_expected_interval, Engine, ExperimentConfig, FslPosEngine,
    MlPosEngine, NetworkConfig, NetworkSim, PowEngine, ProtocolKind, SlPosEngine,
};
use fairness_stats::cache::StableHasher;
use fairness_stats::rng::Xoshiro256StarStar;

/// Blocks mined per pinned run.
const BLOCKS: u64 = 400;

/// Figure 2's two-miner setup: miner A holds 200k of 1M stake atoms and
/// 4 of 20 hash-rate units, with a 10k-atom reward (`w = 0.01`).
const STAKES: [u64; 2] = [200_000, 800_000];
const HASH_RATES: [u64; 2] = [4, 16];
const REWARD: u64 = 10_000;

/// The engines `run_experiment` builds for the block-lottery protocols.
fn engine(kind: ProtocolKind) -> Engine {
    match kind {
        ProtocolKind::Pow => Engine::Pow(PowEngine::new(target_for_expected_interval(20, 4))),
        ProtocolKind::MlPos => Engine::MlPos(MlPosEngine::for_expected_interval(1_000_000, 64)),
        ProtocolKind::SlPos => Engine::SlPos(SlPosEngine::new(1_000)),
        ProtocolKind::FslPos => Engine::FslPos(FslPosEngine::new(1_000.0)),
        ProtocolKind::CPos => unreachable!("C-PoS has no block lottery"),
    }
}

fn digest_network(kind: ProtocolKind, txs_per_block: usize, seed: u64) -> u64 {
    let config = NetworkConfig {
        engine: engine(kind),
        initial_stakes: STAKES.to_vec(),
        hash_rates: HASH_RATES.to_vec(),
        block_reward: REWARD,
        txs_per_block,
        propagation_delay: 1,
        pow_retarget: None,
    };
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut net = NetworkSim::new(config, &mut rng);
    net.run_blocks(BLOCKS, &mut rng);
    let mut h = StableHasher::new();
    for block in net.chain().iter() {
        h.write_bytes(&block.hash().0);
        h.write_bytes(&block.header.merkle_root.0);
    }
    h.write_u64(net.ledger().total_supply());
    h.write_u64(net.clock());
    for i in 0..STAKES.len() {
        h.write_u64(net.wins(i));
    }
    h.finish()
}

/// (engine, synthetic transactions per block, seed, digest).
const GOLDEN: &[(ProtocolKind, usize, u64, u64)] = &[
    (ProtocolKind::Pow, 0, 0x5EED_0100, 0x6d2e1870c6bb7640),
    (ProtocolKind::Pow, 2, 0x5EED_0102, 0x70604b1329b5b720),
    (ProtocolKind::Pow, 4, 0x5EED_0104, 0xb7f120d9c12366af),
    (ProtocolKind::MlPos, 0, 0x5EED_0200, 0xad394921200e1315),
    (ProtocolKind::MlPos, 2, 0x5EED_0202, 0x75f0e64c788eaf9e),
    (ProtocolKind::MlPos, 4, 0x5EED_0204, 0xad6d5e69a54ae1a9),
    (ProtocolKind::SlPos, 0, 0x5EED_0300, 0x85fc20148dc0c52d),
    (ProtocolKind::SlPos, 2, 0x5EED_0302, 0xa1c8d99dc49395d6),
    (ProtocolKind::SlPos, 4, 0x5EED_0304, 0xb9c375faaaf5551a),
    (ProtocolKind::FslPos, 0, 0x5EED_0400, 0x62dfae4130d55f8c),
    (ProtocolKind::FslPos, 2, 0x5EED_0402, 0xb4bf7b77c2e546d9),
    (ProtocolKind::FslPos, 4, 0x5EED_0404, 0x5d0203ba7aac4eca),
    // Even leaf counts (the coinbase plus 1 or 3 transfers) and a
    // seven-leaf tree whose levels pair an odd node with itself twice.
    (ProtocolKind::Pow, 1, 0x5EED_0101, 0xbe8e7e375886bec7),
    (ProtocolKind::Pow, 3, 0x5EED_0103, 0x162214e04cd58771),
    (ProtocolKind::Pow, 6, 0x5EED_0106, 0xac2b64d3b068ce6e),
    (ProtocolKind::MlPos, 1, 0x5EED_0201, 0xa3ad1062946da864),
    (ProtocolKind::MlPos, 3, 0x5EED_0203, 0x7461c09b31b10e5b),
    (ProtocolKind::MlPos, 6, 0x5EED_0206, 0x707b1a7420e3fd31),
    (ProtocolKind::SlPos, 1, 0x5EED_0301, 0xbee51f3b3dca8073),
    (ProtocolKind::SlPos, 3, 0x5EED_0303, 0x5608e76376cfdfab),
    (ProtocolKind::SlPos, 6, 0x5EED_0306, 0xebf3c8605fe64c7c),
];

#[test]
fn network_chains_match_goldens() {
    let diverged: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(kind, txs, seed, expected)| {
            let got = digest_network(kind, txs, seed);
            (got != expected).then(|| {
                format!(
                    "{} at txs_per_block={txs}: 0x{got:016x} != 0x{expected:016x}",
                    kind.name()
                )
            })
        })
        .collect();
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

/// Miner A's wins at each of `run_experiment`'s checkpoints for Figure 2's
/// three hash-level networks (`a = 0.2`, `w = 0.01`, 1500 blocks), one
/// repetition each, seeded with Figure 2's salts.
const FIG2_WINS: &[(ProtocolKind, u64, &[u64])] = &[
    (ProtocolKind::Pow, 0x31, &[3, 10, 16, 25, 48, 101, 196, 315]),
    (ProtocolKind::MlPos, 0x32, &[3, 4, 15, 27, 46, 92, 188, 318]),
    (ProtocolKind::SlPos, 0x33, &[1, 2, 4, 7, 10, 23, 35, 43]),
];

#[test]
fn fig2_lambda_series_match_goldens() {
    let diverged: Vec<String> = FIG2_WINS
        .iter()
        .filter_map(|&(kind, seed, expected)| {
            let config = ExperimentConfig::two_miner(kind, 0.2, 0.01, 1500);
            let mut rng = Xoshiro256StarStar::new(seed);
            let series = run_experiment(&config, &mut rng).lambda_series;
            let wins: Vec<u64> = config
                .checkpoints
                .iter()
                .zip(&series)
                .map(|(&n, &l)| (l * n as f64).round() as u64)
                .collect();
            // λ is exactly wins / n, so the win counts pin every bit.
            let exact = config
                .checkpoints
                .iter()
                .zip(&wins)
                .zip(&series)
                .all(|((&n, &w), &l)| l.to_bits() == (w as f64 / n as f64).to_bits());
            (wins != expected || !exact)
                .then(|| format!("{}: wins {wins:?} != {expected:?}", kind.name()))
        })
        .collect();
    assert!(diverged.is_empty(), "diverged:\n{}", diverged.join("\n"));
}

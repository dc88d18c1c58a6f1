//! Golden digests pinning adversarial ensembles.
//!
//! `repro adversarial`, `repro optimal` and the daemon's adversarial
//! scenarios all run registry-built `adversary(inner, strategy)`
//! adapters through `run_ensemble`. Each digest below reduces every band
//! point (checkpoint, mean, 5th and 95th percentile, unfair probability,
//! bit for bit) and the repetition count of one ensemble per adapter, so
//! any change to the fork machine's event order, to which RNG draws the
//! adapter makes, or to how its inner protocol samples moves a digest.
//! `adversary(ml-pos, honest)` pins that a compounding inner protocol
//! still samples the stakes current at every step. The three-miner, NEO
//! and nested-adapter ensembles pin the paths a game may settle a whole
//! checkpoint segment through, and the 40-checkpoint optimal-withholding
//! ensemble cuts its segments inside withholding bursts. Regenerate ONLY
//! for a deliberate change of the simulation's semantics.

use fairness_core::game::MiningGame;
use fairness_core::miner::two_miner;
use fairness_core::montecarlo::{run_ensemble, EnsembleConfig, EnsembleSummary};
use fairness_core::prelude::*;
use fairness_core::registry;
use fairness_core::trajectory::linear_checkpoints;
use fairness_stats::cache::StableHasher;
use fairness_stats::rng::Xoshiro256StarStar;

const SEED: u64 = 20_210_620;
const HORIZON: u64 = 4_000;
const REPETITIONS: usize = 24;

fn absorb(h: &mut StableHasher, summary: &EnsembleSummary) {
    h.write_u64(summary.repetitions as u64);
    h.write_u64(summary.points.len() as u64);
    for p in &summary.points {
        h.write_u64(p.n);
        h.write_f64(p.mean);
        h.write_f64(p.p05);
        h.write_f64(p.p95);
        h.write_f64(p.unfair_probability);
    }
}

fn adversary(inner: ProtocolSpec, strategy: ProtocolSpec) -> ProtocolSpec {
    ProtocolSpec::new("adversary")
        .with("inner", inner)
        .with("strategy", strategy)
}

/// The digest of one registry-built `adversary(inner, strategy)` ensemble
/// with miner 0 holding `alpha`.
fn digest(inner: ProtocolSpec, strategy: ProtocolSpec, alpha: f64) -> u64 {
    ensemble_digest(
        &adversary(inner, strategy),
        two_miner(alpha),
        linear_checkpoints(HORIZON, 5),
    )
}

/// The digest of one registry-built ensemble of `spec` over `shares`.
fn ensemble_digest(spec: &ProtocolSpec, shares: Vec<f64>, checkpoints: Vec<u64>) -> u64 {
    let protocol = registry::construct(spec, &shares).expect("adapter constructs");
    let config = EnsembleConfig {
        initial_shares: shares,
        checkpoints,
        repetitions: REPETITIONS,
        seed: SEED,
        eps_delta: EpsilonDelta::default(),
        withholding: None,
    };
    let mut h = StableHasher::new();
    absorb(&mut h, &run_ensemble(&protocol, &config));
    h.finish()
}

fn pow() -> ProtocolSpec {
    ProtocolSpec::new("pow").with("w", 0.01)
}

#[test]
fn selfish_mining_ensembles_match_golden_digests() {
    let got: Vec<u64> = [0.0, 0.5, 1.0]
        .into_iter()
        .map(|gamma| {
            digest(
                pow(),
                ProtocolSpec::new("selfish-mining").with("gamma", gamma),
                0.3,
            )
        })
        .collect();
    assert_eq!(
        got,
        [
            0x2719_acca_65e0_e3d3,
            0x3c2f_a936_4a9e_deb4,
            0xd2df_e53c_be57_f09f
        ],
        "selfish-mining digests {got:#018x?}"
    );
}

#[test]
fn stake_grinding_ensembles_match_golden_digests() {
    let got: Vec<u64> = [1.0, 4.0]
        .into_iter()
        .map(|tries| {
            digest(
                ProtocolSpec::new("sl-pos").with("w", 0.01),
                ProtocolSpec::new("stake-grinding").with("tries", tries),
                0.2,
            )
        })
        .collect();
    assert_eq!(
        got,
        [0xc8d2_5e50_e4e1_4e52, 0xaae2_1b8e_46d2_c0bf],
        "stake-grinding digests {got:#018x?}"
    );
}

#[test]
fn optimal_withholding_ensemble_matches_golden_digest() {
    let got = digest(
        pow(),
        ProtocolSpec::new("optimal-withholding")
            .with("alpha", 0.3)
            .with("gamma", 0.5)
            .with("depth", 16.0),
        0.3,
    );
    assert_eq!(
        got, 0x575f_92d9_a7d8_b7d7,
        "optimal-withholding digest {got:#018x}"
    );
}

#[test]
fn compounding_inner_ensemble_matches_golden_digest() {
    let got = digest(
        ProtocolSpec::new("ml-pos").with("w", 0.01),
        ProtocolSpec::new("honest"),
        0.3,
    );
    assert_eq!(
        got, 0x6509_5d94_cfe8_b49d,
        "adversary(ml-pos, honest) digest {got:#018x}"
    );
}

fn selfish_half() -> ProtocolSpec {
    ProtocolSpec::new("selfish-mining").with("gamma", 0.5)
}

/// The digest of `REPETITIONS` games of `spec` over `shares`, game `k`
/// seeded `SEED + k`: every miner's λ at every checkpoint, so that which
/// honest miner each settled block pays is pinned too.
fn all_miner_digest(spec: &ProtocolSpec, shares: &[f64], checkpoints: &[u64]) -> u64 {
    let protocol = registry::construct(spec, shares).expect("adapter constructs");
    let mut h = StableHasher::new();
    for k in 0..REPETITIONS as u64 {
        let mut game = MiningGame::new(protocol.clone(), shares);
        let mut rng = Xoshiro256StarStar::new(SEED + k);
        for trajectory in game.run_with_checkpoints_all(checkpoints, &mut rng) {
            for value in trajectory.values {
                h.write_f64(value);
            }
        }
    }
    h.finish()
}

#[test]
fn three_miner_selfish_mining_ensemble_matches_golden_digest() {
    let spec = adversary(pow(), selfish_half());
    let shares = [0.3, 0.45, 0.25];
    let checkpoints = linear_checkpoints(HORIZON, 5);
    let got = [
        ensemble_digest(&spec, shares.to_vec(), checkpoints.clone()),
        all_miner_digest(&spec, &shares, &checkpoints),
    ];
    assert_eq!(
        got,
        [0x3c2f_a936_4a9e_deb4, 0x7885_6c44_ffa4_dc1f],
        "three-miner selfish-mining digests {got:#018x?}"
    );
}

#[test]
fn neo_selfish_mining_ensemble_matches_golden_digest() {
    let got = digest(
        ProtocolSpec::new("neo").with("w", 0.01),
        selfish_half(),
        0.35,
    );
    assert_eq!(
        got, 0x5862_d47e_f69f_1205,
        "adversary(neo, selfish-mining) digest {got:#018x}"
    );
}

#[test]
fn nested_adapter_ensemble_matches_golden_digest() {
    let got = digest(
        adversary(pow(), ProtocolSpec::new("honest")),
        selfish_half(),
        0.4,
    );
    assert_eq!(
        got, 0xb397_aae3_7c6a_9f8a,
        "nested adapter digest {got:#018x}"
    );
}

#[test]
fn optimal_withholding_segments_inside_bursts_match_golden_digest() {
    let got = ensemble_digest(
        &adversary(
            pow(),
            ProtocolSpec::new("optimal-withholding")
                .with("alpha", 0.4)
                .with("gamma", 0.5)
                .with("depth", 16.0),
        ),
        two_miner(0.4),
        linear_checkpoints(HORIZON, 40),
    );
    assert_eq!(
        got, 0xd4b5_4717_6e29_6185,
        "optimal-withholding on linear(4000, 40) digest {got:#018x}"
    );
}

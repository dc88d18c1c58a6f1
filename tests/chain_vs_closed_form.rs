//! Integration tests: the hash-level chain-sim engines against the
//! closed-form games of fairness-core — the mechanisms of Section 2 must
//! produce the same statistics as the analysis model they justify.

use blockchain_fairness::chain::{
    run_experiment, CPosEngine, CPosSim, ExperimentConfig, ProtocolKind,
};
use blockchain_fairness::prelude::*;
use blockchain_fairness::stats::mc::{run_monte_carlo, McConfig};

/// Runs `reps` hash-level experiments and returns the final λ_A values.
fn system_lambdas(kind: ProtocolKind, a: f64, horizon: u64, reps: usize, seed: u64) -> Vec<f64> {
    let config = ExperimentConfig::two_miner(kind, a, 0.01, horizon);
    run_monte_carlo(McConfig::new(reps, seed), |_i, rng| {
        run_experiment(&config, rng).final_lambda
    })
}

#[test]
fn pow_chain_matches_hash_power_share() {
    let lambdas = system_lambdas(ProtocolKind::Pow, 0.2, 600, 60, 1);
    let mean: f64 = lambdas.iter().sum::<f64>() / lambdas.len() as f64;
    // SE ≈ sqrt(0.2·0.8/600)/√60 ≈ 0.0021.
    assert!((mean - 0.2).abs() < 0.012, "PoW chain mean {mean}");
}

#[test]
fn mlpos_chain_is_expectationally_fair() {
    let lambdas = system_lambdas(ProtocolKind::MlPos, 0.2, 800, 80, 2);
    let mean: f64 = lambdas.iter().sum::<f64>() / lambdas.len() as f64;
    // Per-game λ sd ≈ 0.03 at n=800 (Pólya), SE ≈ 0.004.
    assert!((mean - 0.2).abs() < 0.02, "ML-PoS chain mean {mean}");
}

#[test]
fn slpos_chain_underpays_poor_miner_like_closed_form() {
    // Hash-level SL-PoS and the closed-form game should show the same
    // decay of λ_A.
    let horizon = 800;
    let system = system_lambdas(ProtocolKind::SlPos, 0.2, horizon, 80, 3);
    let sys_mean: f64 = system.iter().sum::<f64>() / system.len() as f64;

    let config = EnsembleConfig {
        checkpoints: vec![horizon],
        ..EnsembleConfig::paper_default(0.2, horizon, 2000, 3)
    };
    let closed = run_ensemble(&SlPos::new(0.01), &config).final_point().mean;

    assert!(
        (sys_mean - closed).abs() < 0.03,
        "system {sys_mean} vs closed-form {closed}"
    );
    assert!(sys_mean < 0.13, "poor miner must be under-paid: {sys_mean}");
}

#[test]
fn fslpos_chain_restores_proportionality() {
    let lambdas = system_lambdas(ProtocolKind::FslPos, 0.2, 800, 80, 4);
    let mean: f64 = lambdas.iter().sum::<f64>() / lambdas.len() as f64;
    assert!((mean - 0.2).abs() < 0.02, "FSL-PoS chain mean {mean}");
}

#[test]
fn cpos_chain_tracks_closed_form_band() {
    let lambdas = system_lambdas(ProtocolKind::CPos, 0.2, 150, 60, 5);
    let mean: f64 = lambdas.iter().sum::<f64>() / lambdas.len() as f64;
    assert!((mean - 0.2).abs() < 0.01, "C-PoS chain mean {mean}");
}

#[test]
fn chain_supply_matches_game_accounting() {
    // The integer ledger and the normalized closed-form game agree on
    // total issuance: 1 + n·w (in atoms: initial + n·reward).
    let config = ExperimentConfig::two_miner(ProtocolKind::MlPos, 0.2, 0.01, 120);
    let mut rng = blockchain_fairness::stats::rng::Xoshiro256StarStar::new(6);
    let out = run_experiment(&config, &mut rng);
    let total: u64 = out.final_stakes.iter().sum();
    assert_eq!(total, 1_000_000 + 120 * 10_000);
}

#[test]
fn cpos_epoch_sim_exact_issuance() {
    let engine = CPosEngine::new(32, 1_000, 10_000);
    let mut sim = CPosSim::new(engine, &[200_000, 800_000], 384);
    sim.run_epochs(100);
    assert_eq!(sim.ledger().total_supply(), 1_000_000 + 100 * 11_000);
    let f = sim.reward_fraction(0) + sim.reward_fraction(1);
    assert!((f - 1.0).abs() < 1e-9);
}

#[test]
fn experiments_reproducible_across_thread_counts() {
    // The Monte-Carlo runner guarantees per-repetition seeds; chain-level
    // experiments must therefore be identical under different parallelism.
    let config = ExperimentConfig::two_miner(ProtocolKind::SlPos, 0.2, 0.01, 60);
    let run = |threads: usize| {
        run_monte_carlo(McConfig::new(12, 99).with_threads(threads), |_i, rng| {
            run_experiment(&config, rng).final_lambda
        })
    };
    assert_eq!(run(1), run(4));
}

//! Golden digests pinning bare SL-PoS ensembles.
//!
//! Table 1's SL-PoS grid cells run `run_ensemble` over the log-spaced
//! checkpoints to 10⁵ blocks, and its monopolization bisection runs
//! `run_ensemble_settled` probes to 5·10⁴ blocks; Figure 4, `scale` and
//! the daemon's SL-PoS scenarios step the same game. Each digest below
//! reduces every band point (checkpoint, mean, 5th and 95th percentile,
//! unfair probability, bit for bit) and the repetition count of one
//! ensemble per miner count m ∈ {2, 3, 5, 10, 40} and repetition count
//! ∈ {10, 24}, so any change to how the game is stepped, which stream a
//! repetition draws from, or where a settled probe stops moves a digest.
//! m = 4 has a digest of its own, recorded after the others: a grid cell
//! and a settled probe, the lane kernel's four-miner columns.
//! Regenerate ONLY for a deliberate change of the simulation's semantics.

use fairness_core::miner::paper_multi_miner;
use fairness_core::montecarlo::{
    run_ensemble, run_ensemble_settled, EnsembleConfig, EnsembleSummary,
};
use fairness_core::prelude::*;
use fairness_core::trajectory::log_checkpoints;
use fairness_stats::cache::StableHasher;

const MINER_COUNTS: [usize; 5] = [2, 3, 5, 10, 40];
const REPETITIONS: [usize; 2] = [10, 24];
const SEED: u64 = 20_210_620;

fn config(shares: Vec<f64>, checkpoints: Vec<u64>, repetitions: usize) -> EnsembleConfig {
    EnsembleConfig {
        initial_shares: shares,
        checkpoints,
        repetitions,
        seed: SEED,
        eps_delta: EpsilonDelta::default(),
        withholding: None,
    }
}

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

#[test]
fn grid_cell_ensembles_match_golden_digest() {
    // Table 1's SL-PoS cell: A holds 0.2, the rest split 0.8 equally.
    let mut h = StableHasher::new();
    for m in MINER_COUNTS {
        for reps in REPETITIONS {
            let cfg = config(paper_multi_miner(m, 0.2), log_checkpoints(100_000, 4), reps);
            h.write_u64(m as u64);
            absorb(&mut h, &run_ensemble(&SlPos::new(0.01), &cfg));
        }
    }
    let got = h.finish();
    assert_eq!(got, 0x2ddf_3370_6115_5b67, "grid-cell digest {got:#018x}");
}

#[test]
fn settled_probe_ensembles_match_golden_digest() {
    // The bisection's first two probe shares, against m − 1 equal
    // opponents, at its 5·10⁴-block horizon.
    let mut h = StableHasher::new();
    for m in MINER_COUNTS {
        for a in [0.5, 0.25] {
            let mut shares = vec![a];
            shares.extend(std::iter::repeat_n((1.0 - a) / (m as f64 - 1.0), m - 1));
            for reps in REPETITIONS {
                let cfg = config(shares.clone(), vec![50_000], reps);
                let summary = run_ensemble_settled(&SlPos::new(0.01), &cfg);
                assert!(summary.repetitions >= 1 && summary.repetitions <= reps);
                h.write_u64(m as u64);
                h.write_f64(a);
                absorb(&mut h, &summary);
            }
        }
    }
    let got = h.finish();
    assert_eq!(
        got, 0xc839_672a_6502_ab92,
        "settled-probe digest {got:#018x}"
    );
}

#[test]
fn four_miner_ensembles_match_golden_digest() {
    // Table 1's m = 4 cell over its checkpoints, and the bisection's
    // first probe share against three equal opponents.
    let mut h = StableHasher::new();
    for reps in REPETITIONS {
        let cfg = config(paper_multi_miner(4, 0.2), log_checkpoints(100_000, 4), reps);
        absorb(&mut h, &run_ensemble(&SlPos::new(0.01), &cfg));
        let probe = config(
            vec![0.5, 0.5 / 3.0, 0.5 / 3.0, 0.5 / 3.0],
            vec![50_000],
            reps,
        );
        let summary = run_ensemble_settled(&SlPos::new(0.01), &probe);
        assert!(summary.repetitions >= 1 && summary.repetitions <= reps);
        absorb(&mut h, &summary);
    }
    let got = h.finish();
    assert_eq!(got, 0x15d8_242a_7a9a_b957, "four-miner digest {got:#018x}");
}

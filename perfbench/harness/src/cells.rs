//! Closed-form ensemble cells, split into spans for the traced run.
//!
//! Outside the trace an experiment computes each ensemble inside
//! `SweepCache::ensemble`, where the harness cannot see the parts. The
//! traced run computes the same ensemble through the public pieces the
//! cache uses — `registry::construct`, `stats::mc::run_monte_carlo` over
//! `MiningGame::run_with_checkpoints`, and `montecarlo::summarize` — with
//! the seed `EnsembleKey::seed` derives, then leaves the summary in the
//! cache's disk spill under `EnsembleKey::disk_digest`. The real path
//! (`runner::run_scenarios`) then loads it instead of recomputing. The
//! traced run's CSV digests must equal the untraced run's, so any drift
//! between this split and the cache's own computation shows up as failed
//! ops.

use crate::ops::median;
use crate::trace::Tracer;
use fairness_bench::experiments::cache::EnsembleKey;
use fairness_bench::experiments::SweepCache;
use fairness_bench::runner::run_scenarios;
use fairness_bench::service::SweepService;
use fairness_core::fairness::EpsilonDelta;
use fairness_core::game::MiningGame;
use fairness_core::montecarlo::{summarize, EnsembleConfig};
use fairness_core::protocol::IncentiveProtocol;
use fairness_core::registry;
use fairness_core::scenario::ScenarioSpec;
use fairness_core::withholding::WithholdingSchedule;
use fairness_stats::mc::{run_monte_carlo, McConfig};
use std::path::Path;
use std::time::Instant;

/// Simulated steps and stepping time of one traced cell.
pub struct CellCost {
    pub label: String,
    pub steps: u64,
    pub game_s: f64,
}

/// Runs `spec` as a traced cell on `svc` (see the module docs).
///
/// # Errors
/// A registry or runner failure, as text.
pub fn traced_cell(
    tr: &Tracer,
    svc: &SweepService,
    spec: &ScenarioSpec,
    label: &str,
) -> Result<CellCost, String> {
    let opts = svc.opts();
    let shares = spec.initial_shares();
    let checkpoints = spec.checkpoints.resolve();
    let reps = spec.repetitions.unwrap_or(opts.repetitions);
    let withholding = spec.withholding.map(WithholdingSchedule::every);
    let protocol = tr
        .span("registry", label, || {
            registry::construct(&spec.protocol, &shares)
        })
        .map_err(|e| format!("{label}: {e}"))?;
    let eps_delta = EpsilonDelta::default();
    let key = EnsembleKey::new(
        &protocol,
        &shares,
        &checkpoints,
        reps,
        eps_delta,
        withholding,
    );
    let seed = key.seed(opts.seed);
    let started = Instant::now();
    let trajectories = tr.span("game", label, || {
        run_monte_carlo(McConfig::new(reps, seed), |_i, rng| {
            let mut game = MiningGame::new(protocol.clone(), &shares);
            if let Some(schedule) = withholding {
                game = game.with_withholding(schedule);
            }
            game.run_with_checkpoints(&checkpoints, rng).values
        })
    });
    let game_s = started.elapsed().as_secs_f64();
    let config = EnsembleConfig {
        initial_shares: shares.clone(),
        checkpoints: checkpoints.clone(),
        repetitions: reps,
        seed,
        eps_delta,
        withholding,
    };
    let summary = tr.span("summarize", label, || {
        summarize(&protocol.label(), &config, &trajectories)
    });
    tr.span("spill", label, || {
        svc.cache()
            .system_summary(key.disk_digest(opts.seed), |_| false, || summary)
    });
    tr.span("runner", label, || {
        run_scenarios(&svc.session(), std::slice::from_ref(spec))
    })
    .map_err(|e| format!("{label}: {e}"))?;
    Ok(CellCost {
        label: label.to_owned(),
        steps: reps as u64 * checkpoints.last().copied().unwrap_or(0),
        game_s,
    })
}

/// Median milliseconds for `SweepCache::ensemble` to answer each spec
/// from the spill under `dir`, through a fresh cache (so the process's
/// own caches are untouched), and how many lookups the disk answered.
pub fn disk_load_ms(seed: u64, dir: &Path, specs: &[ScenarioSpec], reps: usize) -> (f64, u64) {
    let cache = SweepCache::with_disk(seed, dir.to_path_buf());
    let mut ms = Vec::new();
    for spec in specs {
        let shares = spec.initial_shares();
        let Ok(protocol) = registry::construct(&spec.protocol, &shares) else {
            continue;
        };
        let started = Instant::now();
        let _ = cache.ensemble(
            &protocol,
            &shares,
            &spec.checkpoints.resolve(),
            spec.repetitions.unwrap_or(reps),
            spec.withholding.map(WithholdingSchedule::every),
        );
        ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    (median(&ms), cache.disk_hits())
}

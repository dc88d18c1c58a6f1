//! `multiminer`: Table 1's multi-miner game on a `SweepService` session.
//!
//! One iteration runs `experiments::table1` once, cold: the grid over
//! m ∈ {2, 3, 4, 5, 10} plus the monopolization bisection, at `--jobs 1`
//! with the hash-level overlay off and the disk spill on.

use crate::cells::{disk_load_ms, traced_cell, CellCost};
use crate::ops::{csv_rows, Record};
use crate::host::Phase;
use crate::trace::Tracer;
use crate::{finish_trace, ready, Args};
use fairness_bench::experiments::common::{
    convergence_grid, A_DEFAULT, P_EFF, V_DEFAULT, W_DEFAULT,
};
use fairness_bench::experiments::{diskcache, miner_counts, table1};
use fairness_bench::service::SweepService;
use fairness_bench::ReproOptions;
use fairness_core::miner::paper_multi_miner;
use fairness_core::scenario::{ProtocolSpec, ScenarioSpec};
use std::time::Instant;

/// Monte-Carlo repetitions per grid cell and per bisection probe. Below
/// the bisection's own cap of 200 the grid and the bisection keep their
/// shares of the work, and one cold table takes about 0.6 s, so a run's
/// medians cover dozens of tables.
pub const REPETITIONS: usize = 10;
/// Miner-count cap: the paper's m ∈ {2, 3, 4, 5, 10}.
const MAX_MINERS: usize = 10;

const CSVS: [&str; 2] = ["table1_multi_miner", "monopolization_threshold_vs_n"];

/// The Table 1 grid rebuilt cell by cell, as `(label, spec)`; the labels
/// name the `game.ns_per_step.*` metrics. Must match the grid `table1`
/// builds — the traced run checks that every cell is a cache hit there.
pub fn cells(repetitions: usize) -> Vec<(String, ScenarioSpec)> {
    let mut out = Vec::new();
    for m in miner_counts(MAX_MINERS) {
        let shares = paper_multi_miner(m, A_DEFAULT);
        let cell = |key: &str, spec: ScenarioSpec| (format!("{key}_m{m}"), spec);
        out.push(cell(
            "pow",
            ScenarioSpec::builder(
                format!("table1 m={m} pow"),
                ProtocolSpec::new("pow").with("w", W_DEFAULT),
            )
            .explicit(convergence_grid(3000))
            .shares(&shares)
            .build(),
        ));
        out.push(cell(
            "mlpos",
            ScenarioSpec::builder(
                format!("table1 m={m} ml-pos"),
                ProtocolSpec::new("ml-pos").with("w", W_DEFAULT),
            )
            .explicit(convergence_grid(5000))
            .shares(&shares)
            .build(),
        ));
        out.push(cell(
            "slpos",
            ScenarioSpec::builder(
                format!("table1 m={m} sl-pos"),
                ProtocolSpec::new("sl-pos").with("w", W_DEFAULT),
            )
            .log(100_000, 4)
            .repetitions(repetitions.min(2000))
            .shares(&shares)
            .build(),
        ));
        out.push(cell(
            "cpos",
            ScenarioSpec::builder(
                format!("table1 m={m} c-pos"),
                ProtocolSpec::new("c-pos")
                    .with("w", W_DEFAULT)
                    .with("v", V_DEFAULT)
                    .with("shards", f64::from(P_EFF)),
            )
            .explicit(convergence_grid(2000))
            .shares(&shares)
            .build(),
        ));
    }
    out
}

/// Paper shapes the emitted tables must show whatever the seed: PoW,
/// ML-PoS and C-PoS keep miner A's mean λ at her 0.2 share, and every
/// monopolization threshold is a share.
fn check(name: &str, text: &str) -> Result<(), String> {
    let rows = csv_rows(text)?;
    if name == CSVS[0] {
        if rows.len() != 20 {
            return Err(format!("{} rows, expected 20", rows.len()));
        }
        for r in rows.iter().filter(|r| r[1] != 2.0) {
            if (r[2] - A_DEFAULT).abs() > 0.05 {
                return Err(format!(
                    "m={} protocol {} mean λ {} is not ≈ 0.2",
                    r[0], r[1], r[2]
                ));
            }
        }
    } else if rows.len() != 5 || rows.iter().any(|r| !(r[1] > 0.0 && r[1] < 1.0)) {
        return Err("monopolization thresholds are not 5 shares in (0, 1)".to_owned());
    }
    Ok(())
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Option<String>, String> {
    let opts = ReproOptions {
        repetitions: REPETITIONS,
        seed: args.seed,
        results_dir: args.out.join("results"),
        with_system: false,
        jobs: 1,
        max_miners: MAX_MINERS,
        disk_cache: true,
        ..ReproOptions::quick()
    };
    // As the `repro` binary does: one Monte-Carlo worker budget per process.
    fairness_stats::mc::set_global_threads(opts.jobs);
    let svc = tr.span("service", "main", || SweepService::new(opts.clone()));
    ready();
    if args.setup_only {
        return Ok(None);
    }

    let names: Vec<String> = CSVS.iter().map(|s| (*s).to_owned()).collect();
    let dir = &opts.results_dir;
    let mut rec = Record::default();
    let phase = Phase::begin(1);
    let started = phase.started;

    let mut costs: Vec<CellCost> = Vec::new();
    if tr.on() {
        for (label, spec) in cells(REPETITIONS) {
            match traced_cell(tr, &svc, &spec, &label) {
                Ok(cost) => costs.push(cost),
                Err(e) => rec.fail(format!("traced cell {e}"), Vec::new()),
            }
        }
    }
    let (hits0, misses0) = (svc.cache().hits(), svc.cache().misses());
    let t = Instant::now();
    let call = tr.span("experiment", "table1", || {
        table1(&svc.session()).map(|_| ())
    });
    rec.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let (grid_hits, probes) = (svc.cache().hits() - hits0, svc.cache().misses() - misses0);
    rec.csv_ops(dir, &names, &call, check);

    let measured = phase.end();
    let ended = measured.ended;

    if tr.on() {
        if grid_hits < costs.len() as u64 {
            rec.fail(
                format!(
                    "trace: only {grid_hits} of {} Table 1 cells were cache hits in table1",
                    costs.len()
                ),
                Vec::new(),
            );
        }
        let self_s = tr.self_seconds();
        let get = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
        rec.layer("game.steps", costs.iter().map(|c| c.steps as f64).sum());
        rec.layer("game.busy_s", get("game"));
        for cost in &costs {
            rec.layer(
                &format!("game.ns_per_step.{}", cost.label),
                cost.game_s * 1e9 / cost.steps as f64,
            );
        }
        rec.layer("summarize.busy_s", get("summarize"));
        rec.layer("bisect.probes", probes as f64);
        rec.layer("bisect.busy_s", get("experiment"));
        rec.layer("cache.hits", svc.cache().hits() as f64);
        rec.layer("cache.misses", svc.cache().misses() as f64);
        rec.layer("cache.disk_hits", svc.cache().disk_hits() as f64);
        let scan = diskcache::scan(&dir.join(".cache")).unwrap_or_default();
        rec.layer("diskcache.entries", scan.entries as f64);
        rec.layer("diskcache.bytes", scan.bytes as f64);
        let specs: Vec<ScenarioSpec> = cells(REPETITIONS).into_iter().map(|(_, s)| s).collect();
        let (load_ms, loaded) = disk_load_ms(args.seed, &dir.join(".cache"), &specs, REPETITIONS);
        if loaded != specs.len() as u64 {
            rec.fail(
                format!("trace: {loaded} of {} cells loaded from disk", specs.len()),
                Vec::new(),
            );
        }
        rec.layer("diskcache.load_ms", load_ms);
        finish_trace(&mut rec, tr, args, started, ended);
    }
    Ok(Some(rec.to_json(&measured)))
}

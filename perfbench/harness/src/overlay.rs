//! `overlay`: Figure 2 with the hash-level chain-sim overlay on.
//!
//! One iteration runs `experiments::fig2` once, cold — the four
//! closed-form panels plus the PoW / ML-PoS / SL-PoS hash-level networks —
//! at `--jobs 1` with the disk spill on, and at a tenth of `--quick`'s
//! repetitions (`REPETITIONS`, `SYSTEM_REPETITIONS`) so that one figure
//! takes about 0.7 s.

use crate::cells::{disk_load_ms, traced_cell, CellCost};
use crate::ops::{csv_rows, Record};
use crate::host::Phase;
use crate::trace::Tracer;
use crate::{finish_trace, ready, Args};
use chain_sim::{run_experiment, ExperimentConfig, HashBuilder, ProtocolKind};
use fairness_bench::experiments::common::{band_rows, A_DEFAULT, P_EFF, V_DEFAULT, W_DEFAULT};
use fairness_bench::experiments::{diskcache, fig2};
use fairness_bench::report::write_csv;
use fairness_bench::service::SweepService;
use fairness_bench::ReproOptions;
use fairness_core::fairness::EpsilonDelta;
use fairness_core::miner::two_miner;
use fairness_core::montecarlo::{summarize, EnsembleConfig};
use fairness_core::protocol::IncentiveProtocol;
use fairness_core::registry;
use fairness_core::scenario::{ProtocolSpec, ScenarioSpec};
use fairness_stats::mc::{run_monte_carlo, McConfig};
use std::hint::black_box;
use std::time::Instant;

/// Monte-Carlo repetitions of the closed-form panels (`--quick`: 1000).
const REPETITIONS: usize = 100;
/// Repetitions of each hash-level network (`--quick`: 40).
const SYSTEM_REPETITIONS: usize = 4;
/// Trials in the SHA-256 midstate calibration loop.
const SHA_TRIALS: u64 = 400_000;

const CLOSED_FORM: [&str; 4] = ["fig2_pow", "fig2_mlpos", "fig2_slpos", "fig2_cpos"];
const SYSTEM: [&str; 3] = ["fig2_system_pow", "fig2_system_mlpos", "fig2_system_slpos"];

/// Figure 2's closed-form panels, rebuilt as `(label, spec)`.
fn panels() -> Vec<(String, ScenarioSpec)> {
    let shares = two_miner(A_DEFAULT);
    let panel = |label: &str, name: &str, protocol: ProtocolSpec| {
        (
            label.to_owned(),
            ScenarioSpec::builder(format!("fig2 {name}"), protocol)
                .shares(&shares)
                .linear(5000, 25)
                .build(),
        )
    };
    vec![
        panel(
            "pow",
            "(a) PoW",
            ProtocolSpec::new("pow").with("w", W_DEFAULT),
        ),
        panel(
            "mlpos",
            "(b) ML-PoS",
            ProtocolSpec::new("ml-pos").with("w", W_DEFAULT),
        ),
        panel(
            "slpos",
            "(c) SL-PoS",
            ProtocolSpec::new("sl-pos").with("w", W_DEFAULT),
        ),
        panel(
            "cpos",
            "(d) C-PoS",
            ProtocolSpec::new("c-pos")
                .with("w", W_DEFAULT)
                .with("v", V_DEFAULT)
                .with("shards", f64::from(P_EFF)),
        ),
    ]
}

/// The hash-level networks Figure 2 runs: engine, label, seed salt.
const NETWORKS: [(ProtocolKind, &str, u64); 3] = [
    (ProtocolKind::Pow, "pow", 0x31),
    (ProtocolKind::MlPos, "mlpos", 0x32),
    (ProtocolKind::SlPos, "slpos", 0x33),
];
/// Blocks per hash-level repetition.
const SYSTEM_HORIZON: u64 = 1500;

/// PoW, ML-PoS and C-PoS keep miner A's final mean λ at her 0.2 share
/// (the paper's Figure 2 shape); every table must parse.
fn check(name: &str, text: &str) -> Result<(), String> {
    let rows = csv_rows(text)?;
    if matches!(name, "fig2_pow" | "fig2_mlpos" | "fig2_cpos") {
        let last = rows.last().expect("csv_rows rejects empty tables");
        if (last[1] - A_DEFAULT).abs() > 0.05 {
            return Err(format!("final mean λ {} is not ≈ 0.2", last[1]));
        }
    }
    Ok(())
}

/// Cost counts of one traced hash-level network.
struct Network {
    label: &'static str,
    blocks: u64,
    trial_hashes: u64,
    seconds: f64,
}

/// Runs one hash-level network the way `runner` does for a `system`
/// cross-check, split into spans, and writes its CSV.
fn traced_network(
    tr: &Tracer,
    opts: &ReproOptions,
    spec: &ScenarioSpec,
    (kind, label, salt): (ProtocolKind, &'static str, u64),
) -> Result<Network, String> {
    let shares = spec.initial_shares();
    let protocol = tr
        .span("registry", label, || {
            registry::construct(&spec.protocol, &shares)
        })
        .map_err(|e| format!("{label}: {e}"))?;
    let a = shares[0] / shares.iter().sum::<f64>();
    let config = ExperimentConfig::two_miner(kind, a, protocol.reward_per_step(), SYSTEM_HORIZON);
    let seed = opts.seed ^ salt;
    let reps = opts.system_repetitions;
    let started = Instant::now();
    let outcomes = tr.span("overlay", label, || {
        run_monte_carlo(McConfig::new(reps, seed), |_i, rng| {
            run_experiment(&config, rng)
        })
    });
    let seconds = started.elapsed().as_secs_f64();
    let rate: u64 = config.hash_rates.iter().sum();
    let trial_hashes = outcomes.iter().map(|o| o.total_ticks * rate).sum();
    let series: Vec<Vec<f64>> = outcomes.into_iter().map(|o| o.lambda_series).collect();
    let ec = EnsembleConfig {
        initial_shares: shares,
        checkpoints: config.checkpoints.clone(),
        repetitions: reps,
        seed,
        eps_delta: EpsilonDelta::default(),
        withholding: None,
    };
    let summary = tr.span("summarize", label, || summarize(kind.name(), &ec, &series));
    tr.span("report", label, || {
        write_csv(
            &opts.results_dir,
            &format!("fig2_system_{label}"),
            &["n", "mean", "p05", "p95", "unfair"],
            &band_rows(&summary),
        )
    })
    .map_err(|e| format!("{label}: {e}"))?;
    Ok(Network {
        label,
        blocks: reps as u64 * SYSTEM_HORIZON,
        trial_hashes,
        seconds,
    })
}

/// Nanoseconds per midstate trial hash: `HashBuilder::midstate` once,
/// then `finish_u64` per trial, as PoW grinding does.
fn sha_ns_per_trial(seed: u64) -> f64 {
    let midstate = HashBuilder::new("perfbench").u64(seed).midstate();
    let started = Instant::now();
    let mut acc = 0u8;
    for nonce in 0..SHA_TRIALS {
        acc ^= black_box(&midstate).finish_u64(black_box(nonce)).0[0];
    }
    black_box(acc);
    started.elapsed().as_secs_f64() * 1e9 / SHA_TRIALS as f64
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Option<String>, String> {
    // The traced run computes the hash-level networks itself (to split
    // them into spans) and writes their CSVs, so its service runs Figure
    // 2's closed-form half only.
    let opts = ReproOptions {
        seed: args.seed,
        results_dir: args.out.join("results"),
        repetitions: REPETITIONS,
        system_repetitions: SYSTEM_REPETITIONS,
        with_system: !tr.on(),
        jobs: 1,
        disk_cache: true,
        ..ReproOptions::quick()
    };
    fairness_stats::mc::set_global_threads(opts.jobs);
    let svc = tr.span("service", "main", || SweepService::new(opts.clone()));
    ready();
    if args.setup_only {
        return Ok(None);
    }

    let all: Vec<String> = CLOSED_FORM
        .iter()
        .chain(&SYSTEM)
        .map(|s| (*s).to_owned())
        .collect();
    let dir = &opts.results_dir;
    let mut rec = Record::default();
    let phase = Phase::begin(1);
    let started = phase.started;

    let mut cells: Vec<CellCost> = Vec::new();
    let mut networks: Vec<Network> = Vec::new();
    if tr.on() {
        let panels = panels();
        for (label, spec) in &panels {
            match traced_cell(tr, &svc, spec, label) {
                Ok(cost) => cells.push(cost),
                Err(e) => rec.fail(format!("traced cell {e}"), Vec::new()),
            }
        }
        for (network, (_, spec)) in NETWORKS.iter().zip(&panels) {
            match traced_network(tr, &opts, spec, *network) {
                Ok(n) => networks.push(n),
                Err(e) => rec.fail(format!("traced network {e}"), Vec::new()),
            }
        }
    }
    let call = tr.span("experiment", "fig2", || fig2(&svc.session()).map(|_| ()));
    rec.cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
    rec.csv_ops(dir, &all, &call, check);
    let measured = phase.end();
    let ended = measured.ended;

    if tr.on() {
        let self_s = tr.self_seconds();
        let get = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
        rec.layer("game.steps", cells.iter().map(|c| c.steps as f64).sum());
        rec.layer("game.busy_s", get("game"));
        rec.layer("summarize.busy_s", get("summarize"));
        rec.layer(
            "overlay.blocks",
            networks.iter().map(|n| n.blocks as f64).sum(),
        );
        rec.layer("overlay.busy_s", get("overlay"));
        for n in &networks {
            rec.layer(
                &format!("overlay.ns_per_block.{}", n.label),
                n.seconds * 1e9 / n.blocks as f64,
            );
        }
        let sha_ns = sha_ns_per_trial(args.seed);
        rec.layer("sha.ns_per_trial", sha_ns);
        if let Some(pow) = networks.iter().find(|n| n.label == "pow") {
            rec.layer("overlay.trial_hashes.pow", pow.trial_hashes as f64);
            rec.layer(
                "overlay.hash_share.pow",
                pow.trial_hashes as f64 * sha_ns / (pow.seconds * 1e9),
            );
        }
        rec.layer("cache.hits", svc.cache().hits() as f64);
        rec.layer("cache.misses", svc.cache().misses() as f64);
        rec.layer("cache.disk_hits", svc.cache().disk_hits() as f64);
        let scan = diskcache::scan(&dir.join(".cache")).unwrap_or_default();
        rec.layer("diskcache.entries", scan.entries as f64);
        rec.layer("diskcache.bytes", scan.bytes as f64);
        let specs: Vec<ScenarioSpec> = panels().into_iter().map(|(_, s)| s).collect();
        let (load_ms, loaded) =
            disk_load_ms(args.seed, &dir.join(".cache"), &specs, opts.repetitions);
        if loaded != specs.len() as u64 {
            rec.fail(
                format!("trace: {loaded} of {} panels loaded from disk", specs.len()),
                Vec::new(),
            );
        }
        rec.layer("diskcache.load_ms", load_ms);
        finish_trace(&mut rec, tr, args, started, ended);
    }
    Ok(Some(rec.to_json(&measured)))
}

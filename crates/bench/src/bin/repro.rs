//! `repro` — regenerate every figure and table of the paper, or run
//! user-authored scenario files.
//!
//! ```text
//! repro [fig1|fig2|fig3|fig4|fig5|fig6|table1|scale|ablations|extensions|
//!        adversarial|redistribution|optimal|all]
//!       [scenario FILE.scn] [list-protocols] [cache stats|verify|prune]
//!       [--quick] [--jobs N] [--reps N] [--system-reps N] [--seed N]
//!       [--max-miners N] [--no-system] [--no-disk-cache] [--out DIR]
//!       [--timings FILE]
//! ```
//!
//! Run with `cargo run --release --bin repro -- all`. Results print to
//! stdout and CSVs land under `results/` (override with `--out`).
//! `--jobs N` bounds the workers of each scheduling layer (experiments and
//! sweep points share one budget; each Monte-Carlo ensemble spawns its
//! own); output is bit-identical for every `N`.
//! Computed ensembles persist under `results/.cache/` across invocations
//! (`--no-disk-cache` opts out).

use fairness_bench::experiments::{find, registry, SweepService};
use fairness_bench::schedule::timings_json;
use fairness_bench::RunFlags;
use fairness_core::scenario::text::parse_scenarios;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: repro [fig1|fig2|fig3|fig4|fig5|fig6|table1|scale|ablations|extensions|adversarial|\n\
     \x20            redistribution|optimal|all]\n\
     \x20            [scenario FILE.scn] [list-protocols] [cache stats|verify|prune]\n\
     \x20            [--quick] [--jobs N] [--reps N] [--system-reps N] [--seed N]\n\
     \x20            [--max-miners N] [--no-system] [--no-disk-cache] [--out DIR]\n\
     \x20            [--timings FILE]\n\
     \n\
     figures/tables (Huang et al., SIGMOD 2021):\n\
     \x20 fig1       SL-PoS win probability vs current share (drift to 0/1)\n\
     \x20 fig2       evolution of lambda_A for PoW / ML-PoS / SL-PoS / C-PoS\n\
     \x20 fig3       unfair probability vs n for a in {0.1..0.4}\n\
     \x20 fig4       SL-PoS mean lambda_A: share sweep + reward sweep\n\
     \x20 fig5       unfair probability: w sweeps (ML/SL/C-PoS) + v sweep\n\
     \x20 fig6       FSL-PoS treatment, with and without reward withholding\n\
     \x20 table1     multi-miner game ({2..5} then 10,15,.. up to --max-miners)\n\
     \x20            + SL-PoS monopolization threshold vs miner count\n\
     \x20 scale      million-miner sweep (m = 10,100,..,10^6): Zipf-stake fairness\n\
     \x20            metrics + monopolization threshold via the aggregated-tail\n\
     \x20            engine (--max-miners > 10 bounds the grid instead)\n\
     \x20 ablations  shard sweep, withholding-period sweep, Section 6.4 sketches\n\
     \x20 extensions cash-out miners, mining pools, decentralization, equitability\n\
     \x20 adversarial selfish mining (alpha x gamma on PoW) + stake grinding\n\
     \x20            (SL-PoS), each sweep validated against its closed form\n\
     \x20 redistribution cluster-tax / fee-lottery / alleviation adapters vs Gini,\n\
     \x20            Nakamoto and takeover time, + Sybil-split stress of uniform vs\n\
     \x20            value-weighted lottery rebates\n\
     \x20 optimal    fork-MDP value iteration: optimal vs Eyal-Sirer policy grid,\n\
     \x20            compounding-PoS withholding attack (revenue gap vs PoW and\n\
     \x20            profitability thresholds), two-attacker equilibrium search\n\
     \x20 all        everything above\n\
     \n\
     declarative scenarios:\n\
     \x20 scenario FILE   run every scenario in FILE (see examples/selfish_sweep.scn\n\
     \x20                 and the README's \"Running your own scenarios\"); CSVs land\n\
     \x20                 as scn_<name>.csv with the same --jobs determinism as the\n\
     \x20                 built-in figures\n\
     \x20 list-protocols  list every protocol, adapter and adversary strategy the\n\
     \x20                 registry can construct from (name, params)\n\
     \n\
     cache maintenance (the persistent ensemble spill under <out>/.cache):\n\
     \x20 cache stats     entry count, size on disk, corrupt/leftover files\n\
     \x20 cache verify    decode every entry; non-zero exit if any fails\n\
     \x20 cache prune     delete corrupt entries and leftover temp files\n\
     \n\
     flags:\n\
     \x20 --jobs N       worker budget per scheduling layer (0 = one per core;\n\
     \x20                results are bit-identical for every N — only wall-clock\n\
     \x20                changes)\n\
     \x20 --max-miners N Table-1 sweep cap: m in {2,3,4,5} plus multiples of 5\n\
     \x20                up to N (default 10 = the paper's {2,3,4,5,10}; 40 tested)\n\
     \x20 --no-disk-cache  do not persist/reuse ensembles under <out>/.cache\n\
     \x20 --timings FILE write per-experiment wall-clock JSON ({target, seconds, reps})"
}

fn list_protocols() -> String {
    let mut out = String::new();
    out.push_str("protocols — construct any scenario protocol from (name, params):\n");
    for entry in fairness_core::registry::registry() {
        out.push_str(&format!("  {:<44} {}\n", entry.signature(), entry.summary));
        for p in entry.params {
            out.push_str(&format!("      {:<12} {}\n", p.key, p.doc));
        }
    }
    out.push_str("\nstrategies — for adversary(strategy = ...):\n");
    for entry in fairness_core::registry::strategies() {
        out.push_str(&format!("  {:<44} {}\n", entry.signature(), entry.summary));
        for p in entry.params {
            out.push_str(&format!("      {:<12} {}\n", p.key, p.doc));
        }
    }
    out.push_str(
        "\nExample scenario file (see examples/selfish_sweep.scn):\n\n\
         scenario \"selfish a=0.30\" {\n\
         \x20 protocol = adversary(inner = pow(w = 0.01),\n\
         \x20                      strategy = selfish-mining(gamma = 0.5))\n\
         \x20 shares = [0.3, 0.7]\n\
         \x20 checkpoints = linear(2000, 10)\n\
         }\n",
    );
    out
}

fn main() -> ExitCode {
    let mut flags = RunFlags::default();
    let mut targets: Vec<String> = Vec::new();
    let mut timings_path: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match flags.take(&arg, &mut args) {
            Ok(true) => continue,
            Ok(false) => {}
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        match arg.as_str() {
            "--timings" => match args.next() {
                Some(v) => timings_path = Some(PathBuf::from(v)),
                None => {
                    eprintln!("--timings needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => targets.push(other.to_owned()),
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let opts = flags.finish();
    if targets.is_empty() {
        targets.push("all".to_owned());
    }

    if targets.iter().any(|t| t == "list-protocols") {
        print!("{}", list_protocols());
        return ExitCode::SUCCESS;
    }

    // `cache <stats|verify|prune>` — maintenance of the persistent
    // ensemble spill under <out>/.cache.
    if targets.first().is_some_and(|t| t == "cache") {
        let action = targets.get(1).map_or("stats", String::as_str);
        let dir = opts.results_dir.join(".cache");
        let scan = match fairness_bench::experiments::diskcache::scan(&dir) {
            Ok(scan) => scan,
            Err(e) => {
                eprintln!("scanning {} failed: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        };
        println!(
            "cache {}: {} entries, {:.1} KiB, {} corrupt, {} leftover temp file(s)",
            dir.display(),
            scan.entries,
            scan.bytes as f64 / 1024.0,
            scan.corrupt.len(),
            scan.temporaries.len()
        );
        return match action {
            "stats" => ExitCode::SUCCESS,
            "verify" => {
                for path in scan.corrupt.iter().chain(&scan.temporaries) {
                    println!("  bad: {}", path.display());
                }
                if scan.removable() == 0 {
                    println!("cache verify: ok — every entry decodes");
                    ExitCode::SUCCESS
                } else {
                    eprintln!(
                        "cache verify: {} file(s) would be removed by `repro cache prune`",
                        scan.removable()
                    );
                    ExitCode::FAILURE
                }
            }
            "prune" => match fairness_bench::experiments::diskcache::prune(&dir) {
                Ok(removed) => {
                    println!("cache prune: removed {removed} file(s); healthy entries kept");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cache prune failed: {e}");
                    ExitCode::FAILURE
                }
            },
            other => {
                eprintln!(
                    "unknown cache action `{other}` (stats, verify or prune)\n{}",
                    usage()
                );
                ExitCode::FAILURE
            }
        };
    }

    // `scenario FILE` runs user-authored specs through the same
    // SweepService (pool, sweep cache, disk persistence) as the built-in
    // figures — and as the `fairness-serve` daemon.
    if targets.first().is_some_and(|t| t == "scenario") {
        let [_, file] = targets.as_slice() else {
            eprintln!("scenario needs exactly one spec file\n{}", usage());
            return ExitCode::FAILURE;
        };
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("reading {file} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let specs = match parse_scenarios(&text) {
            Ok(specs) => specs,
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::FAILURE;
            }
        };
        fairness_stats::mc::set_global_threads(opts.jobs);
        let reps = opts.repetitions;
        let service = SweepService::new(opts);
        let started = std::time::Instant::now();
        match service.run_report(&specs) {
            Ok(report) => {
                let seconds = started.elapsed().as_secs_f64();
                println!("{report}");
                println!(
                    "[{} scenario(s) in {seconds:.1}s wall-clock, jobs={}; sweep cache: {} ensembles, {} hits / {} misses ({} from disk)]",
                    specs.len(),
                    service.pool().jobs(),
                    service.cache().len(),
                    service.cache().hits(),
                    service.cache().misses(),
                    service.cache().disk_hits(),
                );
                if let Some(path) = timings_path {
                    // One record for the whole batch, same schema as the
                    // figure targets.
                    let outcome = fairness_bench::schedule::RunOutcome {
                        name: "scenario",
                        seconds,
                        report: Ok(String::new()),
                    };
                    if let Err(e) = std::fs::write(&path, timings_json(&[outcome], reps)) {
                        eprintln!("writing timings to {} failed: {e}", path.display());
                        return ExitCode::FAILURE;
                    }
                    println!("[timings written to {}]", path.display());
                }
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("{file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Resolve targets against the registry, preserving canonical order for
    // `all` and request order otherwise.
    let selected: Vec<_> = if targets.iter().any(|t| t == "all") {
        registry().to_vec()
    } else {
        let mut selected = Vec::new();
        for t in &targets {
            match find(t) {
                Some(e) => selected.push(e),
                None => {
                    eprintln!("unknown target {t}\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
        selected
    };

    // `--jobs` sizes both the experiment/sweep pool and each Monte-Carlo
    // ensemble's workers.
    fairness_stats::mc::set_global_threads(opts.jobs);
    let reps = opts.repetitions;
    let service = SweepService::new(opts);

    let started = std::time::Instant::now();
    let outcomes = service.run_targets(&selected);
    let total = started.elapsed().as_secs_f64();

    let mut failed = false;
    for outcome in &outcomes {
        println!("{}", "=".repeat(78));
        match &outcome.report {
            Ok(report) => {
                println!("{report}");
                println!("[{} done in {:.1}s]", outcome.name, outcome.seconds);
            }
            Err(e) => {
                eprintln!("{} failed: {e}", outcome.name);
                failed = true;
            }
        }
    }
    println!("{}", "=".repeat(78));
    println!(
        "[{} experiments in {total:.1}s wall-clock, jobs={}; sweep cache: {} ensembles, {} hits / {} misses ({} from disk)]",
        outcomes.len(),
        service.pool().jobs(),
        service.cache().len(),
        service.cache().hits(),
        service.cache().misses(),
        service.cache().disk_hits(),
    );

    if let Some(path) = timings_path {
        if let Err(e) = std::fs::write(&path, timings_json(&outcomes, reps)) {
            eprintln!("writing timings to {} failed: {e}", path.display());
            failed = true;
        } else {
            println!("[timings written to {}]", path.display());
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

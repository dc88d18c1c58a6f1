//! Benchmark harness: runs one workload of the repository benchmark in
//! this process and prints what it measured.
//!
//! ```text
//! perfbench-harness <multiminer|overlay|serve> --seed N --out DIR [--trace] [--setup-only]
//! ```
//!
//! Stdout protocol: the line `READY` as soon as set-up is done
//! (`perfbench/run.py` times process start → this line as `setup_s`),
//! then one JSON object describing the measured phase, including the
//! host-speed samples taken right before and after it (see `host`).
//! `run.py` starts a fresh process, with an empty `DIR`, for every
//! iteration.
//! `--setup-only` exits right after `READY`; `--trace` records spans
//! around the harness's calls into each layer and adds per-layer values
//! to the JSON, writing the spans to `DIR/spans.jsonl`.

mod cells;
mod client;
mod host;
mod json;
mod multiminer;
mod ops;
mod overlay;
mod serve;
mod trace;

use ops::{median, Record};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub out: PathBuf,
    pub setup_only: bool,
}

/// Span names, one per layer boundary the harness records. Every traced
/// run reports a self time for each (0 when the workload skips it).
pub const SPAN_NAMES: [&str; 11] = [
    "service",
    "registry",
    "game",
    "summarize",
    "spill",
    "runner",
    "experiment",
    "overlay",
    "report",
    "parse",
    "http",
];

fn parse_args() -> Result<(Args, bool), String> {
    let mut argv = std::env::args().skip(1);
    let workload = argv.next().ok_or("missing workload")?;
    let (mut seed, mut out, mut trace, mut setup_only) = (None, None, false, false);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--out" => out = Some(PathBuf::from(argv.next().ok_or("--out needs a value")?)),
            "--trace" => trace = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((
        Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            out: out.ok_or("missing --out")?,
            setup_only,
        },
        trace,
    ))
}

/// Tells `run.py` that set-up is done.
pub fn ready() {
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(stdout, "READY");
    let _ = stdout.flush();
}

/// Adds the layer values every traced run reports: self time per span
/// name, the traced measured phase and the part of it spans cover, and
/// the CSV output sizes; writes the spans out.
pub fn finish_trace(rec: &mut Record, tr: &Tracer, args: &Args, started: Instant, ended: Instant) {
    let self_s = tr.self_seconds();
    for name in SPAN_NAMES {
        rec.layer(
            &format!("self_s.{name}"),
            self_s.get(name).copied().unwrap_or(0.0),
        );
    }
    let spans = tr.spans();
    let ms = |name: &str| -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds() * 1e3)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    rec.layer("service.new_ms", ms("service"));
    rec.layer("registry.construct_ms", ms("registry"));
    rec.layer("trace.total_s", (ended - started).as_secs_f64());
    rec.layer("trace.covered_s", tr.covered(started, ended));
    rec.layer("trace.spans", spans.len() as f64);
    let (files, bytes) = ops::report_files(&args.out.join("results"));
    rec.layer("report.files", files as f64);
    rec.layer("report.bytes", bytes as f64);
    if let Err(e) = std::fs::write(args.out.join("spans.jsonl"), tr.to_jsonl()) {
        eprintln!("perfbench-harness: writing spans: {e}");
    }
}

fn main() -> ExitCode {
    let (args, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            return ExitCode::from(2);
        }
    };
    let tr = Tracer::new(trace);
    let result = match args.workload.as_str() {
        "multiminer" => multiminer::run(&args, &tr),
        "overlay" => overlay::run(&args, &tr),
        "serve" => serve::run(&args, &tr),
        other => Err(format!("unknown workload {other}")),
    };
    match result {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-harness: {e}");
            ExitCode::FAILURE
        }
    }
}

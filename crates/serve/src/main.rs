//! `fairness-serve` — the resident fairness-as-a-service daemon.
//!
//! ```text
//! fairness-serve [--addr HOST:PORT] [--queue-capacity N]
//!                [--quick] [--jobs N] [--reps N] [--system-reps N]
//!                [--seed N] [--max-miners N] [--no-system]
//!                [--no-disk-cache] [--out DIR]
//! ```
//!
//! POST a `.scn` scenario file to `/v1/scenarios` and read the NDJSON
//! progress stream; see the crate docs (and the README's "Serving"
//! section) for the full endpoint table. SIGTERM/SIGINT drain
//! gracefully: queued jobs finish, in-flight streams complete, then the
//! process exits 0.

use fairness_bench::ReproOptions;
use fairness_serve::Server;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

fn usage() -> &'static str {
    "usage: fairness-serve [--addr HOST:PORT] [--queue-capacity N]\n\
     \x20                     [--quick] [--jobs N] [--reps N] [--system-reps N]\n\
     \x20                     [--seed N] [--max-miners N] [--no-system]\n\
     \x20                     [--no-disk-cache] [--out DIR]\n\
     \n\
     Resident scenario daemon over the SweepService scheduling API.\n\
     POST a .scn file to /v1/scenarios (the text format is the wire\n\
     format) and read NDJSON progress; repeated submissions are answered\n\
     from the sweep cache with zero simulation work. Endpoints:\n\
     \n\
     \x20 POST   /v1/scenarios        submit a .scn body, stream progress\n\
     \x20 GET    /v1/jobs/:fp         job status\n\
     \x20 GET    /v1/jobs/:fp/events  replay the event stream\n\
     \x20 GET    /v1/jobs/:fp/report  the finished text report\n\
     \x20 DELETE /v1/jobs/:fp         request cancellation\n\
     \x20 GET    /metrics             Prometheus counters\n\
     \x20 POST   /admin/drain         finish queued work, then exit\n\
     \n\
     SIGTERM/SIGINT drain gracefully (queued jobs finish first).\n\
     Defaults: --addr 127.0.0.1:7878, full paper scale (use --quick for\n\
     smoke-test scale), CSVs and the ensemble disk cache under results/."
}

/// Set from the signal handler; polled by the server's stop watcher (the
/// handler restarts an interrupted `accept`, so the acceptor never sees it).
static SIGNALED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNALED.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGINT (2) and SIGTERM (15) via the libc
/// `signal` symbol — the daemon's only FFI, avoiding a signal-handling
/// dependency the offline container cannot fetch.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_signal);
        signal(15, on_signal);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ReproOptions::default();
    let mut addr = String::from("127.0.0.1:7878");
    let mut queue_capacity = fairness_bench::service::DEFAULT_QUEUE_CAPACITY;
    let mut quick = false;
    let mut reps_set = false;
    let mut system_reps_set = false;

    let mut i = 0;
    while i < args.len() {
        macro_rules! value_flag {
            ($name:literal, $parse:expr) => {{
                i += 1;
                match args.get(i).and_then($parse) {
                    Some(v) => v,
                    None => {
                        eprintln!(concat!($name, " needs a valid value\n{}"), usage());
                        return ExitCode::FAILURE;
                    }
                }
            }};
        }
        match args[i].as_str() {
            "--quick" => quick = true,
            "--no-system" => opts.with_system = false,
            "--no-disk-cache" => opts.disk_cache = false,
            "--addr" => addr = value_flag!("--addr", |v: &String| Some(v.clone())),
            "--queue-capacity" => {
                queue_capacity = value_flag!("--queue-capacity", |v: &String| v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0));
            }
            "--jobs" => opts.jobs = value_flag!("--jobs", |v: &String| v.parse().ok()),
            "--reps" => {
                opts.repetitions = value_flag!("--reps", |v: &String| v.parse().ok());
                reps_set = true;
            }
            "--system-reps" => {
                opts.system_repetitions = value_flag!("--system-reps", |v: &String| v.parse().ok());
                system_reps_set = true;
            }
            "--seed" => opts.seed = value_flag!("--seed", |v: &String| v.parse().ok()),
            "--max-miners" => {
                opts.max_miners = value_flag!("--max-miners", |v: &String| v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n >= 2));
            }
            "--out" => {
                opts.results_dir =
                    PathBuf::from(value_flag!("--out", |v: &String| Some(v.clone())));
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }
    if quick {
        let scale = ReproOptions::quick();
        if !reps_set {
            opts.repetitions = scale.repetitions;
        }
        if !system_reps_set {
            opts.system_repetitions = scale.system_repetitions;
        }
    }

    install_signal_handlers();
    fairness_stats::mc::set_global_threads(opts.jobs);

    let server = match Server::bind_with_queue(addr.as_str(), opts, queue_capacity) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("fairness-serve: binding {addr} failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(bound) => println!(
            "fairness-serve: listening on http://{bound} (queue capacity {queue_capacity})"
        ),
        Err(e) => eprintln!("fairness-serve: local_addr failed: {e}"),
    }

    match server.run(|| SIGNALED.load(Ordering::Relaxed)) {
        Ok(()) => {
            println!("fairness-serve: drained — bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fairness-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

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

use fairness_bench::RunFlags;
use fairness_serve::Server;
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
    let mut flags = RunFlags::default();
    let mut addr = String::from("127.0.0.1:7878");
    let mut queue_capacity = fairness_bench::service::DEFAULT_QUEUE_CAPACITY;
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
            "--addr" => match args.next() {
                Some(v) => addr = v,
                None => {
                    eprintln!("--addr needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--queue-capacity" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => queue_capacity = n,
                _ => {
                    eprintln!("--queue-capacity needs a number >= 1\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    let opts = flags.finish();

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

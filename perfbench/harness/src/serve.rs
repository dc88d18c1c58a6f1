//! `serve`: an in-process `fairness_serve::Server` driven by one
//! closed-loop client.
//!
//! The client holds one connection at a time and posts `.scn` batches
//! generated from the seed, in three classes:
//!
//! * **cold** — a fresh `optimal-withholding(α, γ, 16)` scenario (a fresh
//!   MDP solve: `mdp::solve_cache()` is process-global, so every batch
//!   draws a distinct triple) plus a 3-miner SL-PoS ensemble; both
//!   ensembles spill to disk;
//! * **replay** — an earlier batch again, answered from the job table
//!   with no simulation;
//! * **disk replay** — every cold batch again after `shutdown` and a
//!   rebind over the same results directory, answered from the spills.
//!
//! An in-memory replay must stream exactly the bytes of its cold stream.
//! A disk replay re-executes the batch from the spills, and at `--jobs`
//! above 1 `runner::run_scenarios` emits `scenario` events in completion
//! order, so its stream must match the cold stream line for line once
//! those events are put in index order; raw byte mismatches are counted
//! as `serve.reordered_streams`. The server runs with the daemon's
//! default `--jobs` (one per core).

use crate::cells::disk_load_ms;
use crate::client::{exchange, Exchange};
use crate::ops::{median, sha_hex, Record};
use crate::host::Phase;
use crate::trace::Tracer;
use crate::{finish_trace, ready, Args};
use fairness_bench::experiments::diskcache;
use fairness_bench::ReproOptions;
use fairness_core::mdp::fork::ForkMdp;
use fairness_core::mdp::{solve_cache, solve_key, solve_optimal};
use fairness_core::registry;
use fairness_core::scenario::text::parse_scenarios;
use fairness_core::scenario::ScenarioSpec;
use fairness_serve::Server;
use fairness_stats::rng::SeedSequence;
use rand::RngCore;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Cold batches per iteration (about 1.4 s with their replays).
pub const COLD_BATCHES: usize = 8;
/// In-memory replays after each cold batch (40 per iteration; a run pools
/// the replay latencies of all its iterations).
pub const REPLAYS_PER_COLD: usize = 5;
/// MDP truncation depth of the optimal-withholding scenarios.
const DEPTH: u32 = 16;
/// Monte-Carlo repetitions per scenario.
const REPETITIONS: usize = 200;
/// Blocks per scenario.
const HORIZON: u64 = 2000;

/// One generated cold batch.
struct Batch {
    label: String,
    alpha: f64,
    gamma: f64,
    text: String,
    specs: Vec<ScenarioSpec>,
}

/// The iteration's cold batches, a pure function of the seed.
///
/// α, γ and the SL-PoS share are stratified: batch k draws α from the
/// k-th of `COLD_BATCHES` equal slices of [0.150, 0.450], γ from slice
/// 3k + 1 and the share from slice 5k + 2 (mod `COLD_BATCHES`, to which 3
/// and 5 are coprime, so each slice is used once), each at a seeded
/// offset inside its slice. The pairing of slices is the same for
/// every seed, so every seed costs about the same MDP and simulation work
/// (seeded pairings moved a run's CPU time by up to 10 %), while the
/// slices keep every triple distinct (a fresh MDP solve per batch) and
/// every SL-PoS share distinct (a fresh spill per batch).
fn batches(seed: u64) -> Result<Vec<Batch>, String> {
    let mut rng = SeedSequence::new(seed).child_rng(0x5E87E);
    let n = COLD_BATCHES as u64;
    let mut out: Vec<Batch> = Vec::new();
    for k in 0..COLD_BATCHES {
        // Slice starts are ⌊k·width⌋; the offsets stay below the width.
        let alpha = (150 + k as u64 * 300 / n + rng.next_u64() % 12) as f64 / 1000.0;
        let gamma = ((3 * k as u64 + 1) % n * 100 / n + rng.next_u64() % 4) as f64 / 100.0;
        let a = (100 + (5 * k as u64 + 2) % n * 400 / n + rng.next_u64() % 16) as f64 / 1000.0;
        let label = format!("c{k:02}");
        let rest = (1.0 - a) / 2.0;
        let text = format!(
            "scenario \"{label} owd\" {{\n  protocol = adversary(inner = pow(w = 0.01),\n    strategy = optimal-withholding(alpha = {alpha}, gamma = {gamma}, depth = {DEPTH}))\n  shares = [{alpha}, {}]\n  checkpoints = linear({HORIZON}, 10)\n  repetitions = {REPETITIONS}\n}}\n\
             scenario \"{label} slpos3\" {{\n  protocol = sl-pos(w = 0.01)\n  shares = [{a}, {rest}, {rest}]\n  checkpoints = linear({HORIZON}, 10)\n  repetitions = {REPETITIONS}\n}}\n",
            1.0 - alpha
        );
        let specs = parse_scenarios(&text).map_err(|e| format!("generated batch {label}: {e}"))?;
        out.push(Batch {
            label,
            alpha,
            gamma,
            text,
            specs,
        });
    }
    Ok(out)
}

/// Threads the daemon computes on at its default `--jobs` (one per core).
fn computing_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A running server and its accept-loop thread.
struct Running {
    server: Arc<Server>,
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

fn start(tr: &Tracer, opts: &ReproOptions, label: &str) -> Result<Running, String> {
    let server = tr
        .span("service", label, || {
            Server::bind("127.0.0.1:0", opts.clone())
        })
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let thread = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run(|| false))
    };
    Ok(Running {
        server,
        addr,
        thread,
    })
}

fn stop(running: Running) -> Result<(), String> {
    running.server.shutdown();
    running
        .thread
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| format!("server: {e}"))
}

/// The closed-loop client's bookkeeping.
struct Client<'a> {
    tr: &'a Tracer,
    addr: SocketAddr,
    /// Requests sent so far; also the next request's id.
    requests: u64,
    non2xx: u64,
    body_bytes: u64,
    ttfb_ms: Vec<f64>,
}

impl Client<'_> {
    /// One request, traced as an `http` span with a `line` event per
    /// NDJSON line, all carrying the request id.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        label: &str,
        body: &[u8],
    ) -> Result<Exchange, String> {
        let id = self.requests;
        self.requests += 1;
        self.body_bytes += body.len() as u64;
        let ex = exchange(self.addr, method, path, body).map_err(|e| format!("{label}: {e}"))?;
        if !(200..300).contains(&ex.status) {
            self.non2xx += 1;
        }
        self.ttfb_ms
            .push((ex.first_byte - ex.start).as_secs_f64() * 1e3);
        if let Some(span) = self
            .tr
            .record("http", label, ex.start, ex.end, None, Some(id))
        {
            for (event, at) in ex.events() {
                self.tr.record("line", &event, at, at, Some(span), Some(id));
            }
        }
        Ok(ex)
    }
}

/// The stream with `scenario` events in batch-index order (every other
/// line keeps its place): the form in which a stream is a pure function
/// of the batch at any `--jobs`.
fn canonical(body: &[u8]) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = body.split_inclusive(|&b| b == b'\n').collect();
    let index = |line: &[u8]| -> Option<u64> {
        let text = std::str::from_utf8(line).ok()?;
        if !text.contains("\"event\":\"scenario\"") {
            return None;
        }
        let digits = text.split("\"index\":").nth(1)?;
        digits
            .split(|c: char| !c.is_ascii_digit())
            .next()?
            .parse()
            .ok()
    };
    let slots: Vec<usize> = (0..lines.len())
        .filter(|&i| index(lines[i]).is_some())
        .collect();
    let mut scenario: Vec<&[u8]> = slots.iter().map(|&i| lines[i]).collect();
    scenario.sort_by_key(|line| index(line));
    for (slot, line) in slots.into_iter().zip(scenario) {
        lines[slot] = line;
    }
    lines.concat()
}

/// The batch's canonical stream digest plus its two CSVs' digests.
fn outputs(dir: &Path, batch: &Batch, body: &[u8]) -> Vec<(String, String)> {
    let mut out = vec![(format!("ndjson:{}", batch.label), sha_hex(&canonical(body)))];
    for spec in &batch.specs {
        let file = format!("scn_{}.csv", spec.slug());
        let digest = std::fs::read(dir.join(&file))
            .map_or_else(|e| format!("unreadable: {e}"), |b| sha_hex(&b));
        out.push((format!("csv:{file}"), digest));
    }
    out
}

/// A cold stream must be the five events of a finished two-scenario job.
fn check_cold(ex: &Exchange) -> Result<(), String> {
    let events: Vec<String> = ex.events().into_iter().map(|(e, _)| e).collect();
    if ex.status != 200 {
        return Err(format!("status {}", ex.status));
    }
    if events != ["queued", "started", "scenario", "scenario", "done"] {
        return Err(format!("events {events:?}"));
    }
    Ok(())
}

fn metric(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
}

pub fn run(args: &Args, tr: &Tracer) -> Result<Option<String>, String> {
    let opts = ReproOptions {
        seed: args.seed,
        results_dir: args.out.join("results"),
        jobs: 0,
        disk_cache: true,
        ..ReproOptions::quick()
    };
    // As the daemon's `main` does: `--jobs` also sizes the Monte-Carlo pool.
    fairness_stats::mc::set_global_threads(opts.jobs);
    let batches = batches(args.seed)?;
    let dir = opts.results_dir.clone();

    let first = start(tr, &opts, "bind")?;
    let mut client = Client {
        tr,
        addr: first.addr,
        requests: 0,
        non2xx: 0,
        body_bytes: 0,
        ttfb_ms: Vec::new(),
    };
    let hello = client.send("GET", "/metrics", "metrics setup", b"")?;
    if hello.status != 200 {
        return Err(format!("GET /metrics answered {}", hello.status));
    }
    ready();
    if args.setup_only {
        stop(first)?;
        return Ok(None);
    }

    let mut rec = Record::default();
    let mut rng = SeedSequence::new(args.seed).child_rng(0x2E91A7);
    let mut cold: Vec<Vec<u8>> = Vec::new();
    let (mut parse_ms, mut queue_ms, mut exec_ms) = (Vec::new(), Vec::new(), Vec::new());
    let phase = Phase::begin(computing_threads());
    let started = phase.started;

    for batch in &batches {
        if tr.on() {
            let t = Instant::now();
            let parsed = tr.span("parse", &batch.label, || parse_scenarios(&batch.text));
            parse_ms.push(t.elapsed().as_secs_f64() * 1e3);
            if let Ok(specs) = parsed {
                for spec in &specs {
                    let _ = tr.span("registry", &spec.name, || {
                        registry::construct(&spec.protocol, &spec.initial_shares())
                    });
                }
            }
        }
        let ex = client.send(
            "POST",
            "/v1/scenarios",
            &format!("cold {}", batch.label),
            batch.text.as_bytes(),
        )?;
        rec.cold_ms.push(ex.millis());
        rec.cold_wait_ms
            .push((ex.first_byte - ex.start).as_secs_f64() * 1e3);
        let events = ex.events();
        let at = |name: &str| events.iter().find(|(e, _)| e == name).map(|&(_, t)| t);
        if let (Some(s), Some(d)) = (at("started"), at("done")) {
            queue_ms.push((s - ex.first_byte).as_secs_f64() * 1e3);
            exec_ms.push((d - s).as_secs_f64() * 1e3);
        }
        let outs = outputs(&dir, batch, &ex.body);
        match check_cold(&ex) {
            Ok(()) => rec.ok(outs),
            Err(why) => rec.fail(format!("cold {}: {why}", batch.label), outs),
        }
        cold.push(ex.body);

        for _ in 0..REPLAYS_PER_COLD {
            let j = (rng.next_u64() % cold.len() as u64) as usize;
            let replay = &batches[j];
            let ex = client.send(
                "POST",
                "/v1/scenarios",
                &format!("replay {}", replay.label),
                replay.text.as_bytes(),
            )?;
            rec.replay_ms.push(ex.millis());
            let outs = vec![(
                format!("ndjson:{}", replay.label),
                sha_hex(&canonical(&ex.body)),
            )];
            if ex.status == 200 && ex.body == cold[j] {
                rec.ok(outs);
            } else {
                rec.fail(
                    format!(
                        "replay {}: status {} or stream differs from cold",
                        replay.label, ex.status
                    ),
                    outs,
                );
            }
        }
    }
    let replays = (COLD_BATCHES * REPLAYS_PER_COLD) as u64;
    let metrics = client.send("GET", "/metrics", "metrics", b"")?;
    let text = String::from_utf8_lossy(&metrics.body).into_owned();
    let deduped = metric(&text, "fairness_jobs_deduped_total").unwrap_or(u64::MAX);
    if metrics.status == 200 && deduped == replays {
        rec.ok(Vec::new());
    } else {
        rec.fail(
            format!(
                "metrics: status {}, {deduped} deduped of {replays} replays",
                metrics.status
            ),
            Vec::new(),
        );
    }
    let cache = first.server.service().cache();
    let (mut hits, mut misses, mut disk_hits) = (cache.hits(), cache.misses(), cache.disk_hits());
    stop(first)?;

    let second = start(tr, &opts, "rebind")?;
    client.addr = second.addr;
    for (batch, cold_body) in batches.iter().zip(&cold) {
        let ex = client.send(
            "POST",
            "/v1/scenarios",
            &format!("disk {}", batch.label),
            batch.text.as_bytes(),
        )?;
        rec.disk_replay_ms.push(ex.millis());
        let outs = outputs(&dir, batch, &ex.body);
        if &ex.body != cold_body {
            rec.reordered_streams += 1;
        }
        if ex.status == 200 && canonical(&ex.body) == canonical(cold_body) {
            rec.ok(outs);
        } else {
            rec.fail(
                format!(
                    "disk replay {}: status {} or stream differs from cold",
                    batch.label, ex.status
                ),
                outs,
            );
        }
    }
    let metrics = client.send("GET", "/metrics", "metrics", b"")?;
    let cache = second.server.service().cache();
    let expected = 2 * COLD_BATCHES as u64;
    if metrics.status == 200 && cache.disk_hits() == expected && cache.misses() == expected {
        rec.ok(Vec::new());
    } else {
        rec.fail(
            format!(
                "rebind: status {}, {} disk hits and {} misses, expected {expected} of each",
                metrics.status,
                cache.disk_hits(),
                cache.misses()
            ),
            Vec::new(),
        );
    }
    hits += cache.hits();
    misses += cache.misses();
    disk_hits += cache.disk_hits();
    stop(second)?;
    let measured = phase.end();
    let ended = measured.ended;

    if tr.on() {
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let solves = solve_cache().misses();
        let distinct = batches.len() as u64;
        rec.layer(
            "game.steps",
            (COLD_BATCHES * 2 * REPETITIONS) as f64 * HORIZON as f64,
        );
        rec.layer("mdp.solves", solves as f64);
        rec.layer("mdp.distinct", distinct as f64);
        rec.layer("mdp.useful_ratio", distinct as f64 / solves.max(1) as f64);
        let rounds: u32 = batches
            .iter()
            .filter_map(|b| solve_cache().peek(&solve_key(b.alpha, b.gamma, DEPTH)))
            .map(|p| p.rounds)
            .sum();
        rec.layer("mdp.rounds", f64::from(rounds));
        let states: usize = batches
            .iter()
            .map(|b| ForkMdp::new(b.alpha, b.gamma, DEPTH).num_states())
            .sum();
        rec.layer("mdp.states", states as f64);
        // Solve time, measured after the run on the run's own triples
        // with the process-wide solve cache emptied.
        solve_cache().clear();
        let solve_ms: Vec<f64> = batches
            .iter()
            .map(|b| {
                let t = Instant::now();
                let _ = solve_optimal(b.alpha, b.gamma, DEPTH);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        rec.layer("mdp.solve_ms", med(&solve_ms));
        rec.layer("cache.hits", hits as f64);
        rec.layer("cache.misses", misses as f64);
        rec.layer("cache.disk_hits", disk_hits as f64);
        let scan = diskcache::scan(&dir.join(".cache")).unwrap_or_default();
        rec.layer("diskcache.entries", scan.entries as f64);
        rec.layer("diskcache.bytes", scan.bytes as f64);
        let specs: Vec<ScenarioSpec> = batches.iter().flat_map(|b| b.specs.clone()).collect();
        let (load_ms, loaded) = disk_load_ms(args.seed, &dir.join(".cache"), &specs, REPETITIONS);
        if loaded != specs.len() as u64 {
            rec.fail(
                format!(
                    "trace: {loaded} of {} ensembles loaded from disk",
                    specs.len()
                ),
                Vec::new(),
            );
        }
        rec.layer("diskcache.load_ms", load_ms);
        rec.layer("service.queue_ms", med(&queue_ms));
        rec.layer("service.exec_ms", med(&exec_ms));
        rec.layer("service.deduped", deduped as f64);
        rec.layer("http.ttfb_ms", med(&client.ttfb_ms));
        rec.layer("http.requests", client.requests as f64);
        rec.layer("http.non2xx", client.non2xx as f64);
        rec.layer("scenario.parse_ms", med(&parse_ms));
        rec.layer("scenario.bytes", client.body_bytes as f64);
        rec.layer("serve.reordered_streams", rec.reordered_streams as f64);
        finish_trace(&mut rec, tr, args, started, ended);
    }
    Ok(Some(rec.to_json(&measured)))
}

//! Daemon lifecycle, end to end over real sockets: submit → stream →
//! dedup (byte-identical, zero simulation) → status/report → graceful
//! drain → restart served from the disk cache; and an idle acceptor's
//! wake-up on shutdown.

use fairness_bench::ReproOptions;
use fairness_serve::Server;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn test_opts(dir: &Path) -> ReproOptions {
    ReproOptions {
        repetitions: 60,
        system_repetitions: 4,
        seed: 7,
        results_dir: dir.to_path_buf(),
        with_system: false,
        // Scenario events are in index order at any `jobs`
        // (`jobs2_restart_replays_the_cold_stream` runs at 2); one worker
        // keeps the other tests light.
        jobs: 1,
        max_miners: 10,
        disk_cache: true,
    }
}

/// One request over a fresh connection; returns (status line, body).
/// Responses are close-delimited, so read-to-EOF is the framing. A stream
/// that stalls (a wedged executor) fails the read instead of hanging.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("head/body split");
    let status = head.lines().next().expect("status line").to_owned();
    (status, payload.to_owned())
}

fn metric(metrics_body: &str, name: &str) -> u64 {
    metrics_body
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{metrics_body}"))
        .trim()
        .parse()
        .expect("metric value")
}

/// Runs `server` on its own thread. `run`'s result arrives on the
/// returned channel, so a missed wake-up fails [`stopped`] instead of
/// hanging the test.
fn spawn(
    server: &Arc<Server>,
    external_stop: impl Fn() -> bool + Send + Sync + 'static,
) -> (SocketAddr, mpsc::Receiver<io::Result<()>>) {
    let addr = server.local_addr().expect("bound");
    let (result, run) = mpsc::channel();
    let server = Arc::clone(server);
    std::thread::spawn(move || result.send(server.run(external_stop)));
    (addr, run)
}

/// Waits (generously) for `run` to return, and requires a clean exit.
fn stopped(run: &mpsc::Receiver<io::Result<()>>) {
    run.recv_timeout(Duration::from_secs(60))
        .expect("run() returns after shutdown")
        .expect("clean shutdown");
}

#[test]
fn daemon_lifecycle_end_to_end() {
    let dir = std::env::temp_dir().join("fairness-serve-lifecycle");
    let _ = std::fs::remove_dir_all(&dir);
    let scn = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/selfish_sweep.scn"),
    )
    .expect("example scenario file");

    let server = Server::bind("127.0.0.1:0", test_opts(&dir)).expect("bind ephemeral");
    let (addr, run) = spawn(&server, || false);

    // --- Submit the example sweep and stream its progress. ---
    let (status, first_body) = request(addr, "POST", "/v1/scenarios", &scn);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let lines: Vec<&str> = first_body.lines().collect();
    assert!(lines[0].contains("\"event\":\"queued\""), "{first_body}");
    assert!(lines[0].contains("\"scenarios\":6"));
    assert!(lines[1].contains("\"event\":\"started\""));
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"event\":\"scenario\""))
            .count(),
        6,
        "one progress event per scenario: {first_body}"
    );
    assert!(lines.last().expect("lines").contains("\"event\":\"done\""));
    // Scenario events arrive in batch order.
    let indices: Vec<&str> = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"scenario\""))
        .map(|l| {
            let at = l.find("\"index\":").expect("index field") + "\"index\":".len();
            &l[at..at + 1]
        })
        .collect();
    assert_eq!(indices, ["0", "1", "2", "3", "4", "5"]);
    let job_fp = {
        let at = lines[0].find("\"job\":\"").expect("job field") + "\"job\":\"".len();
        lines[0][at..at + 16].to_owned()
    };
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let misses_after_first = metric(&metrics, "fairness_ensemble_cache_misses_total");
    assert!(misses_after_first > 0, "first run simulates");
    assert_eq!(metric(&metrics, "fairness_jobs_completed_total"), 1);

    // --- The tentpole contract: a repeat submission is answered from the
    // stored job — byte-identical stream, zero new simulation work. ---
    let (status, second_body) = request(addr, "POST", "/v1/scenarios", &scn);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        second_body, first_body,
        "dedup replay must be byte-identical"
    );
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "fairness_jobs_deduped_total"), 1);
    assert_eq!(
        metric(&metrics, "fairness_ensemble_cache_misses_total"),
        misses_after_first,
        "second submission performs zero simulation steps"
    );
    assert_eq!(metric(&metrics, "fairness_jobs_completed_total"), 1);

    // --- Job queries. ---
    let (status, body) = request(addr, "GET", &format!("/v1/jobs/{job_fp}"), "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"phase\":\"done\""), "{body}");
    assert!(body.contains("\"scenarios\":6"));
    let (status, report) = request(addr, "GET", &format!("/v1/jobs/{job_fp}/report"), "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(report.contains("\"selfish a=0.25 gamma=0\""), "{report}");
    assert!(report.contains("fingerprint:"));
    let (status, replay) = request(addr, "GET", &format!("/v1/jobs/{job_fp}/events"), "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(replay, first_body, "event replay equals the live stream");
    let (status, body) = request(addr, "GET", "/v1/jobs/0000000000000bad", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("unknown-job"));
    let (status, body) = request(addr, "POST", "/v1/scenarios", "scenario \"x\" {");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("\"code\":\"parse\""), "{body}");

    // --- Graceful drain: work submitted just before the drain still
    // completes before the process exits. ---
    let late = "scenario \"late straggler\" {\n\
                \x20 protocol = pow(w = 0.01)\n\
                \x20 shares = [0.3, 0.7]\n\
                \x20 checkpoints = linear(500, 5)\n\
                }\n";
    // Hold the straggler's stream open: read up to its `queued` event (so
    // the job is provably enqueued), *then* drain, then read the rest.
    let mut straggler = TcpStream::connect(addr).expect("connect");
    write!(
        straggler,
        "POST /v1/scenarios HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{late}",
        late.len()
    )
    .expect("send straggler");
    let mut late_raw = Vec::new();
    while !String::from_utf8_lossy(&late_raw).contains("\"event\":\"queued\"") {
        let mut chunk = [0u8; 512];
        let n = straggler.read(&mut chunk).expect("stream straggler");
        assert!(n > 0, "stream ended early: {late_raw:?}");
        late_raw.extend_from_slice(&chunk[..n]);
    }
    let (status, body) = request(addr, "POST", "/admin/drain", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"draining\":true"));
    straggler
        .read_to_end(&mut late_raw)
        .expect("drain straggler stream");
    let late_body = String::from_utf8(late_raw).expect("utf8");
    assert!(late_body.starts_with("HTTP/1.1 200 OK"), "{late_body}");
    assert!(
        late_body
            .lines()
            .last()
            .expect("events")
            .contains("\"event\":\"done\""),
        "drained, not dropped: {late_body}"
    );
    stopped(&run);
    let final_metrics = server.service().metrics();
    assert_eq!(final_metrics.queue_depth, 0, "drain leaves no queued jobs");
    assert_eq!(final_metrics.jobs_inflight, 0);
    assert_eq!(final_metrics.jobs_completed, 2);

    // No orphaned temp files in the cache spill after shutdown.
    let cache_dir = dir.join(".cache");
    let temps: Vec<_> = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists")
        .map(|e| e.expect("entry").file_name())
        .filter(|n| n.to_string_lossy().contains(".tmp"))
        .collect();
    assert!(temps.is_empty(), "orphaned cache temporaries: {temps:?}");

    // --- Restart over the same results dir: a fresh process answers the
    // same submission from the disk layer, byte-identically. ---
    let server2 = Server::bind("127.0.0.1:0", test_opts(&dir)).expect("rebind");
    let (addr2, run2) = spawn(&server2, || false);
    let (status, third_body) = request(addr2, "POST", "/v1/scenarios", &scn);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        third_body, first_body,
        "cross-restart replay is byte-identical"
    );
    let (_, metrics) = request(addr2, "GET", "/metrics", "");
    assert_eq!(
        metric(&metrics, "fairness_ensemble_disk_hits_total"),
        metric(&metrics, "fairness_ensemble_cache_misses_total"),
        "every ensemble served from the disk spill after restart"
    );
    server2.shutdown();
    stopped(&run2);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn jobs2_restart_replays_the_cold_stream() {
    let dir = std::env::temp_dir().join("fairness-serve-jobs2-restart");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ReproOptions {
        jobs: 2,
        ..test_opts(&dir)
    };
    // Scenario 0 simulates ~10⁷ steps, scenario 1 ~10³: on two workers,
    // 1 finishes first.
    let scn = "scenario \"slow\" {\n\
               \x20 protocol = sl-pos(w = 0.01)\n\
               \x20 shares = [0.2, 0.3, 0.5]\n\
               \x20 checkpoints = linear(50000, 10)\n\
               \x20 repetitions = 200\n\
               }\n\
               scenario \"fast\" {\n\
               \x20 protocol = pow(w = 0.01)\n\
               \x20 shares = [0.3, 0.7]\n\
               \x20 checkpoints = linear(100, 5)\n\
               \x20 repetitions = 10\n\
               }\n";

    let server = Server::bind("127.0.0.1:0", opts.clone()).expect("bind");
    let (addr, run) = spawn(&server, || false);
    let (status, cold) = request(addr, "POST", "/v1/scenarios", scn);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let scenario_lines: Vec<&str> = cold
        .lines()
        .filter(|l| l.contains("\"event\":\"scenario\""))
        .collect();
    assert_eq!(scenario_lines.len(), 2, "{cold}");
    assert!(scenario_lines[0].contains("\"index\":0"), "{cold}");
    assert!(scenario_lines[1].contains("\"index\":1"), "{cold}");
    server.shutdown();
    stopped(&run);

    // A fresh daemon re-executes the batch from the disk spill, where the
    // fast scenario no longer finishes first.
    let server = Server::bind("127.0.0.1:0", opts).expect("rebind");
    let (addr, run) = spawn(&server, || false);
    let (status, replay) = request(addr, "POST", "/v1/scenarios", scn);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(replay, cold, "cross-restart replay is byte-identical");
    let cache = server.service().cache();
    assert_eq!(cache.disk_hits(), 2, "both ensembles served from disk");
    server.shutdown();
    stopped(&run);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_wakes_an_idle_acceptor() {
    let dir = std::env::temp_dir().join("fairness-serve-idle-shutdown");
    let mut opts = test_opts(&dir);
    opts.disk_cache = false;
    // Unspecified address: the wake-up must go over loopback.
    let server = Server::bind("0.0.0.0:0", opts).expect("bind");
    let (_, run) = spawn(&server, || false);
    let stopper = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.shutdown())
    };
    stopper.join().expect("shutdown thread");
    stopped(&run);
}

#[test]
fn external_stop_wakes_an_idle_acceptor() {
    let dir = std::env::temp_dir().join("fairness-serve-idle-stop");
    let mut opts = test_opts(&dir);
    opts.disk_cache = false;
    let server = Server::bind("127.0.0.1:0", opts).expect("bind");
    let stop = Arc::new(AtomicBool::new(false));
    let (_, run) = spawn(&server, {
        let stop = Arc::clone(&stop);
        move || stop.load(Ordering::SeqCst)
    });
    stop.store(true, Ordering::SeqCst);
    stopped(&run);
}

#[test]
fn backpressure_and_routing_errors() {
    let dir = std::env::temp_dir().join("fairness-serve-errors");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = test_opts(&dir);
    opts.disk_cache = false;
    let server = Server::bind("127.0.0.1:0", opts).expect("bind");
    let (addr, run) = spawn(&server, || false);

    let (status, body) = request(addr, "GET", "/nope", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("unknown-route"));
    let (status, body) = request(addr, "GET", "/v1/jobs/zz", "");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("bad-fingerprint"));
    let (status, body) = request(addr, "POST", "/v1/scenarios", "");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("\"code\":\"parse\""), "{body}");
    assert!(body.contains("no scenarios found"), "{body}");

    // A spec that fails typed validation surfaces its kebab-case code.
    let dup = "scenario \"dup\" {\n\
               \x20 protocol = pow(w = 0.01, w = 0.02)\n\
               \x20 shares = [0.3, 0.7]\n\
               \x20 checkpoints = linear(500, 5)\n\
               }\n";
    let (status, body) = request(addr, "POST", "/v1/scenarios", dup);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(metrics.contains("fairness_http_requests_total{endpoint=\"GET /metrics\"}"));
    assert!(metrics.contains("fairness_http_requests_total{endpoint=\"not-found\"} 1"));

    server.shutdown();
    stopped(&run);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where the daemon refuses a body, with the code it must report.
enum Refusal {
    /// The `.scn` parser answers `400` before any job is queued.
    Parse(&'static str),
    /// The job's NDJSON stream ends in a `failed` event before any
    /// simulation runs.
    Job(&'static str),
}

/// Posts each `refused` body and expects its code where [`Refusal`] says,
/// then expects `valid` to complete and `/admin/drain` to stop the
/// server: a refused body must not wedge the executor.
fn refuses_then_serves(dir: &str, with_system: bool, refused: &[(String, Refusal)], valid: &str) {
    let dir = std::env::temp_dir().join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = test_opts(&dir);
    opts.with_system = with_system;
    opts.disk_cache = false;
    let server = Server::bind("127.0.0.1:0", opts).expect("bind");
    let (addr, run) = spawn(&server, || false);

    let mut failed_jobs = 0;
    for (body, refusal) in refused {
        let (status, response) = request(addr, "POST", "/v1/scenarios", body);
        match refusal {
            Refusal::Parse(code) => {
                assert_eq!(status, "HTTP/1.1 400 Bad Request", "{response}");
                assert!(
                    response.contains(&format!("\"code\":\"{code}\"")),
                    "{response}"
                );
            }
            Refusal::Job(code) => {
                assert_eq!(status, "HTTP/1.1 200 OK", "{response}");
                let last = response.lines().last().expect("events");
                assert!(
                    last.contains("\"event\":\"failed\"")
                        && last.contains(&format!("\"code\":\"{code}\"")),
                    "{response}"
                );
                failed_jobs += 1;
            }
        }
    }
    let (status, body) = request(addr, "POST", "/v1/scenarios", valid);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(
        body.lines()
            .last()
            .expect("events")
            .contains("\"event\":\"done\""),
        "{body}"
    );
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "fairness_jobs_inflight"), 0);
    assert_eq!(metric(&metrics, "fairness_jobs_failed_total"), failed_jobs);

    let (status, body) = request(addr, "POST", "/admin/drain", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"draining\":true"));
    stopped(&run);
    assert_eq!(server.service().metrics().jobs_completed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `system` cross-check where one miner holds no share is refused with
/// its typed code before any job is queued. The daemon keeps serving: a
/// valid batch with a cross-check posted next completes, and a drain
/// still stops it cleanly.
#[test]
fn zero_share_system_is_refused_and_the_daemon_drains() {
    let batch = |shares: &str| {
        format!(
            "scenario \"system check\" {{\n\
             \x20 protocol = pow(w = 0.01)\n\
             \x20 shares = {shares}\n\
             \x20 checkpoints = linear(100, 5)\n\
             \x20 system = pow(horizon = 50, salt = 7)\n\
             }}\n"
        )
    };
    let code = "system-needs-positive-shares";
    refuses_then_serves(
        "fairness-serve-zero-share",
        true,
        &[
            (batch("[0.0, 1.0]"), Refusal::Parse(code)),
            (batch("[1.0, 0.0]"), Refusal::Parse(code)),
        ],
        &batch("[0.3, 0.7]"),
    );
}

/// A cross-check longer than the horizon cap is refused with its typed
/// code before any job is queued, where it used to hold the executor for
/// as long as it asked; the daemon keeps serving and drains.
#[test]
fn oversized_system_horizon_is_refused_and_the_daemon_drains() {
    let batch = |horizon: u64| {
        format!(
            "scenario \"long\" {{\n\
             \x20 protocol = sl-pos(w = 0.01)\n\
             \x20 shares = [0.2, 0.8]\n\
             \x20 checkpoints = linear(100, 5)\n\
             \x20 system = sl-pos(horizon = {horizon}, salt = 1)\n\
             }}\n"
        )
    };
    let code = "system-horizon-too-large";
    refuses_then_serves(
        "fairness-serve-long-horizon",
        true,
        &[
            (batch(1_000_000_000), Refusal::Parse(code)),
            (batch(100_001), Refusal::Parse(code)),
        ],
        &batch(50),
    );
}

/// A cross-check whose block rewards would overflow the `u64` ledger
/// fails its job with `supply-overflow` before any simulation runs, where
/// it used to panic the executor mid-run and leave every later job queued.
#[test]
fn overflowing_system_issuance_fails_its_job_and_the_daemon_drains() {
    let batch = |w: &str| {
        format!(
            "scenario \"rich\" {{\n\
             \x20 protocol = pow(w = {w})\n\
             \x20 shares = [0.2, 0.8]\n\
             \x20 checkpoints = linear(100, 5)\n\
             \x20 system = pow(horizon = 50, salt = 1)\n\
             }}\n"
        )
    };
    refuses_then_serves(
        "fairness-serve-supply-overflow",
        true,
        &[(batch("1e13"), Refusal::Job("supply-overflow"))],
        &batch("0.01"),
    );
}

#[test]
fn overflowing_share_total_is_refused_and_the_daemon_drains() {
    let batch = |shares: &str| {
        format!(
            "scenario \"overflow\" {{\n\
             \x20 protocol = ml-pos(w = 0.01)\n\
             \x20 shares = {shares}\n\
             \x20 checkpoints = linear(100, 5)\n\
             }}\n"
        )
    };
    refuses_then_serves(
        "fairness-serve-share-overflow",
        false,
        &[(
            batch("[1e308, 1e308]"),
            Refusal::Parse("share-total-overflow"),
        )],
        &batch("[0.3, 0.7]"),
    );
}

/// An adversary over a split-reward protocol is refused with code
/// `registry` before any job is queued, where its job used to panic on
/// the first step; the daemon keeps serving and drains.
#[test]
fn split_reward_adversary_inner_is_refused_and_the_daemon_drains() {
    let batch = |inner: &str| {
        format!(
            "scenario \"split\" {{\n\
             \x20 protocol = adversary(inner = {inner}, strategy = honest)\n\
             \x20 shares = [0.3, 0.7]\n\
             \x20 checkpoints = linear(100, 5)\n\
             }}\n"
        )
    };
    refuses_then_serves(
        "fairness-serve-split-inner",
        false,
        &[
            (
                batch("c-pos(w = 0.01, v = 0.1, shards = 1)"),
                Refusal::Parse("registry"),
            ),
            (
                batch("cash-out(inner = algorand(v = 0.1))"),
                Refusal::Parse("registry"),
            ),
        ],
        &batch("pow(w = 0.01)"),
    );
}

#!/usr/bin/env python3
"""The repository benchmark: builds the harness and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload {multiminer,overlay,serve} \
        --seed N --seconds S --trace {0,1}

The harness (perfbench/harness, a Cargo package of its own) is built in
release mode into $CARGO_TARGET_DIR (default .bench_build). Every measured
iteration is a fresh harness process with an empty results directory under
.perfbench_work/. With --trace 0 the run repeats the workload for S
seconds and reports the end-to-end metrics; with --trace 1 it runs a few
untraced iterations and one traced iteration and reports the per-layer
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

The host's throughput drifts by tens of percent within minutes, as other
guests load the machine, so the timed end-to-end metrics are normalized:
the harness times a fixed calibration kernel right before and after each
iteration's measured phase, and the phase's computing time is rescaled to
a host on which one kernel unit takes REFERENCE_UNIT_MS. The times as
measured are printed too and reported among the per-layer metrics.

An op is one emitted CSV (multiminer, overlay) or one HTTP request (serve).
It fails when the call errors, when the harness's own checks reject it, or
when an output's SHA-256 differs from the digest recorded in
perfbench/expected.json for this seed or from the same output earlier in
the run. See perfbench/NOTES.md for the workloads, metrics and measured
spread.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "harness" / "Cargo.toml"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("multiminer", "overlay", "serve")
# A --trace 0 run repeats iterations for --seconds, and at least this
# often, after one warm-up iteration whose times it discards.
MIN_ITERATIONS = 3
# Untraced iterations before the traced one in a --trace 1 run.
TRACE_UNTRACED = 3
# Set-up-only processes before each iteration: setup_s is the median over
# these and the iterations' own set-ups, spread over the whole run.
SETUP_SAMPLES = 1
# Milliseconds of one calibration-kernel unit (perfbench/harness/src/
# host.rs) on the reference host. Frozen together with the kernel:
# changing either moves every normalized metric.
REFERENCE_UNIT_MS = 5.0
# Kill a harness process that runs longer than this.
ITERATION_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 900

END_TO_END = [
    ("setup_s", "s"),
    ("norm_cpu_s", "s"),
    ("norm_cold_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

SPANS = [
    "service", "registry", "game", "summarize", "spill", "runner",
    "experiment", "overlay", "report", "parse", "http",
]

PER_LAYER = (
    [("game.steps", "count"), ("game.busy_s", "s")]
    + [(f"game.ns_per_step.{c}", "ns") for c in (
        "slpos_m2", "slpos_m3", "slpos_m4", "slpos_m5", "slpos_m10",
        "mlpos_m10", "pow_m10", "cpos_m10")]
    + [
        ("summarize.busy_s", "s"),
        ("bisect.probes", "count"),
        ("bisect.busy_s", "s"),
        ("overlay.blocks", "count"),
        ("overlay.busy_s", "s"),
        ("overlay.ns_per_block.pow", "ns"),
        ("overlay.ns_per_block.mlpos", "ns"),
        ("overlay.ns_per_block.slpos", "ns"),
        ("overlay.trial_hashes.pow", "count"),
        ("sha.ns_per_trial", "ns"),
        ("overlay.hash_share.pow", "computed-ratio"),
        ("mdp.solves", "count"),
        ("mdp.distinct", "count"),
        ("mdp.useful_ratio", "ratio"),
        ("mdp.solve_ms", "ms"),
        ("mdp.rounds", "count"),
        ("mdp.states", "count"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("cache.disk_hits", "count"),
        ("cache.lookups", "count"),
        ("cache.hit_ratio", "ratio"),
        ("diskcache.entries", "count"),
        ("diskcache.bytes", "bytes"),
        ("diskcache.load_ms", "ms"),
        ("exec.cpu_s", "s"),
        ("exec.parallelism", "ratio"),
        ("exec.nonvoluntary_switches", "count"),
        ("service.queue_ms", "ms"),
        ("service.exec_ms", "ms"),
        ("service.deduped", "count"),
        ("service.new_ms", "ms"),
        ("serve.replay_p50_ms", "ms"),
        ("serve.replay_p90_ms", "ms"),
        ("serve.disk_replay_p50_ms", "ms"),
        ("http.ttfb_ms", "ms"),
        ("http.requests", "count"),
        ("http.non2xx", "count"),
        ("scenario.parse_ms", "ms"),
        ("scenario.bytes", "bytes"),
        ("registry.construct_ms", "ms"),
        ("report.files", "count"),
        ("report.bytes", "bytes"),
        ("serve.reordered_streams", "count"),
        ("error_rate", "ratio"),
        ("host.unit_ms", "ms"),
        ("wall_s", "s"),
        ("cpu_s", "s"),
        ("cold_p50_ms", "ms"),
    ]
    + [(f"self_s.{s}", "s") for s in SPANS]
    + [
        ("trace.total_s", "s"),
        ("trace.covered_s", "s"),
        ("trace.unaccounted_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)


class BenchError(Exception):
    """The benchmark could not measure (build failure, harness crash)."""


def build(root):
    """Builds the harness; returns the path of its executable."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(MANIFEST)]
    try:
        done = subprocess.run(cmd, cwd=root, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"building the harness failed: {e}") from e
    if done.returncode != 0:
        raise BenchError(f"building the harness failed (exit {done.returncode})")
    return target / "release" / "perfbench-harness"


def spawn(binary, workload, seed, out, trace=False, setup_only=False):
    """Runs one harness process in a fresh `out` directory.

    Returns a dict with the process's set-up time, its rusage, and
    (unless set-up only) the harness's JSON result.
    """
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [str(binary), workload, "--seed", str(seed), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(ITERATION_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest = proc.stdout.read()
        proc.stdout.close()
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
    if proc.returncode != 0 or first.strip() != "READY":
        raise BenchError(f"{workload} harness failed (exit {proc.returncode})")
    run = {"setup_s": ready - started, "rusage": rusage}
    if not setup_only:
        lines = [l for l in rest.splitlines() if l.strip()]
        if not lines:
            raise BenchError(f"{workload} harness printed no result")
        run["result"] = json.loads(lines[-1])
    return run


def check_ops(results, expected):
    """Counts attempted and failed ops over `results` (harness results).

    An op fails when the harness marked it failed, when one of its outputs
    differs from `expected` (key -> sha256), or when it differs from the
    first digest seen for that key in `results`. Returns
    (attempted, failed, reasons, digests seen).
    """
    seen = {}
    attempted, failed, reasons = 0, 0, []
    for result in results:
        for op in result["ops"]:
            attempted += 1
            why = [] if op["ok"] else [op["why"]]
            for key, digest in op["outputs"]:
                if key in expected and expected[key] != digest:
                    why.append(f"{key}: digest differs from the recorded one")
                if seen.setdefault(key, digest) != digest:
                    why.append(f"{key}: digest differs from earlier in the run")
            if why:
                failed += 1
                reasons.extend(why)
    return attempted, failed, reasons, seen


def percentile(values, q):
    """Linear-interpolated percentile of `values`, q in [0, 1]; 0 when
    there are none."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def serve_latencies(results):
    """p50/p90 of `serve` replays and p50 of its disk replays, pooled over
    `results` (empty pools, as on the other workloads, read 0)."""
    replays = [x for r in results for x in r["replay_ms"]]
    disk = [x for r in results for x in r["disk_replay_ms"]]
    values = {
        "serve.replay_p50_ms": percentile(replays, 0.5),
        "serve.replay_p90_ms": percentile(replays, 0.9),
        "serve.disk_replay_p50_ms": percentile(disk, 0.5),
    }
    counts = {"serve.replay_p50_ms": len(replays), "serve.replay_p90_ms": len(replays),
              "serve.disk_replay_p50_ms": len(disk)}
    return values, counts


def speed(result, clock):
    """The host's speed during an iteration relative to the reference host,
    from the calibration samples around its measured phase; `clock` is
    "wall" or "cpu"."""
    return REFERENCE_UNIT_MS / statistics.mean(result[f"host_{clock}_ms"])


def cold_latencies(result, normalized):
    """The iteration's cold-query latencies in ms. Normalized, the
    computing part of each is rescaled to the reference host; the part
    spent waiting (the serve accept loop's poll sleep) does not depend on
    the host's speed and is kept as measured."""
    s = speed(result, "wall") if normalized else 1.0
    waits = result["cold_wait_ms"] or [0.0] * len(result["cold_ms"])
    return [w + (c - w) * s for c, w in zip(result["cold_ms"], waits)]


def measured_times(results):
    """The host's calibration unit and the times as measured, before
    normalization."""
    return {
        "host.unit_ms": statistics.median(x for r in results for x in r["host_wall_ms"]),
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "cpu_s": statistics.median(r["cpu_s"] for r in results),
        "cold_p50_ms": percentile(
            [x for r in results for x in cold_latencies(r, False)], 0.5),
    }


def end_to_end(runs, setups):
    """End-to-end metrics (and their sample counts) from untraced runs."""
    results = [r["result"] for r in runs]
    cold = [x for r in results for x in cold_latencies(r, True)]
    values = {
        "setup_s": statistics.median(setups),
        "norm_cpu_s": statistics.median(r["cpu_s"] * speed(r, "cpu") for r in results),
        "norm_cold_p50_ms": percentile(cold, 0.5),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    samples = {
        "setup_s": len(setups),
        "norm_cpu_s": len(results),
        "norm_cold_p50_ms": len(cold),
        "peak_rss_mb": len(results),
    }
    return values, samples


def per_layer(untraced, traced, error_rate):
    """Per-layer metrics: the traced run's layers plus executor counters,
    replay latencies, times as measured and tracing overhead from the
    untraced runs."""
    layers = dict(traced["result"]["layers"])
    results = [r["result"] for r in untraced]
    wall = statistics.median(r["wall_s"] for r in results)
    cpu = statistics.median(r["cpu_s"] for r in results)
    lookups = layers.get("cache.hits", 0) + layers.get("cache.misses", 0)
    layers.update(serve_latencies(results)[0])
    layers.update(measured_times(results))
    layers.update({
        "cache.lookups": lookups,
        "cache.hit_ratio": layers.get("cache.hits", 0) / lookups if lookups else 0.0,
        "exec.cpu_s": cpu,
        "exec.parallelism": cpu / wall,
        "exec.nonvoluntary_switches": statistics.median(
            r["rusage"].ru_nivcsw for r in untraced),
        "error_rate": error_rate,
        "trace.unaccounted_s": wall - layers.get("trace.covered_s", 0.0),
        "trace.overhead_s": layers.get("trace.total_s", 0.0) - wall,
    })
    return layers


def measure(root, workload, seed, seconds, trace, expected):
    """Runs the workload; returns the result object to print and the
    output digests the run produced."""
    binary = build(root)
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
    setups, runs, warmups = [], [], []
    try:
        if trace:
            for i in range(TRACE_UNTRACED + 1):
                runs.append(spawn(binary, workload, seed, work / f"run{i}",
                                  trace=i == TRACE_UNTRACED))
        else:
            warmups.append(spawn(binary, workload, seed, work / "warmup"))
            started = time.perf_counter()
            while len(runs) < MIN_ITERATIONS or time.perf_counter() - started < seconds:
                i = len(runs)
                setups += [spawn(binary, workload, seed, work / f"setup{i}-{k}",
                                 setup_only=True)["setup_s"]
                           for k in range(SETUP_SAMPLES)]
                runs.append(spawn(binary, workload, seed, work / f"run{i}"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass

    attempted, failed, reasons, digests = check_ops(
        [r["result"] for r in warmups + runs], expected)
    for why in sorted(set(reasons))[:20]:
        print(f"failed op: {why}")
    error_rate = failed / attempted
    print(f"ops: {attempted} attempted, {failed} failed (error_rate {error_rate:.6f})")
    reordered = sum(r["result"].get("reordered_streams", 0) for r in warmups + runs)
    if reordered:
        print(f"serve: {reordered} disk-replay streams matched their cold stream "
              "only with scenario events in index order")
    if trace:
        values = per_layer(runs[:-1], runs[-1], error_rate)
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
        for name, v in sorted(values.items()):
            print(f"layer {name} = {v}")
    else:
        values, samples = end_to_end(runs, setups + [r["setup_s"] for r in runs])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{name} = {values[name]:.6g} {unit} (n={samples[name]})")
        units = dict(PER_LAYER)
        for name, v in measured_times([r["result"] for r in runs]).items():
            print(f"{name} = {v:.6g} {units[name]} (as measured)")
        if workload == "serve":
            latencies, counts = serve_latencies([r["result"] for r in runs])
            for name, v in latencies.items():
                print(f"{name} = {v:.6g} ms (n={counts[name]})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests in expected.json "
                             "as the reference for --seed")
    args = parser.parse_args()
    root = Path.cwd()
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expected = table.get(args.workload, {}).get(str(args.seed), {})
    try:
        result, digests = measure(root, args.workload, args.seed, args.seconds,
                                  bool(args.trace), {} if args.record else expected)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if args.record and result["correct"]:
        table.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(digests.items()))
        EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

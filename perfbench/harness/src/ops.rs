//! Operations, their output digests, and the per-iteration result.
//!
//! An op is one emitted CSV (`multiminer`, `overlay`) or one HTTP request
//! (`serve`). The harness records whether each op succeeded and the
//! SHA-256 of every output it produced; `run.py` compares those digests
//! with the recorded expectations and across iterations, and counts any
//! failure or mismatch as a failed op.

use crate::host::{Measured, Sample};
use crate::json::{self, Object};
use std::path::Path;

/// One attempted operation.
pub struct Op {
    /// Whether the call succeeded and passed the harness's own checks.
    pub ok: bool,
    /// Why it failed (empty when `ok`).
    pub why: String,
    /// `(output key, sha256 hex)` for every output the op produced.
    pub outputs: Vec<(String, String)>,
}

/// Everything one iteration measured.
#[derive(Default)]
pub struct Record {
    ops: Vec<Op>,
    /// Milliseconds per cold request (the first run of each query).
    pub cold_ms: Vec<f64>,
    /// The part of each `cold_ms` spent waiting rather than computing:
    /// for `serve`, connect → first response byte, which is mostly the
    /// accept loop's poll sleep; empty for the in-process workloads.
    pub cold_wait_ms: Vec<f64>,
    /// Milliseconds per `serve` replay answered from the job table.
    pub replay_ms: Vec<f64>,
    /// Milliseconds per `serve` replay answered from the disk spill after
    /// the rebind.
    pub disk_replay_ms: Vec<f64>,
    /// Disk replays whose stream equals the cold one only after
    /// `serve::canonical` (`scenario` events in another order).
    pub reordered_streams: u64,
    /// Per-layer values from the traced run.
    pub layers: Vec<(String, f64)>,
}

impl Record {
    pub fn ok(&mut self, outputs: Vec<(String, String)>) {
        self.ops.push(Op {
            ok: true,
            why: String::new(),
            outputs,
        });
    }

    pub fn fail(&mut self, why: impl Into<String>, outputs: Vec<(String, String)>) {
        self.ops.push(Op {
            ok: false,
            why: why.into(),
            outputs,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_owned(), value));
    }

    /// Records one op per CSV in `names`, digesting each file under
    /// `dir`; `call` is the result of the call that should have written
    /// them.
    pub fn csv_ops<E: std::fmt::Display>(
        &mut self,
        dir: &Path,
        names: &[String],
        call: &Result<(), E>,
        check: impl Fn(&str, &str) -> Result<(), String>,
    ) {
        for name in names {
            let file = format!("{name}.csv");
            if let Err(e) = call {
                self.fail(format!("{file}: call failed: {e}"), Vec::new());
                continue;
            }
            match std::fs::read(dir.join(&file)) {
                Ok(bytes) => {
                    let outputs = vec![(format!("csv:{file}"), sha_hex(&bytes))];
                    let text = String::from_utf8_lossy(&bytes);
                    match check(name, &text) {
                        Ok(()) => self.ok(outputs),
                        Err(why) => self.fail(format!("{file}: {why}"), outputs),
                    }
                }
                Err(e) => self.fail(format!("{file}: not readable: {e}"), Vec::new()),
            }
        }
    }

    /// The iteration's result line.
    pub fn to_json(&self, m: &Measured) -> String {
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|op| {
                let outputs: Vec<String> = op
                    .outputs
                    .iter()
                    .map(|(k, d)| format!("[{},{}]", json::string(k), json::string(d)))
                    .collect();
                let mut o = Object::default();
                o.raw("ok", op.ok.to_string())
                    .str("why", &op.why)
                    .raw("outputs", format!("[{}]", outputs.join(",")));
                o.finish()
            })
            .collect();
        let mut layers = Object::default();
        for (name, value) in &self.layers {
            layers.num(name, *value);
        }
        let host = |f: fn(&Sample) -> f64| json::numbers(&m.host.map(|s| f(&s)));
        let mut o = Object::default();
        o.num("wall_s", m.wall_s)
            .num("cpu_s", m.cpu_s)
            .raw("host_wall_ms", host(|s| s.wall_ms))
            .raw("host_cpu_ms", host(|s| s.cpu_ms))
            .num("peak_rss_mb", peak_rss_mb())
            .raw("cold_ms", json::numbers(&self.cold_ms))
            .raw("cold_wait_ms", json::numbers(&self.cold_wait_ms))
            .raw("replay_ms", json::numbers(&self.replay_ms))
            .raw("disk_replay_ms", json::numbers(&self.disk_replay_ms))
            .raw("ops", format!("[{}]", ops.join(",")))
            .raw("reordered_streams", self.reordered_streams.to_string())
            .raw("layers", layers.finish());
        o.finish()
    }
}

/// Lower-case hex SHA-256 of `bytes`.
pub fn sha_hex(bytes: &[u8]) -> String {
    chain_sim::sha256(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Peak resident set (`VmHWM`) of this process, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib * 1024.0 / 1e6)
}

/// Parses every data row of a CSV written by `report::write_csv` into
/// numbers, rejecting empty tables and non-numeric or non-finite cells.
pub fn csv_rows(text: &str) -> Result<Vec<Vec<f64>>, String> {
    let rows: Vec<Vec<f64>> = text
        .lines()
        .skip(1)
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.split(',')
                .map(|c| {
                    c.trim()
                        .parse::<f64>()
                        .map_err(|_| format!("bad cell {c:?}"))
                })
                .collect::<Result<Vec<f64>, String>>()
        })
        .collect::<Result<_, _>>()?;
    if rows.is_empty() {
        return Err("no data rows".to_owned());
    }
    if rows.iter().flatten().any(|v| !v.is_finite()) {
        return Err("non-finite value".to_owned());
    }
    Ok(rows)
}

/// Sizes of the CSVs in `dir` (the `bench::report` layer's output).
pub fn report_files(dir: &Path) -> (usize, u64) {
    let Ok(read) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    read.flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
        .fold((0, 0), |(n, bytes), e| {
            (n + 1, bytes + e.metadata().map_or(0, |m| m.len()))
        })
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

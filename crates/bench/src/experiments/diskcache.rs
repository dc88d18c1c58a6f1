//! Content-addressed on-disk spill of [`EnsembleSummary`] values.
//!
//! The in-memory [`super::SweepCache`] dies with the process; this module
//! persists every computed ensemble under `results/.cache/` so repeated
//! `repro` invocations (and `repro scenario` runs over the same grids)
//! reuse ensembles across processes. Files are keyed by a versioned
//! [`StableHasher`] digest of the full ensemble key *including the master
//! seed* (`spill_hasher` starts every one), so a `--seed` change can
//! never serve stale trajectories.
//!
//! The format is a small line-oriented text encoding (consistent with the
//! repo's no-real-serde dependency policy). `f64` values are printed with
//! Rust's shortest round-tripping representation and re-parsed bit-exactly,
//! so a disk hit is byte-identical to recomputation — the `--jobs`
//! determinism guarantee survives persistence.
//!
//! Loading is corruption-tolerant by construction: any malformed,
//! truncated or version-skewed file decodes to `None` and the ensemble is
//! simply recomputed (and the file rewritten). A cache directory can be
//! deleted, garbled or half-written by a crashed process without ever
//! affecting results.

use fairness_core::montecarlo::{BandPoint, EnsembleSummary};
use fairness_stats::cache::StableHasher;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Format tag; bump to invalidate every existing spill file.
const MAGIC: &str = "fairness-ensemble v1";

/// Simulation-behavior revision, mixed into every spill digest alongside
/// the crate version. **Bump this whenever a change alters what any
/// ensemble or hash-level system summary computes** — a protocol's
/// `step_into` law, `run_ensemble`, chain-sim lotteries, summarization,
/// RNG streams — so stale spills from the previous behavior are orphaned
/// instead of served. (Pure format changes bump
/// [`MAGIC`] instead; releases invalidate automatically via the crate
/// version.) The cache is an optimization only: `--no-disk-cache` or
/// deleting `results/.cache/` always yields ground truth, and CI runs
/// cold.
const SIMULATION_REVISION: u64 = 1;

/// Starts a spill digest: `domain` (what kind of entry, with its own
/// format revision), the crate version and [`SIMULATION_REVISION`]. The
/// caller mixes in the entry's content and finishes. Every spill key
/// starts from here, so a release or a simulation-behavior bump orphans
/// every existing spill rather than serving stale results, and distinct
/// domains can never name each other's files.
#[must_use]
pub(crate) fn spill_hasher(domain: &str) -> StableHasher {
    let mut h = StableHasher::new();
    h.write_str(domain);
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_u64(SIMULATION_REVISION);
    h
}

/// The spill path for a digest.
#[must_use]
pub(crate) fn entry_path(dir: &Path, digest: u64) -> PathBuf {
    dir.join(format!("{digest:016x}.ens"))
}

/// Serializes a summary in the spill format.
#[must_use]
pub(crate) fn encode(summary: &EnsembleSummary) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    out.push_str(&format!("protocol {}\n", summary.protocol));
    out.push_str(&format!("share {}\n", summary.share));
    out.push_str(&format!("repetitions {}\n", summary.repetitions));
    out.push_str(&format!("points {}\n", summary.points.len()));
    for p in &summary.points {
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            p.n, p.mean, p.p05, p.p95, p.unfair_probability
        ));
    }
    out
}

/// Parses the spill format; `None` on any structural problem.
#[must_use]
pub(crate) fn decode(text: &str) -> Option<EnsembleSummary> {
    let mut lines = text.lines();
    if lines.next()? != MAGIC {
        return None;
    }
    let protocol = lines.next()?.strip_prefix("protocol ")?.to_owned();
    let share: f64 = lines.next()?.strip_prefix("share ")?.parse().ok()?;
    let repetitions: usize = lines.next()?.strip_prefix("repetitions ")?.parse().ok()?;
    let count: usize = lines.next()?.strip_prefix("points ")?.parse().ok()?;
    let mut points = Vec::with_capacity(count);
    for _ in 0..count {
        let line = lines.next()?;
        let mut fields = line.split(' ');
        let point = BandPoint {
            n: fields.next()?.parse().ok()?,
            mean: fields.next()?.parse().ok()?,
            p05: fields.next()?.parse().ok()?,
            p95: fields.next()?.parse().ok()?,
            unfair_probability: fields.next()?.parse().ok()?,
        };
        if fields.next().is_some() {
            return None;
        }
        points.push(point);
    }
    if lines.next().is_some() {
        return None;
    }
    Some(EnsembleSummary {
        protocol,
        share,
        repetitions,
        points,
    })
}

/// Loads the spilled summary for `digest`, or `None` when absent or
/// corrupt.
#[must_use]
pub(crate) fn load(dir: &Path, digest: u64) -> Option<EnsembleSummary> {
    let text = fs::read_to_string(entry_path(dir, digest)).ok()?;
    decode(&text)
}

/// Spills `summary` under `digest`, best-effort: a full disk or unwritable
/// directory only costs the reuse, never the run. The write goes through a
/// temporary sibling plus rename so concurrent writers (two `repro`
/// processes on one grid, or two threads of one daemon) can never
/// interleave a torn file.
pub(crate) fn store(dir: &Path, digest: u64, summary: &EnsembleSummary) {
    let _ = try_store(dir, digest, summary);
}

/// Serial number distinguishing concurrent writers *within* one process.
/// The pid alone is not enough: two daemon worker threads spilling the
/// same digest would share one tmp path, and the loser's rename could
/// publish the winner's half-truncated rewrite.
static TMP_SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn try_store(dir: &Path, digest: u64, summary: &EnsembleSummary) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let final_path = entry_path(dir, digest);
    let serial = TMP_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp_path = dir.join(format!("{digest:016x}.tmp{}-{serial}", std::process::id()));
    {
        let mut file = fs::File::create(&tmp_path)?;
        file.write_all(encode(summary).as_bytes())?;
    }
    let renamed = fs::rename(&tmp_path, &final_path);
    if renamed.is_err() {
        let _ = fs::remove_file(&tmp_path);
    }
    renamed
}

// ---------------------------------------------------------------------------
// Maintenance: the `repro cache` subcommand.
// ---------------------------------------------------------------------------

/// What a [`scan`] of a spill directory found.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CacheScan {
    /// Decodable spill entries.
    pub entries: usize,
    /// Bytes across decodable entries.
    pub bytes: u64,
    /// Spill files that failed to decode (corrupt, truncated, or written
    /// by an older format — all served as misses and safe to delete).
    pub corrupt: Vec<PathBuf>,
    /// Leftover temporary files from interrupted writers.
    pub temporaries: Vec<PathBuf>,
}

impl CacheScan {
    /// Files [`prune`] would remove.
    #[must_use]
    pub fn removable(&self) -> usize {
        self.corrupt.len() + self.temporaries.len()
    }
}

/// Scans a spill directory, decoding every entry — the engine behind
/// `repro cache stats` and `repro cache verify`. A missing directory
/// scans as empty (a cold cache is not an error).
///
/// # Errors
/// Returns any I/O error from listing the directory or statting files
/// (decode failures are reported in the scan, not as errors).
pub fn scan(dir: &Path) -> std::io::Result<CacheScan> {
    let mut scan = CacheScan::default();
    let read = match fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(scan),
        Err(e) => return Err(e),
    };
    for entry in read {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".ens") {
            let decodable = fs::read_to_string(&path)
                .ok()
                .and_then(|text| decode(&text))
                .is_some();
            if decodable {
                scan.entries += 1;
                scan.bytes += entry.metadata()?.len();
            } else {
                scan.corrupt.push(path);
            }
        } else if name.contains(".tmp") {
            scan.temporaries.push(path);
        }
    }
    scan.corrupt.sort();
    scan.temporaries.sort();
    Ok(scan)
}

/// Removes every corrupt entry and leftover temporary a [`scan`] found,
/// returning how many files were deleted — `repro cache prune`. Healthy
/// entries are never touched; the cache stays a pure optimization.
///
/// # Errors
/// Returns the first deletion error.
pub fn prune(dir: &Path) -> std::io::Result<usize> {
    let scan = scan(dir)?;
    let mut removed = 0;
    for path in scan.corrupt.iter().chain(&scan.temporaries) {
        fs::remove_file(path)?;
        removed += 1;
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EnsembleSummary {
        EnsembleSummary {
            protocol: "selfish-mining(PoW)".to_owned(),
            share: 0.2,
            repetitions: 40,
            points: vec![
                BandPoint {
                    n: 100,
                    mean: 0.2000000000000001,
                    p05: 0.05,
                    p95: 0.35,
                    unfair_probability: 0.5,
                },
                BandPoint {
                    n: 1_000_000,
                    mean: 1e-12,
                    p05: 0.0,
                    p95: f64::MIN_POSITIVE,
                    unfair_probability: 1.0,
                },
            ],
        }
    }

    #[test]
    fn encode_decode_is_bit_exact() {
        let summary = sample();
        let decoded = decode(&encode(&summary)).expect("round-trips");
        assert_eq!(summary, decoded);
        // Including awkward shortest-representation floats.
        assert_eq!(
            decoded.points[0].mean.to_bits(),
            summary.points[0].mean.to_bits()
        );
        assert_eq!(
            decoded.points[1].p95.to_bits(),
            summary.points[1].p95.to_bits()
        );
    }

    #[test]
    fn store_load_round_trip() {
        let dir = std::env::temp_dir().join("fairness-diskcache-roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let summary = sample();
        assert!(load(&dir, 7).is_none(), "empty cache misses");
        store(&dir, 7, &summary);
        assert_eq!(load(&dir, 7), Some(summary));
        assert!(load(&dir, 8).is_none(), "other digests still miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_load_as_none() {
        let dir = std::env::temp_dir().join("fairness-diskcache-corrupt");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let cases: &[&str] = &[
            "",
            "garbage",
            "fairness-ensemble v0\nprotocol x\nshare 0.2\nrepetitions 1\npoints 0\n",
            // Truncated points section.
            "fairness-ensemble v1\nprotocol x\nshare 0.2\nrepetitions 1\npoints 2\n1 0.2 0.1 0.3 0\n",
            // Non-numeric field.
            "fairness-ensemble v1\nprotocol x\nshare 0.2\nrepetitions 1\npoints 1\n1 zzz 0.1 0.3 0\n",
            // Trailing junk.
            "fairness-ensemble v1\nprotocol x\nshare 0.2\nrepetitions 1\npoints 1\n1 0.2 0.1 0.3 0\nextra\n",
            // Extra column.
            "fairness-ensemble v1\nprotocol x\nshare 0.2\nrepetitions 1\npoints 1\n1 0.2 0.1 0.3 0 9\n",
        ];
        for (i, case) in cases.iter().enumerate() {
            fs::write(entry_path(&dir, i as u64), case).expect("write");
            assert!(load(&dir, i as u64).is_none(), "case {i} must be rejected");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_and_prune_report_and_heal_the_directory() {
        let dir = std::env::temp_dir().join("fairness-diskcache-scan");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(
            scan(&dir).expect("missing dir scans empty"),
            CacheScan::default()
        );
        store(&dir, 1, &sample());
        store(&dir, 2, &sample());
        fs::write(entry_path(&dir, 3), "garbage").expect("write");
        fs::write(dir.join("00000000000000ff.tmp1234"), "torn").expect("write");
        let s = scan(&dir).expect("scan");
        assert_eq!(s.entries, 2);
        assert!(s.bytes > 0);
        assert_eq!(s.corrupt.len(), 1);
        assert_eq!(s.temporaries.len(), 1);
        assert_eq!(s.removable(), 2);
        assert_eq!(prune(&dir).expect("prune"), 2);
        let healed = scan(&dir).expect("rescan");
        assert_eq!(healed.entries, 2, "healthy entries untouched");
        assert_eq!(healed.removable(), 0);
        assert_eq!(load(&dir, 1), Some(sample()), "entries still serve");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_entry_never_tear() {
        // Regression: tmp names used to be keyed by pid alone, so two
        // threads of one process racing on the same digest shared a tmp
        // path — one writer could rename the other's in-progress file.
        // With per-writer serials, every store is an atomic publish of a
        // complete file: after any interleaving the entry must decode to
        // one of the written summaries, and no temporaries may linger.
        let dir = std::env::temp_dir().join("fairness-diskcache-race");
        let _ = fs::remove_dir_all(&dir);
        let digest = 0xbeef;
        std::thread::scope(|scope| {
            for t in 0..8 {
                let dir = &dir;
                scope.spawn(move || {
                    let mut summary = sample();
                    summary.share = f64::from(t) / 8.0;
                    for _ in 0..50 {
                        store(dir, digest, &summary);
                    }
                });
            }
        });
        let loaded = load(&dir, digest).expect("entry must decode after the race");
        assert!(
            (0..8).any(|t| loaded.share == f64::from(t) / 8.0),
            "entry is a complete write from one racer, got share {}",
            loaded.share
        );
        let s = scan(&dir).expect("scan");
        assert_eq!(s.entries, 1);
        assert!(
            s.temporaries.is_empty(),
            "no orphaned temporaries: {:?}",
            s.temporaries
        );
        assert!(s.corrupt.is_empty(), "no torn files: {:?}", s.corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_overwrites_corruption() {
        let dir = std::env::temp_dir().join("fairness-diskcache-heal");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(entry_path(&dir, 3), "garbage").expect("write");
        assert!(load(&dir, 3).is_none());
        let summary = sample();
        store(&dir, 3, &summary);
        assert_eq!(load(&dir, 3), Some(summary), "rewrite heals the entry");
        let _ = fs::remove_dir_all(&dir);
    }
}

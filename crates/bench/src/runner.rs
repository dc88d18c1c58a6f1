//! Executing declarative scenarios over the shared pool and sweep cache.
//!
//! [`run_scenarios`] is the inversion point of the bench layer: every
//! figure module emits `Vec<ScenarioSpec>` and formats the outcomes, and
//! user-authored `.scn` files run through exactly the same path (`repro
//! scenario <file>`). Protocols are constructed via
//! [`fairness_core::registry`], ensembles are memoized in the
//! content-addressed [`crate::experiments::SweepCache`] (in-memory and,
//! by default, on disk), and sweep points drain from the shared
//! [`crate::pool::JobPool`] — so any spec run is bit-identical for every
//! `--jobs` level, exactly like the built-in figures.

use crate::experiments::common::band_rows;
use crate::experiments::diskcache;
use crate::report::{fmt4, write_csv, TextTable};
use crate::service::{ProgressEvent, SweepSession};
use chain_sim::{run_experiment, ExperimentConfig, ProtocolKind};
use fairness_core::fairness::EpsilonDelta;
use fairness_core::montecarlo::{summarize, EnsembleConfig, EnsembleSummary};
use fairness_core::protocol::IncentiveProtocol;
use fairness_core::registry;
use fairness_core::scenario::{ScenarioSpec, ValidationError};
use fairness_core::withholding::WithholdingSchedule;
use fairness_stats::mc::{run_monte_carlo, McConfig};
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::sync::{Arc, Mutex};

/// Why a scenario batch could not run (or finish).
///
/// Every variant carries a stable machine-readable [`code`](Self::code)
/// so the daemon can answer with typed errors while the CLI keeps its
/// human-readable messages (`Display` is unchanged wire-for-wire for the
/// variants that predate the service API).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A spec failed [`ScenarioSpec::validate`].
    Invalid {
        /// The offending scenario's name.
        scenario: String,
        /// The violated invariant, typed.
        error: ValidationError,
    },
    /// The registry rejected a protocol description.
    Registry {
        /// The offending scenario's name.
        scenario: String,
        /// The construction error.
        error: registry::RegistryError,
    },
    /// A `system` cross-check names an engine `chain-sim` does not have.
    UnknownEngine {
        /// The offending scenario's name.
        scenario: String,
        /// The unknown engine name.
        engine: String,
    },
    /// A `system` cross-check would put more atoms in circulation than
    /// its `u64` ledger can count.
    SupplyOverflow {
        /// The offending scenario's name.
        scenario: String,
        /// The protocol's reward per block, as a fraction of the initial
        /// circulation.
        reward: f64,
        /// The cross-check's horizon in blocks (epochs for C-PoS).
        horizon: u64,
    },
    /// Two scenario names collapse to the same CSV stem.
    SlugCollision {
        /// The first scenario claiming the stem.
        first: String,
        /// The second scenario claiming the stem.
        second: String,
        /// The contested stem.
        slug: String,
    },
    /// The driving job was cancelled before the batch finished.
    Cancelled,
    /// Writing a result CSV failed.
    Io {
        /// The rendered I/O error.
        message: String,
    },
    /// The batch panicked: a bug in simulation or report code, not in the
    /// request. The service contains it, fails the job with this error and
    /// keeps serving.
    Panicked {
        /// The panic's payload message.
        message: String,
    },
}

impl ScenarioError {
    /// Stable kebab-case identifier for wire responses. Spec-validation
    /// failures surface the violated invariant's own code
    /// ([`ValidationError::code`], e.g. `duplicate-param`); the others are
    /// `registry`, `unknown-engine`, `supply-overflow`, `slug-collision`,
    /// `cancelled`, `io`, and `internal-panic` for a batch that panicked.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ScenarioError::Invalid { error, .. } => error.code(),
            ScenarioError::Registry { .. } => "registry",
            ScenarioError::UnknownEngine { .. } => "unknown-engine",
            ScenarioError::SupplyOverflow { .. } => "supply-overflow",
            ScenarioError::SlugCollision { .. } => "slug-collision",
            ScenarioError::Cancelled => "cancelled",
            ScenarioError::Io { .. } => "io",
            ScenarioError::Panicked { .. } => "internal-panic",
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Invalid { scenario, error } => {
                write!(f, "scenario \"{scenario}\": {error}")
            }
            ScenarioError::Registry { scenario, error } => {
                write!(f, "scenario \"{scenario}\": {error}")
            }
            ScenarioError::UnknownEngine { scenario, engine } => write!(
                f,
                "scenario \"{scenario}\": unknown system engine `{engine}` \
                 (expected pow, ml-pos, sl-pos, fsl-pos or c-pos)"
            ),
            ScenarioError::SupplyOverflow {
                scenario,
                reward,
                horizon,
            } => write!(
                f,
                "scenario \"{scenario}\": the hash-level cross-check would issue more \
                 than u64::MAX atoms (w = {reward} over {horizon} blocks); lower w or \
                 the system horizon"
            ),
            ScenarioError::SlugCollision {
                first,
                second,
                slug,
            } => write!(
                f,
                "scenarios \"{first}\" and \"{second}\" both write scn_{slug}.csv — rename one"
            ),
            ScenarioError::Cancelled => write!(f, "job cancelled before the batch finished"),
            ScenarioError::Io { message } => write!(f, "writing results failed: {message}"),
            ScenarioError::Panicked { message } => {
                write!(f, "internal error: the batch panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<ScenarioError> for io::Error {
    fn from(e: ScenarioError) -> Self {
        let kind = match &e {
            ScenarioError::Io { .. } => io::ErrorKind::Other,
            ScenarioError::Cancelled => io::ErrorKind::Interrupted,
            _ => io::ErrorKind::InvalidInput,
        };
        io::Error::new(kind, e.to_string())
    }
}

/// The result of one executed scenario.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The constructed protocol's display label (`selfish-mining(PoW)`).
    pub label: String,
    /// The memoized closed-form ensemble.
    pub summary: Arc<EnsembleSummary>,
    /// The hash-level cross-check, when the spec requested one and the
    /// run has `--system` enabled.
    pub system: Option<EnsembleSummary>,
}

/// Registry-style engine names accepted by [`SystemSpec::engine`]
/// (`fairness_core::scenario::SystemSpec`).
const ENGINES: [(ProtocolKind, &str); 5] = [
    (ProtocolKind::Pow, "pow"),
    (ProtocolKind::MlPos, "ml-pos"),
    (ProtocolKind::SlPos, "sl-pos"),
    (ProtocolKind::FslPos, "fsl-pos"),
    (ProtocolKind::CPos, "c-pos"),
];

fn resolve_engine(name: &str) -> Option<ProtocolKind> {
    ENGINES
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(kind, _)| *kind)
}

/// One fully resolved scenario, ready to execute.
struct Resolved {
    protocol: registry::BoxedProtocol,
    shares: Vec<f64>,
    checkpoints: Vec<u64>,
    repetitions: usize,
    withholding: Option<WithholdingSchedule>,
    system: Option<(ProtocolKind, u64, u64)>,
}

fn resolve(ctx: &SweepSession, spec: &ScenarioSpec) -> Result<Resolved, ScenarioError> {
    spec.validate().map_err(|error| ScenarioError::Invalid {
        scenario: spec.name.clone(),
        error,
    })?;
    let shares = spec.initial_shares();
    let protocol =
        registry::construct(&spec.protocol, &shares).map_err(|error| ScenarioError::Registry {
            scenario: spec.name.clone(),
            error,
        })?;
    let system = match &spec.system {
        None => None,
        Some(system) => {
            let kind =
                resolve_engine(&system.engine).ok_or_else(|| ScenarioError::UnknownEngine {
                    scenario: spec.name.clone(),
                    engine: system.engine.clone(),
                })?;
            let reward = protocol.reward_per_step();
            let (_, config) = system_config(&shares, reward, kind, system.horizon);
            if config.max_supply().is_none() {
                return Err(ScenarioError::SupplyOverflow {
                    scenario: spec.name.clone(),
                    reward,
                    horizon: system.horizon,
                });
            }
            Some((kind, system.horizon, system.salt))
        }
    };
    Ok(Resolved {
        protocol,
        shares,
        checkpoints: spec.checkpoints.resolve(),
        repetitions: spec.repetitions.unwrap_or(ctx.opts.repetitions),
        withholding: spec.withholding.map(WithholdingSchedule::every),
        system,
    })
}

/// The two-miner network a `system` cross-check runs, with miner A's
/// share of the population.
fn system_config(
    shares: &[f64],
    reward: f64,
    kind: ProtocolKind,
    horizon: u64,
) -> (f64, ExperimentConfig) {
    let a = shares[0] / shares.iter().sum::<f64>();
    (a, ExperimentConfig::two_miner(kind, a, reward, horizon))
}

/// Runs a hash-level cross-check exactly the way the figure modules always
/// have: a two-miner chain-sim network at `--system-reps` scale, seeded by
/// `master seed ⊕ salt`, summarized over the engine's checkpoint grid.
///
/// Like closed-form ensembles, system summaries spill through the shared
/// disk cache: the summary is a deterministic function of the digested
/// configuration, so repeated invocations reuse it bit-exactly instead of
/// re-grinding the hash-level network.
///
/// A repetition at the 10⁵-block cap takes about a second, so the
/// session's cancellation is checked before each one: a cancelled
/// cross-check stops once the repetitions in flight finish and returns
/// [`ScenarioError::Cancelled`], spilling nothing.
fn run_system(
    ctx: &SweepSession,
    resolved: &Resolved,
    kind: ProtocolKind,
    horizon: u64,
    salt: u64,
) -> Result<EnsembleSummary, ScenarioError> {
    let opts = ctx.opts;
    let (a, config) = system_config(
        &resolved.shares,
        resolved.protocol.reward_per_step(),
        kind,
        horizon,
    );
    let digest = {
        let mut h = diskcache::spill_hasher("system-spill-v1");
        h.write_str(kind.name());
        h.write_u64(a.to_bits());
        h.write_u64(resolved.protocol.reward_per_step().to_bits());
        h.write_u64(horizon);
        h.write_u64(opts.system_repetitions as u64);
        h.write_u64(opts.seed ^ salt);
        h.write_u64(resolved.shares.len() as u64);
        for &s in &resolved.shares {
            h.write_u64(s.to_bits());
        }
        h.finish()
    };
    ctx.cache.try_system_summary(
        digest,
        |spilled| {
            spilled.repetitions == opts.system_repetitions
                && spilled.protocol == kind.name()
                && spilled.points.len() == config.checkpoints.len()
                && spilled
                    .points
                    .iter()
                    .zip(&config.checkpoints)
                    .all(|(p, &n)| p.n == n)
        },
        || {
            let trajectories = run_monte_carlo(
                McConfig::new(opts.system_repetitions, opts.seed ^ salt),
                |_i, rng| (!ctx.is_cancelled()).then(|| run_experiment(&config, rng).lambda_series),
            )
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or(ScenarioError::Cancelled)?;
            let ec = EnsembleConfig {
                initial_shares: resolved.shares.clone(),
                checkpoints: config.checkpoints.clone(),
                repetitions: opts.system_repetitions,
                seed: opts.seed ^ salt,
                eps_delta: EpsilonDelta::default(),
                withholding: None,
            };
            Ok(summarize(kind.name(), &ec, &trajectories))
        },
    )
}

/// Executes `specs` over the context's pool and sweep cache, returning
/// outcomes in spec order. All specs are validated and their protocols
/// constructed **before** any simulation starts, so errors are cheap.
///
/// Determinism: every ensemble seed derives from the spec's semantic
/// content (via the sweep-cache key of the constructed protocol), so the
/// outcome of each scenario is independent of `--jobs`, scheduling, and
/// whichever other scenarios run in the same process. Its
/// [`ProgressEvent::Scenario`] events are emitted in index order.
///
/// # Errors
/// Returns the first [`ScenarioError`] across the batch, or
/// [`ScenarioError::Cancelled`] when the session's driving job was
/// cancelled mid-batch (already-finished scenarios stay cached, so a
/// resubmission resumes where the cancel landed).
pub fn run_scenarios(
    ctx: &SweepSession,
    specs: &[ScenarioSpec],
) -> Result<Vec<ScenarioOutcome>, ScenarioError> {
    let resolved: Vec<Resolved> = specs
        .iter()
        .map(|spec| resolve(ctx, spec))
        .collect::<Result<_, _>>()?;
    if ctx.is_cancelled() {
        return Err(ScenarioError::Cancelled);
    }
    // `scenario` events leave in index order, each once every lower index
    // has finished, so the stream is the same at any `--jobs`: (next index
    // to emit, finished events waiting for it).
    let unsent: Mutex<(usize, Vec<Option<ProgressEvent>>)> =
        Mutex::new((0, vec![None; resolved.len()]));
    let outcomes = ctx.pool.par_map(resolved.len(), |i| {
        // Cancellation is observed between scenarios and between the
        // repetitions of an ensemble or a cross-check, never inside one
        // repetition: a finished point is always a valid cache entry, and
        // a cancelled ensemble or cross-check leaves none.
        if ctx.is_cancelled() {
            return None;
        }
        let r = &resolved[i];
        let summary = ctx
            .cache
            .try_ensemble(
                &r.protocol,
                &r.shares,
                &r.checkpoints,
                r.repetitions,
                r.withholding,
                || ctx.is_cancelled(),
            )
            .ok()?;
        let system = match (ctx.opts.with_system, r.system) {
            (true, Some((kind, horizon, salt))) => {
                Some(run_system(ctx, r, kind, horizon, salt).ok()?)
            }
            _ => None,
        };
        let mut guard = unsent.lock().expect("scenario event lock");
        let (next, finished) = &mut *guard;
        finished[i] = Some(ProgressEvent::Scenario {
            index: i,
            name: specs[i].name.clone(),
            fingerprint: specs[i].fingerprint(),
        });
        while let Some(event) = finished.get_mut(*next).and_then(Option::take) {
            ctx.emit(event);
            *next += 1;
        }
        drop(guard);
        Some(ScenarioOutcome {
            label: r.protocol.label(),
            summary,
            system,
        })
    });
    outcomes
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or(ScenarioError::Cancelled)
}

/// Runs a spec batch and renders the standard report: per scenario, a band
/// table plus a `scn_<slug>.csv` under the results directory (and a
/// `scn_<slug>_system.csv` for hash-level cross-checks). This is what
/// `repro scenario <file>` prints, and its CSVs obey the same
/// byte-determinism contract as every figure.
///
/// # Errors
/// Returns a typed [`ScenarioError`] for resolution failures, slug
/// collisions, cancellation, and (as [`ScenarioError::Io`]) CSV write
/// failures. CLI callers keep the old behaviour through
/// `From<ScenarioError> for io::Error`.
pub fn scenario_report(
    ctx: &SweepSession,
    specs: &[ScenarioSpec],
) -> Result<String, ScenarioError> {
    // Scenario names become CSV stems: two names collapsing to one slug
    // would silently overwrite each other's output, so reject up front.
    let mut slugs: Vec<(String, &str)> = Vec::with_capacity(specs.len());
    for spec in specs {
        let slug = spec.slug();
        if let Some((_, first)) = slugs.iter().find(|(s, _)| *s == slug) {
            return Err(ScenarioError::SlugCollision {
                first: (*first).to_owned(),
                second: spec.name.clone(),
                slug,
            });
        }
        slugs.push((slug, &spec.name));
    }
    let outcomes = run_scenarios(ctx, specs)?;
    let opts = ctx.opts;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scenario run — {} scenario(s), default {} repetitions",
        specs.len(),
        opts.repetitions
    );
    for (spec, outcome) in specs.iter().zip(&outcomes) {
        let slug = spec.slug();
        let path = write_csv(
            &opts.results_dir,
            &format!("scn_{slug}"),
            &["n", "mean", "p05", "p95", "unfair"],
            &band_rows(&outcome.summary),
        )
        .map_err(|e| ScenarioError::Io {
            message: e.to_string(),
        })?;
        let last = outcome.summary.final_point();
        let _ = writeln!(
            out,
            "\n\"{}\" — {} on shares {:?}, {} repetitions  csv: {}",
            spec.name,
            outcome.label,
            spec.initial_shares(),
            outcome.summary.repetitions,
            path.display()
        );
        let mut t = TextTable::new(vec!["n", "mean", "p05", "p95", "unfair"]);
        let step = (outcome.summary.points.len() / 6).max(1);
        for p in outcome.summary.points.iter().step_by(step) {
            t.row(vec![
                p.n.to_string(),
                fmt4(p.mean),
                fmt4(p.p05),
                fmt4(p.p95),
                fmt4(p.unfair_probability),
            ]);
        }
        out.push_str(&t.render());
        let _ = writeln!(
            out,
            "final: mean={} band=[{}, {}] unfair={}  fingerprint: {:016x}",
            fmt4(last.mean),
            fmt4(last.p05),
            fmt4(last.p95),
            fmt4(last.unfair_probability),
            spec.fingerprint()
        );
        if let Some(system) = &outcome.system {
            let sys_path = write_csv(
                &opts.results_dir,
                &format!("scn_{slug}_system"),
                &["n", "mean", "p05", "p95", "unfair"],
                &band_rows(system),
            )
            .map_err(|e| ScenarioError::Io {
                message: e.to_string(),
            })?;
            let sys_last = system.final_point();
            let _ = writeln!(
                out,
                "hash-level {}: n={} mean={} band=[{}, {}]  csv: {}",
                system.protocol,
                sys_last.n,
                fmt4(sys_last.mean),
                fmt4(sys_last.p05),
                fmt4(sys_last.p95),
                sys_path.display()
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testutil::tiny_service;
    use crate::experiments::SweepService;
    use fairness_core::prelude::*;
    use fairness_core::scenario::ProtocolSpec;

    fn spec(name: &str, protocol: ProtocolSpec) -> ScenarioSpec {
        ScenarioSpec::builder(name, protocol)
            .two_miner(0.2)
            .explicit(vec![50, 100])
            .repetitions(40)
            .build()
    }

    #[test]
    fn spec_run_equals_hand_built_run() {
        // The whole point of the runner: routing through ScenarioSpec +
        // registry must reproduce the hand-constructed path bit-exactly,
        // sharing the same cache slot.
        let h = tiny_service("runner-equiv");
        let ctx = h.session();
        let outcomes = run_scenarios(
            &ctx,
            &[spec("ml", ProtocolSpec::new("ml-pos").with("w", 0.01))],
        )
        .expect("runs");
        let direct = ctx.ensemble_with(&MlPos::new(0.01), &two_miner(0.2), &[50, 100], 40, None);
        assert_eq!(*outcomes[0].summary, *direct);
        assert_eq!(h.cache().hits(), 1, "one computation, shared");
    }

    #[test]
    fn outcomes_keep_spec_order_and_memoize_duplicates() {
        let h = tiny_service("runner-order");
        let specs: Vec<ScenarioSpec> = [0.1, 0.2, 0.1]
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                ScenarioSpec::builder(
                    format!("sl a={a} #{i}"),
                    ProtocolSpec::new("sl-pos").with("w", 0.01),
                )
                .two_miner(a)
                .explicit(vec![100])
                .repetitions(30)
                .build()
            })
            .collect();
        let outcomes = run_scenarios(&h.session(), &specs).expect("runs");
        assert_eq!(outcomes.len(), 3);
        assert_eq!(outcomes[0].summary.share, 0.1);
        assert_eq!(outcomes[1].summary.share, 0.2);
        assert_eq!(*outcomes[0].summary, *outcomes[2].summary);
        assert_eq!(h.cache().misses(), 2, "duplicate spec shares one slot");
    }

    #[test]
    fn withholding_flows_through() {
        let h = tiny_service("runner-withholding");
        let base = ScenarioSpec::builder("fsl", ProtocolSpec::new("fsl-pos").with("w", 0.01))
            .two_miner(0.2)
            .explicit(vec![2000])
            .repetitions(60)
            .build();
        let mut withheld = base.clone();
        withheld.withholding = Some(500);
        let outcomes = run_scenarios(&h.session(), &[base, withheld]).expect("runs");
        assert!(
            outcomes[1].summary.final_point().unfair_probability
                < outcomes[0].summary.final_point().unfair_probability,
            "withholding must improve robust fairness"
        );
    }

    #[test]
    fn system_summaries_spill_through_the_disk_cache() {
        // Two harnesses over one results dir model two invocations: the
        // second must serve both the ensemble *and* the hash-level system
        // summary from disk, bit-exactly.
        let dir = std::env::temp_dir().join("fairness-bench-system-spill");
        let _ = std::fs::remove_dir_all(&dir);
        let opts = crate::ReproOptions {
            repetitions: 30,
            system_repetitions: 2,
            seed: 11,
            results_dir: dir.clone(),
            with_system: true,
            jobs: 1,
            max_miners: 10,
            disk_cache: true,
        };
        let mut with_system = spec("pow-sys", ProtocolSpec::new("pow").with("w", 0.01));
        with_system.system = Some(fairness_core::scenario::SystemSpec {
            engine: "pow".into(),
            horizon: 40,
            salt: 0x77,
        });

        let first = SweepService::new(opts.clone());
        let cold =
            run_scenarios(&first.session(), std::slice::from_ref(&with_system)).expect("cold");
        assert_eq!(first.cache().disk_hits(), 0, "cold cache computes");
        // Spill files are named by their digests; a digest that moves
        // silently orphans every existing spill, so both names are pinned
        // (the system summary's first, then the ensemble's).
        let mut spilled: Vec<String> = std::fs::read_dir(dir.join(".cache"))
            .expect("spill dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        spilled.sort();
        assert_eq!(spilled, ["b53c445219889ee5.ens", "c0417eab5307a0fa.ens"]);

        let second = SweepService::new(opts);
        let warm =
            run_scenarios(&second.session(), std::slice::from_ref(&with_system)).expect("warm");
        assert_eq!(
            second.cache().disk_hits(),
            2,
            "ensemble + system summary both served from disk"
        );
        assert_eq!(*cold[0].summary, *warm[0].summary);
        assert_eq!(cold[0].system, warm[0].system, "system spill is bit-exact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_name_the_scenario() {
        let h = tiny_service("runner-errors");
        let bad = spec("broken", ProtocolSpec::new("nope"));
        let err = run_scenarios(&h.session(), &[bad]).expect_err("must fail");
        assert!(matches!(err, ScenarioError::Registry { .. }));
        assert!(err.to_string().contains("broken"));
        assert!(err.to_string().contains("nope"));

        let mut bad_engine = spec("sys", ProtocolSpec::new("pow").with("w", 0.01));
        bad_engine.system = Some(fairness_core::scenario::SystemSpec {
            engine: "warp".into(),
            horizon: 100,
            salt: 0,
        });
        let err = run_scenarios(&h.session(), &[bad_engine]).expect_err("must fail");
        assert!(matches!(err, ScenarioError::UnknownEngine { .. }));

        let mut rich = spec("rich", ProtocolSpec::new("pow").with("w", 1e13));
        rich.system = Some(fairness_core::scenario::SystemSpec {
            engine: "pow".into(),
            horizon: 50,
            salt: 1,
        });
        let err = run_scenarios(&h.session(), &[rich]).expect_err("must fail");
        assert!(matches!(
            err,
            ScenarioError::SupplyOverflow { horizon: 50, .. }
        ));
        assert_eq!(err.code(), "supply-overflow");
        assert!(err.to_string().contains("rich"));
    }

    #[test]
    fn colliding_slugs_are_rejected_before_any_work() {
        let h = tiny_service("runner-collide");
        let a = spec("my sweep", ProtocolSpec::new("ml-pos").with("w", 0.01));
        let b = spec("my_sweep!", ProtocolSpec::new("sl-pos").with("w", 0.01));
        let err = scenario_report(&h.session(), &[a, b]).expect_err("same slug must fail");
        assert!(matches!(err, ScenarioError::SlugCollision { .. }));
        assert_eq!(err.code(), "slug-collision");
        assert!(err.to_string().contains("scn_my_sweep.csv"), "{err}");
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(h.cache().misses(), 0, "rejected before simulating");
    }

    #[test]
    fn report_writes_csvs() {
        let h = tiny_service("runner-report");
        let out = scenario_report(
            &h.session(),
            &[spec(
                "my sweep",
                ProtocolSpec::new("ml-pos").with("w", 0.01),
            )],
        )
        .expect("report");
        assert!(out.contains("\"my sweep\""));
        assert!(out.contains("scn_my_sweep.csv"));
        assert!(out.contains("fingerprint:"));
        let csv = h.session().opts.results_dir.join("scn_my_sweep.csv");
        assert!(csv.exists(), "CSV written");
        let _ = std::fs::remove_dir_all(&h.session().opts.results_dir);
    }
}

//! Declarative scenario descriptions — every sweep is data.
//!
//! A [`ScenarioSpec`] is a complete, serializable description of one
//! ensemble run: which protocol (by name and parameters, resolved through
//! [`crate::registry`]), the initial shares, the checkpoint grid, the
//! repetition count, an optional withholding schedule and an optional
//! hash-level cross-check. Experiment harnesses execute specs instead of
//! hand-written per-figure code, so a new workload is a new *value* (or a
//! new line in a `.scn` file), not a new module.
//!
//! Three representations, all loss-free:
//!
//! * the typed value itself, assembled via [`ScenarioSpec::builder`];
//! * the canonical text form ([`print_scenarios`] /
//!   [`text::parse_scenarios`]), a hand-rolled format (see the grammar in
//!   [`text`]) that round-trips exactly: `parse(print(spec)) == spec`;
//! * the [`ScenarioSpec::fingerprint`] — a [`StableHasher`] digest of the
//!   semantic content, usable as a cache key. Runners key their sweep
//!   caches by the *constructed protocol's* `(name, params)` exactly as
//!   hand-written experiments do, so routing a figure through a spec
//!   changes neither cache keys nor derived seeds.

pub mod text;

use crate::trajectory::{linear_checkpoints, log_checkpoints};
use fairness_stats::cache::StableHasher;
use std::fmt;

/// A parameter value inside a [`ProtocolSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// A scalar (rewards, shares, indices, counts — all numeric).
    Number(f64),
    /// A list of scalars (e.g. mining-pool member indices).
    List(Vec<f64>),
    /// A nested protocol or strategy description (adapter composition).
    Spec(ProtocolSpec),
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Number(v)
    }
}

impl From<Vec<f64>> for ArgValue {
    fn from(v: Vec<f64>) -> Self {
        ArgValue::List(v)
    }
}

impl From<ProtocolSpec> for ArgValue {
    fn from(v: ProtocolSpec) -> Self {
        ArgValue::Spec(v)
    }
}

/// A protocol (or adversary strategy) by name plus named parameters —
/// the `(name, params)` pair [`crate::registry::construct`] resolves.
///
/// Adapters compose by nesting: `cash-out(inner = ml-pos(w = 0.01),
/// miner = 0)` wraps an ML-PoS instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProtocolSpec {
    /// Registry name (`pow`, `ml-pos`, `adversary`, …).
    pub name: String,
    /// Named arguments in written order (order is preserved by the text
    /// round-trip but irrelevant to construction).
    pub args: Vec<(String, ArgValue)>,
}

impl ProtocolSpec {
    /// Starts a spec for the protocol registered under `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            args: Vec::new(),
        }
    }

    /// Adds a named argument (builder-style).
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<ArgValue>) -> Self {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Looks an argument up by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&ArgValue> {
        self.args.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn hash_into(&self, h: &mut StableHasher) {
        h.write_str(&self.name);
        h.write_u64(self.args.len() as u64);
        for (key, value) in &self.args {
            h.write_str(key);
            match value {
                ArgValue::Number(v) => {
                    h.write_u64(0);
                    h.write_f64(*v);
                }
                ArgValue::List(vs) => {
                    h.write_u64(1);
                    h.write_u64(vs.len() as u64);
                    for v in vs {
                        h.write_f64(*v);
                    }
                }
                ArgValue::Spec(spec) => {
                    h.write_u64(2);
                    spec.hash_into(h);
                }
            }
        }
    }
}

impl fmt::Display for ProtocolSpec {
    /// Canonical text form: `name(key = value, ...)`, bare `name` when
    /// there are no arguments.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if self.args.is_empty() {
            return Ok(());
        }
        write!(f, "(")?;
        for (i, (key, value)) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{key} = ")?;
            match value {
                ArgValue::Number(v) => write!(f, "{v}")?,
                ArgValue::List(vs) => write_list(f, vs)?,
                ArgValue::Spec(spec) => write!(f, "{spec}")?,
            }
        }
        write!(f, ")")
    }
}

/// Rejects a protocol spec (recursively) that passes any parameter more
/// than once. The text parser already refuses such input with a
/// line-numbered error; this guards the builder path, where a duplicated
/// `.with(key, ...)` would otherwise print a form the parser rejects —
/// silently breaking the `parse(print(spec)) == spec` round-trip — while
/// construction quietly used the first value.
fn check_no_duplicate_args(spec: &ProtocolSpec) -> Result<(), ValidationError> {
    for (i, (key, value)) in spec.args.iter().enumerate() {
        if spec.args[..i].iter().any(|(k, _)| k == key) {
            return Err(ValidationError::DuplicateParam {
                protocol: spec.name.clone(),
                key: key.clone(),
            });
        }
        if let ArgValue::Spec(inner) = value {
            check_no_duplicate_args(inner)?;
        }
    }
    Ok(())
}

/// A violated [`ScenarioSpec`] invariant, as a typed value.
///
/// Every variant carries a stable machine-readable [`code`] — what wire
/// frontends (the `fairness-serve` daemon's JSON error bodies) key on —
/// while [`fmt::Display`] renders the human message the CLI and the `.scn`
/// parser have always printed. Adding a variant is an API change; changing
/// a `code` string is a wire-protocol change.
///
/// [`code`]: ValidationError::code
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ValidationError {
    /// The scenario name is empty.
    EmptyName,
    /// The scenario name contains quotes or newlines (unprintable in the
    /// `.scn` text form).
    UnprintableName,
    /// The protocol name is empty.
    EmptyProtocolName,
    /// A protocol (or nested adapter/strategy) passes one parameter twice.
    DuplicateParam {
        /// The protocol whose argument list repeats a key.
        protocol: String,
        /// The repeated parameter key.
        key: String,
    },
    /// Explicit/empirical shares are empty.
    EmptyShares,
    /// A share is negative, NaN or infinite.
    BadShare,
    /// Shares sum to zero (no resource in the population).
    ZeroShareTotal,
    /// Shares are finite, but their sum overflows `f64` (normalizing
    /// would divide every share by infinity).
    ShareTotalOverflow,
    /// A Zipf population with zero miners.
    ZipfEmptyPopulation,
    /// A Zipf exponent that is negative, NaN or infinite.
    ZipfBadExponent {
        /// The offending exponent.
        exponent: f64,
    },
    /// The checkpoint grid resolved to no points.
    EmptyCheckpoints,
    /// Checkpoints are not strictly ascending.
    UnsortedCheckpoints,
    /// The grid starts at step zero.
    ZeroCheckpoint,
    /// An explicit repetition count of zero.
    ZeroRepetitions,
    /// A withholding period of zero.
    ZeroWithholding,
    /// A hash-level cross-check with a zero-block horizon.
    ZeroSystemHorizon,
    /// A hash-level cross-check longer than [`MAX_SYSTEM_HORIZON`] blocks.
    SystemHorizonTooLarge {
        /// The requested horizon.
        horizon: u64,
    },
    /// A hash-level cross-check on a population that is not two miners.
    SystemNeedsTwoMiners,
    /// A hash-level cross-check where one of the two miners holds no
    /// fraction of the total share.
    SystemNeedsPositiveShares,
}

impl ValidationError {
    /// Stable kebab-case identifier for wire responses (error bodies key
    /// on this, not on the display text).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ValidationError::EmptyName => "empty-name",
            ValidationError::UnprintableName => "unprintable-name",
            ValidationError::EmptyProtocolName => "empty-protocol-name",
            ValidationError::DuplicateParam { .. } => "duplicate-param",
            ValidationError::EmptyShares => "empty-shares",
            ValidationError::BadShare => "bad-share",
            ValidationError::ZeroShareTotal => "zero-share-total",
            ValidationError::ShareTotalOverflow => "share-total-overflow",
            ValidationError::ZipfEmptyPopulation => "zipf-empty-population",
            ValidationError::ZipfBadExponent { .. } => "zipf-bad-exponent",
            ValidationError::EmptyCheckpoints => "empty-checkpoints",
            ValidationError::UnsortedCheckpoints => "unsorted-checkpoints",
            ValidationError::ZeroCheckpoint => "zero-checkpoint",
            ValidationError::ZeroRepetitions => "zero-repetitions",
            ValidationError::ZeroWithholding => "zero-withholding",
            ValidationError::ZeroSystemHorizon => "zero-system-horizon",
            ValidationError::SystemHorizonTooLarge { .. } => "system-horizon-too-large",
            ValidationError::SystemNeedsTwoMiners => "system-needs-two-miners",
            ValidationError::SystemNeedsPositiveShares => "system-needs-positive-shares",
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::EmptyName => write!(f, "scenario name must be non-empty"),
            ValidationError::UnprintableName => {
                write!(f, "scenario name must not contain quotes or newlines")
            }
            ValidationError::EmptyProtocolName => write!(f, "protocol name must be non-empty"),
            ValidationError::DuplicateParam { protocol, key } => write!(
                f,
                "protocol `{protocol}` passes parameter `{key}` more than once"
            ),
            ValidationError::EmptyShares => write!(f, "shares must be non-empty"),
            ValidationError::BadShare => write!(f, "shares must be finite and non-negative"),
            ValidationError::ZeroShareTotal => write!(f, "shares must sum to a positive total"),
            ValidationError::ShareTotalOverflow => {
                write!(f, "shares must sum to a finite total")
            }
            ValidationError::ZipfEmptyPopulation => {
                write!(f, "zipf shares need at least one miner")
            }
            ValidationError::ZipfBadExponent { exponent } => write!(
                f,
                "zipf exponent must be finite and non-negative, got {exponent}"
            ),
            ValidationError::EmptyCheckpoints => write!(f, "checkpoints must be non-empty"),
            ValidationError::UnsortedCheckpoints => {
                write!(f, "checkpoints must be strictly ascending")
            }
            ValidationError::ZeroCheckpoint => write!(f, "checkpoints must be positive"),
            ValidationError::ZeroRepetitions => write!(f, "repetitions must be positive"),
            ValidationError::ZeroWithholding => write!(f, "withholding period must be positive"),
            ValidationError::ZeroSystemHorizon => write!(f, "system horizon must be positive"),
            ValidationError::SystemHorizonTooLarge { horizon } => write!(
                f,
                "system horizon {horizon} exceeds the cap of {MAX_SYSTEM_HORIZON} blocks"
            ),
            ValidationError::SystemNeedsTwoMiners => {
                write!(f, "system cross-checks support exactly two miners")
            }
            ValidationError::SystemNeedsPositiveShares => write!(
                f,
                "system cross-checks need both miners to hold a positive fraction of the total share"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

fn write_list(f: &mut fmt::Formatter<'_>, vs: &[f64]) -> fmt::Result {
    write!(f, "[")?;
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{v}")?;
    }
    write!(f, "]")
}

/// The initial stake distribution of a scenario — explicit shares, or a
/// named generator so a million-miner population is one line of text
/// instead of a million numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum SharesSpec {
    /// Explicit (unnormalized) shares, one per miner.
    Explicit(Vec<f64>),
    /// `count` miners with rank-`k` weight `k^(−exponent)` (1-indexed,
    /// miner 0 the richest) — the skewed populations of the Sakurai &
    /// Shudo scale study. `exponent = 0` is a uniform population.
    Zipf {
        /// Number of miners.
        count: usize,
        /// Zipf exponent `s ≥ 0`.
        exponent: f64,
    },
    /// Measured (empirical) stakes, e.g. real chain balances. Semantically
    /// the same as [`Explicit`](Self::Explicit) — the variant records that
    /// the numbers are data, not a designed configuration, and prints as
    /// `empirical([...])`.
    Empirical(Vec<f64>),
}

impl SharesSpec {
    /// Number of miners without materializing the share vector.
    #[must_use]
    pub fn miner_count(&self) -> usize {
        match self {
            SharesSpec::Explicit(shares) | SharesSpec::Empirical(shares) => shares.len(),
            SharesSpec::Zipf { count, .. } => *count,
        }
    }

    /// Materializes the (unnormalized) share vector.
    #[must_use]
    pub fn resolve(&self) -> Vec<f64> {
        match self {
            SharesSpec::Explicit(shares) | SharesSpec::Empirical(shares) => shares.clone(),
            SharesSpec::Zipf { count, exponent } => {
                fairness_stats::sampling::zipf_weights(*count, *exponent)
            }
        }
    }
}

impl fmt::Display for SharesSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SharesSpec::Explicit(shares) => write_share_list(f, shares),
            SharesSpec::Zipf { count, exponent } => write!(f, "zipf({count}, {exponent})"),
            SharesSpec::Empirical(shares) => {
                write!(f, "empirical(")?;
                write_share_list(f, shares)?;
                write!(f, ")")
            }
        }
    }
}

fn write_share_list(f: &mut fmt::Formatter<'_>, shares: &[f64]) -> fmt::Result {
    write!(f, "[")?;
    for (i, s) in shares.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{s}")?;
    }
    write!(f, "]")
}

/// The checkpoint grid of a scenario — either explicit block counts or a
/// named generator (so spec files stay readable at production horizons).
#[derive(Debug, Clone, PartialEq)]
pub enum Checkpoints {
    /// Explicit, strictly ascending block/epoch counts.
    Explicit(Vec<u64>),
    /// `count` evenly spaced checkpoints up to `horizon`
    /// ([`linear_checkpoints`]).
    Linear {
        /// Final checkpoint.
        horizon: u64,
        /// Number of checkpoints.
        count: usize,
    },
    /// Log-spaced checkpoints up to `horizon` ([`log_checkpoints`]).
    Log {
        /// Final checkpoint.
        horizon: u64,
        /// Checkpoints per decade.
        per_decade: usize,
    },
}

impl Checkpoints {
    /// Materializes the grid.
    #[must_use]
    pub fn resolve(&self) -> Vec<u64> {
        match self {
            Checkpoints::Explicit(points) => points.clone(),
            Checkpoints::Linear { horizon, count } => linear_checkpoints(*horizon, *count),
            Checkpoints::Log {
                horizon,
                per_decade,
            } => log_checkpoints(*horizon, *per_decade),
        }
    }
}

impl fmt::Display for Checkpoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Checkpoints::Explicit(points) => {
                write!(f, "[")?;
                for (i, p) in points.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, "]")
            }
            Checkpoints::Linear { horizon, count } => write!(f, "linear({horizon}, {count})"),
            Checkpoints::Log {
                horizon,
                per_decade,
            } => write!(f, "log({horizon}, {per_decade})"),
        }
    }
}

/// The longest hash-level cross-check a scenario may ask for, in blocks.
///
/// A cross-check runs to completion once started (a job's cancellation is
/// observed between scenarios), so without a cap one scenario could hold
/// an executor for as long as its horizon asks. 10⁵ blocks is about 70×
/// the figures' 1,500; one repetition at the cap took 1.3 s (SL-PoS) to
/// 1.8 s (PoW) on a 2-vCPU container, about a minute at `--quick`'s 40
/// repetitions on one worker.
pub const MAX_SYSTEM_HORIZON: u64 = 100_000;

/// An optional hash-level (`chain-sim`) cross-check attached to a
/// scenario: a two-miner network of the named engine is run alongside the
/// closed-form ensemble (at the harness's `--system-reps` scale) and
/// summarized over the engine's own checkpoint grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Engine name (`pow`, `ml-pos`, `sl-pos`, `fsl-pos`, `c-pos`).
    pub engine: String,
    /// Blocks per repetition.
    pub horizon: u64,
    /// Seed salt XOR-ed into the run's master seed, so distinct
    /// cross-checks draw independent streams.
    pub salt: u64,
}

/// A fully declarative description of one ensemble run.
///
/// Build with [`ScenarioSpec::builder`], parse from text with
/// [`text::parse_scenarios`], print with [`print_scenarios`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Display name (also the stem of the scenario's CSV file).
    pub name: String,
    /// Protocol to run, by registry name + params.
    pub protocol: ProtocolSpec,
    /// Initial resource shares (miner 0 is the tracked miner A) — explicit
    /// or generated (Zipf / empirical).
    pub shares: SharesSpec,
    /// Checkpoint grid.
    pub checkpoints: Checkpoints,
    /// Monte-Carlo repetitions; `None` inherits the runner's default
    /// (`--reps`).
    pub repetitions: Option<usize>,
    /// Optional reward-withholding period (Section 6.3).
    pub withholding: Option<u64>,
    /// Optional hash-level cross-check.
    pub system: Option<SystemSpec>,
}

impl ScenarioSpec {
    /// Starts building a scenario named `name` running `protocol`.
    #[must_use]
    pub fn builder(name: impl Into<String>, protocol: ProtocolSpec) -> ScenarioBuilder {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.into(),
                protocol,
                shares: SharesSpec::Explicit(Vec::new()),
                checkpoints: Checkpoints::Explicit(Vec::new()),
                repetitions: None,
                withholding: None,
                system: None,
            },
        }
    }

    /// Checks the structural invariants shared by the builder and the
    /// parser.
    ///
    /// # Errors
    /// Returns the first violated invariant as a typed
    /// [`ValidationError`] — render with `Display` for the human message,
    /// or key on [`ValidationError::code`] in wire responses.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if self.name.is_empty() {
            return Err(ValidationError::EmptyName);
        }
        if self.name.contains('"') || self.name.contains('\n') {
            return Err(ValidationError::UnprintableName);
        }
        if self.protocol.name.is_empty() {
            return Err(ValidationError::EmptyProtocolName);
        }
        check_no_duplicate_args(&self.protocol)?;
        match &self.shares {
            SharesSpec::Explicit(shares) | SharesSpec::Empirical(shares) => {
                if shares.is_empty() {
                    return Err(ValidationError::EmptyShares);
                }
                if !shares.iter().all(|s| s.is_finite() && *s >= 0.0) {
                    return Err(ValidationError::BadShare);
                }
                let total = shares.iter().sum::<f64>();
                if total <= 0.0 {
                    return Err(ValidationError::ZeroShareTotal);
                }
                if !total.is_finite() {
                    return Err(ValidationError::ShareTotalOverflow);
                }
            }
            SharesSpec::Zipf { count, exponent } => {
                if *count == 0 {
                    return Err(ValidationError::ZipfEmptyPopulation);
                }
                if !exponent.is_finite() || *exponent < 0.0 {
                    return Err(ValidationError::ZipfBadExponent {
                        exponent: *exponent,
                    });
                }
            }
        }
        let checkpoints = self.checkpoints.resolve();
        if checkpoints.is_empty() {
            return Err(ValidationError::EmptyCheckpoints);
        }
        if !checkpoints.windows(2).all(|w| w[0] < w[1]) {
            return Err(ValidationError::UnsortedCheckpoints);
        }
        if checkpoints.first() == Some(&0) {
            return Err(ValidationError::ZeroCheckpoint);
        }
        if self.repetitions == Some(0) {
            return Err(ValidationError::ZeroRepetitions);
        }
        if self.withholding == Some(0) {
            return Err(ValidationError::ZeroWithholding);
        }
        if let Some(system) = &self.system {
            if system.horizon == 0 {
                return Err(ValidationError::ZeroSystemHorizon);
            }
            if system.horizon > MAX_SYSTEM_HORIZON {
                return Err(ValidationError::SystemHorizonTooLarge {
                    horizon: system.horizon,
                });
            }
            if self.shares.miner_count() != 2 {
                return Err(ValidationError::SystemNeedsTwoMiners);
            }
            // The cross-check runs miner A at this fraction, which must lie
            // strictly inside (0, 1): a zero share, or one too small to
            // move the sum, leaves a one-miner network.
            let shares = self.initial_shares();
            let a = shares[0] / shares.iter().sum::<f64>();
            if !(a > 0.0 && a < 1.0) {
                return Err(ValidationError::SystemNeedsPositiveShares);
            }
        }
        Ok(())
    }

    /// Materializes the (unnormalized) initial share vector.
    #[must_use]
    pub fn initial_shares(&self) -> Vec<f64> {
        self.shares.resolve()
    }

    /// A stable digest of the scenario's semantic content (everything but
    /// the display name), built on [`StableHasher`] so it is identical
    /// across runs, platforms and toolchains. Suitable as a
    /// content-addressed cache key for whole-scenario artifacts.
    ///
    /// Note that ensemble memoization does **not** use this digest:
    /// runners key the sweep cache by the constructed protocol's
    /// `(name, params)` — the same key hand-written experiments produce —
    /// so two spellings of one configuration (say `Linear` vs the
    /// equivalent `Explicit` grid) still share one computation and one
    /// derived seed.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("scenario-v1");
        self.protocol.hash_into(&mut h);
        // Hash the *resolved* shares: `zipf(3, 0)` and `[1, 1, 1]` name
        // the same population and share one digest (mirroring how Linear
        // and the equivalent Explicit grid share one computation).
        let shares = self.shares.resolve();
        h.write_u64(shares.len() as u64);
        for s in &shares {
            h.write_f64(*s);
        }
        let checkpoints = self.checkpoints.resolve();
        h.write_u64(checkpoints.len() as u64);
        for c in &checkpoints {
            h.write_u64(*c);
        }
        h.write_u64(self.repetitions.map_or(u64::MAX, |r| r as u64));
        h.write_u64(self.withholding.unwrap_or(u64::MAX));
        match &self.system {
            None => h.write_u64(0),
            Some(system) => {
                h.write_u64(1);
                h.write_str(&system.engine);
                h.write_u64(system.horizon);
                h.write_u64(system.salt);
            }
        }
        h.finish()
    }

    /// A filesystem-safe stem for this scenario's CSV output
    /// (lowercased, non-alphanumerics collapsed to `_`).
    #[must_use]
    pub fn slug(&self) -> String {
        let mut out = String::with_capacity(self.name.len());
        let mut last_underscore = true;
        for c in self.name.to_lowercase().chars() {
            if c.is_ascii_alphanumeric() {
                out.push(c);
                last_underscore = false;
            } else if !last_underscore {
                out.push('_');
                last_underscore = true;
            }
        }
        while out.ends_with('_') {
            out.pop();
        }
        if out.is_empty() {
            out.push_str("scenario");
        }
        out
    }
}

impl fmt::Display for ScenarioSpec {
    /// Canonical text form — exactly what [`text::parse_scenarios`]
    /// accepts.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "scenario \"{}\" {{", self.name)?;
        writeln!(f, "  protocol = {}", self.protocol)?;
        writeln!(f, "  shares = {}", self.shares)?;
        writeln!(f, "  checkpoints = {}", self.checkpoints)?;
        if let Some(reps) = self.repetitions {
            writeln!(f, "  repetitions = {reps}")?;
        }
        if let Some(period) = self.withholding {
            writeln!(f, "  withholding = {period}")?;
        }
        if let Some(system) = &self.system {
            writeln!(
                f,
                "  system = {}(horizon = {}, salt = {})",
                system.engine, system.horizon, system.salt
            )?;
        }
        write!(f, "}}")
    }
}

/// Renders scenarios in the canonical text form, one block per scenario,
/// separated by blank lines. Inverse of [`text::parse_scenarios`].
#[must_use]
pub fn print_scenarios(specs: &[ScenarioSpec]) -> String {
    let mut out = String::new();
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&spec.to_string());
        out.push('\n');
    }
    out
}

/// Builder for [`ScenarioSpec`] (see [`ScenarioSpec::builder`]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Sets explicit initial shares.
    #[must_use]
    pub fn shares(mut self, shares: &[f64]) -> Self {
        self.spec.shares = SharesSpec::Explicit(shares.to_vec());
        self
    }

    /// Sets any share distribution (explicit, Zipf or empirical).
    #[must_use]
    pub fn shares_spec(mut self, shares: SharesSpec) -> Self {
        self.spec.shares = shares;
        self
    }

    /// `count` miners with Zipf-distributed stakes at the given exponent.
    #[must_use]
    pub fn zipf(self, count: usize, exponent: f64) -> Self {
        self.shares_spec(SharesSpec::Zipf { count, exponent })
    }

    /// Measured (empirical) stakes.
    #[must_use]
    pub fn empirical(self, shares: &[f64]) -> Self {
        self.shares_spec(SharesSpec::Empirical(shares.to_vec()))
    }

    /// Two miners at `a / 1 − a` (the paper's default shape).
    #[must_use]
    pub fn two_miner(self, a: f64) -> Self {
        let shares = crate::miner::two_miner(a);
        self.shares(&shares)
    }

    /// Sets an arbitrary checkpoint grid.
    #[must_use]
    pub fn checkpoints(mut self, checkpoints: Checkpoints) -> Self {
        self.spec.checkpoints = checkpoints;
        self
    }

    /// `count` linear checkpoints up to `horizon`.
    #[must_use]
    pub fn linear(self, horizon: u64, count: usize) -> Self {
        self.checkpoints(Checkpoints::Linear { horizon, count })
    }

    /// Log-spaced checkpoints up to `horizon`.
    #[must_use]
    pub fn log(self, horizon: u64, per_decade: usize) -> Self {
        self.checkpoints(Checkpoints::Log {
            horizon,
            per_decade,
        })
    }

    /// Explicit checkpoints.
    #[must_use]
    pub fn explicit(self, points: Vec<u64>) -> Self {
        self.checkpoints(Checkpoints::Explicit(points))
    }

    /// Fixes the repetition count (otherwise the runner default applies).
    #[must_use]
    pub fn repetitions(mut self, repetitions: usize) -> Self {
        self.spec.repetitions = Some(repetitions);
        self
    }

    /// Enables reward withholding with the given period.
    #[must_use]
    pub fn withholding(mut self, period: u64) -> Self {
        self.spec.withholding = Some(period);
        self
    }

    /// Attaches a hash-level cross-check.
    #[must_use]
    pub fn system(mut self, engine: impl Into<String>, horizon: u64, salt: u64) -> Self {
        self.spec.system = Some(SystemSpec {
            engine: engine.into(),
            horizon,
            salt,
        });
        self
    }

    /// Finalizes the spec.
    ///
    /// # Panics
    /// Panics if the spec violates a structural invariant
    /// ([`ScenarioSpec::validate`]) — builders are driven by code, where
    /// an invalid spec is a programming error.
    #[must_use]
    pub fn build(self) -> ScenarioSpec {
        if let Err(message) = self.spec.validate() {
            panic!("invalid scenario \"{}\": {message}", self.spec.name);
        }
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec::builder(
            "selfish a=0.30",
            ProtocolSpec::new("adversary")
                .with("inner", ProtocolSpec::new("pow").with("w", 0.01))
                .with(
                    "strategy",
                    ProtocolSpec::new("selfish-mining").with("gamma", 0.5),
                ),
        )
        .two_miner(0.3)
        .linear(2000, 10)
        .repetitions(500)
        .build()
    }

    #[test]
    fn display_is_canonical() {
        let text = sample().to_string();
        assert!(text.starts_with("scenario \"selfish a=0.30\" {"));
        assert!(text.contains(
            "protocol = adversary(inner = pow(w = 0.01), strategy = selfish-mining(gamma = 0.5))"
        ));
        assert!(text.contains("shares = [0.3, 0.7]"));
        assert!(text.contains("checkpoints = linear(2000, 10)"));
        assert!(text.contains("repetitions = 500"));
        assert!(!text.contains("withholding"));
        assert!(text.ends_with('}'));
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = sample();
        assert_eq!(a.fingerprint(), sample().fingerprint());
        // The display name is a label, not content.
        let mut renamed = a.clone();
        renamed.name = "other".into();
        assert_eq!(a.fingerprint(), renamed.fingerprint());
        // Everything semantic moves the digest.
        let mut spec = a.clone();
        spec.shares = SharesSpec::Explicit(vec![0.4, 0.6]);
        assert_ne!(a.fingerprint(), spec.fingerprint());
        let mut spec = a.clone();
        spec.repetitions = None;
        assert_ne!(a.fingerprint(), spec.fingerprint());
        let mut spec = a.clone();
        spec.withholding = Some(100);
        assert_ne!(a.fingerprint(), spec.fingerprint());
        let mut spec = a.clone();
        spec.protocol = ProtocolSpec::new("pow").with("w", 0.01);
        assert_ne!(a.fingerprint(), spec.fingerprint());
        let mut spec = a.clone();
        spec.system = Some(SystemSpec {
            engine: "pow".into(),
            horizon: 1000,
            salt: 1,
        });
        assert_ne!(a.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn checkpoints_resolve_matches_generators() {
        assert_eq!(
            Checkpoints::Linear {
                horizon: 5000,
                count: 25
            }
            .resolve(),
            linear_checkpoints(5000, 25)
        );
        assert_eq!(
            Checkpoints::Log {
                horizon: 100_000,
                per_decade: 4
            }
            .resolve(),
            log_checkpoints(100_000, 4)
        );
        assert_eq!(Checkpoints::Explicit(vec![5, 10]).resolve(), vec![5, 10]);
    }

    #[test]
    fn slugs_are_filesystem_safe() {
        assert_eq!(sample().slug(), "selfish_a_0_30");
        let mut spec = sample();
        spec.name = "  (weird)  NAME!! ".into();
        assert_eq!(spec.slug(), "weird_name");
        spec.name = "§±!".into();
        assert_eq!(spec.slug(), "scenario");
    }

    #[test]
    fn validate_rejects_bad_specs() {
        type Mutation = Box<dyn Fn(&mut ScenarioSpec)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("empty-name", Box::new(|s| s.name.clear())),
            ("unprintable-name", Box::new(|s| s.name = "a\"b".into())),
            (
                "empty-shares",
                Box::new(|s| s.shares = SharesSpec::Explicit(Vec::new())),
            ),
            (
                "bad-share",
                Box::new(|s| s.shares = SharesSpec::Explicit(vec![-0.1, 1.1])),
            ),
            (
                "zero-share-total",
                Box::new(|s| s.shares = SharesSpec::Empirical(vec![0.0, 0.0])),
            ),
            (
                // Each share is finite; their sum is not.
                "share-total-overflow",
                Box::new(|s| s.shares = SharesSpec::Explicit(vec![1e308, 1e308])),
            ),
            (
                "zipf-empty-population",
                Box::new(|s| {
                    s.shares = SharesSpec::Zipf {
                        count: 0,
                        exponent: 1.0,
                    }
                }),
            ),
            (
                "zipf-bad-exponent",
                Box::new(|s| {
                    s.shares = SharesSpec::Zipf {
                        count: 10,
                        exponent: -0.5,
                    }
                }),
            ),
            (
                "duplicate-param",
                Box::new(|s| s.protocol = ProtocolSpec::new("pow").with("w", 0.01).with("w", 0.02)),
            ),
            (
                "duplicate-param",
                Box::new(|s| {
                    s.protocol = ProtocolSpec::new("cash-out").with(
                        "inner",
                        ProtocolSpec::new("ml-pos").with("w", 0.01).with("w", 0.02),
                    )
                }),
            ),
            (
                "unsorted-checkpoints",
                Box::new(|s| s.checkpoints = Checkpoints::Explicit(vec![10, 5])),
            ),
            (
                "zero-checkpoint",
                Box::new(|s| s.checkpoints = Checkpoints::Explicit(vec![0, 5])),
            ),
            ("zero-repetitions", Box::new(|s| s.repetitions = Some(0))),
            ("zero-withholding", Box::new(|s| s.withholding = Some(0))),
            (
                "system-needs-two-miners",
                Box::new(|s| {
                    s.shares = SharesSpec::Explicit(vec![0.2, 0.3, 0.5]);
                    s.system = Some(SystemSpec {
                        engine: "pow".into(),
                        horizon: 100,
                        salt: 0,
                    });
                }),
            ),
            (
                "system-horizon-too-large",
                Box::new(|s| {
                    s.shares = SharesSpec::Explicit(vec![0.2, 0.8]);
                    s.system = Some(SystemSpec {
                        engine: "sl-pos".into(),
                        horizon: 1_000_000_000,
                        salt: 1,
                    });
                }),
            ),
            (
                "system-horizon-too-large",
                Box::new(|s| {
                    s.shares = SharesSpec::Explicit(vec![0.2, 0.8]);
                    s.system = Some(SystemSpec {
                        engine: "pow".into(),
                        horizon: MAX_SYSTEM_HORIZON + 1,
                        salt: 1,
                    });
                }),
            ),
            (
                "system-needs-positive-shares",
                Box::new(|s| {
                    s.shares = SharesSpec::Explicit(vec![0.0, 1.0]);
                    s.system = Some(SystemSpec {
                        engine: "pow".into(),
                        horizon: 50,
                        salt: 7,
                    });
                }),
            ),
            (
                "system-needs-positive-shares",
                Box::new(|s| {
                    s.shares = SharesSpec::Explicit(vec![1.0, 0.0]);
                    s.system = Some(SystemSpec {
                        engine: "sl-pos".into(),
                        horizon: 50,
                        salt: 7,
                    });
                }),
            ),
            (
                // Positive, but too small to move the sum: miner A's
                // fraction rounds to exactly 1.
                "system-needs-positive-shares",
                Box::new(|s| {
                    s.shares = SharesSpec::Empirical(vec![1.0, 1e-17]);
                    s.system = Some(SystemSpec {
                        engine: "pow".into(),
                        horizon: 50,
                        salt: 7,
                    });
                }),
            ),
        ];
        // Each case's label IS the expected wire code — the codes are a
        // stable wire contract for the serve daemon's error bodies.
        for (expected_code, mutate) in cases {
            let mut spec = sample();
            mutate(&mut spec);
            let Err(error) = spec.validate() else {
                panic!("{expected_code} should be rejected")
            };
            assert_eq!(error.code(), expected_code, "wrong code for {error}");
            assert!(!error.to_string().is_empty());
        }
        assert!(sample().validate().is_ok());
        // A tiny share that still moves the sum leaves two live miners.
        let mut tiny = sample();
        tiny.shares = SharesSpec::Explicit(vec![1e-9, 1.0]);
        tiny.system = Some(SystemSpec {
            engine: "pow".into(),
            horizon: 50,
            salt: 7,
        });
        assert!(tiny.validate().is_ok());
        // The cap itself is allowed.
        let mut longest = sample();
        longest.shares = SharesSpec::Explicit(vec![0.2, 0.8]);
        longest.system = Some(SystemSpec {
            engine: "pow".into(),
            horizon: MAX_SYSTEM_HORIZON,
            salt: 1,
        });
        assert!(longest.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid scenario")]
    fn builder_panics_on_invalid() {
        let _ = ScenarioSpec::builder("x", ProtocolSpec::new("pow")).build();
    }
}

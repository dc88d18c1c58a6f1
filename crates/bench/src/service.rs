//! The reusable sweep-execution engine behind both frontends.
//!
//! [`SweepService`] owns what used to be scattered across the `repro`
//! binary's harness: the run options, the content-addressed
//! [`SweepCache`], and the shared [`JobPool`]. On top of that ownership it
//! adds a **session API** — submit a scenario batch, poll or stream its
//! progress, fetch the finished report, cancel it — so the batch CLI and
//! the resident `fairness-serve` daemon drive one deterministic, memoized
//! execution core instead of two divergent paths.
//!
//! The moving parts:
//!
//! * [`SweepSession`] — the borrow an experiment or runner works with
//!   (options + cache + pool, optionally bound to a [`SweepJob`] so
//!   long-running sweeps can emit progress and observe cancellation).
//! * [`SweepJob`] — one submitted batch: a stable fingerprint, an
//!   append-only event log, and the finished report. Events carry **no
//!   timestamps or queue positions**, which is what makes a replayed
//!   (deduplicated) submission byte-identical to the original stream.
//! * [`SweepService::submit`] / [`next_job`](SweepService::next_job) /
//!   [`execute`](SweepService::execute) — a bounded queue with
//!   backpressure ([`SubmitError::Saturated`]) and graceful drain
//!   ([`SweepService::drain`]).
//!
//! Determinism contract: executing a job only ever goes through
//! [`crate::runner::scenario_report`], so a job's report and CSVs are
//! bit-identical to the `repro scenario` CLI path for the same options —
//! and repeat submissions are answered from the job table (process) or
//! the cache's disk layer (across restarts) without re-simulating.

use crate::experiments::SweepCache;
use crate::pool::JobPool;
use crate::runner::{scenario_report, ScenarioError};
use crate::schedule::{run_schedule, RunOutcome};
use crate::ReproOptions;
use fairness_core::montecarlo::EnsembleSummary;
use fairness_core::protocol::IncentiveProtocol;
use fairness_core::scenario::ScenarioSpec;
use fairness_core::withholding::WithholdingSchedule;
use fairness_stats::cache::StableHasher;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default bound on the submission queue ([`SweepService::submit`]
/// rejects with [`SubmitError::Saturated`] beyond it).
pub const DEFAULT_QUEUE_CAPACITY: usize = 32;

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes and control characters; everything else passes through).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A progress event in a job's append-only log.
///
/// Deliberately **free of timestamps, queue positions, and dedup
/// markers**: the event stream is a pure function of the batch and its
/// execution, so replaying a stored log (repeat submission) is
/// byte-identical to the original stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// The batch was accepted and enqueued.
    Queued {
        /// Scenarios in the batch.
        scenarios: usize,
    },
    /// A worker started executing the batch.
    Started,
    /// One scenario's ensemble finished (index into the submitted batch).
    /// Emitted in index order, once every lower index has finished.
    Scenario {
        /// Position in the submitted batch.
        index: usize,
        /// The scenario's display name.
        name: String,
        /// The scenario's content fingerprint
        /// ([`ScenarioSpec::fingerprint`]).
        fingerprint: u64,
    },
    /// Every scenario finished; the report is available.
    Done {
        /// Scenarios in the batch.
        scenarios: usize,
    },
    /// Execution failed.
    Failed {
        /// Stable machine-readable error code ([`ScenarioError::code`]).
        code: &'static str,
        /// Human-readable message.
        message: String,
    },
    /// The job was cancelled before completion.
    Cancelled,
}

impl ProgressEvent {
    /// Renders the event as one NDJSON line (newline included) tagged
    /// with its job's fingerprint — the daemon's wire format.
    #[must_use]
    pub fn ndjson_line(&self, job: u64) -> String {
        match self {
            ProgressEvent::Queued { scenarios } => {
                format!("{{\"job\":\"{job:016x}\",\"event\":\"queued\",\"scenarios\":{scenarios}}}\n")
            }
            ProgressEvent::Started => {
                format!("{{\"job\":\"{job:016x}\",\"event\":\"started\"}}\n")
            }
            ProgressEvent::Scenario {
                index,
                name,
                fingerprint,
            } => format!(
                "{{\"job\":\"{job:016x}\",\"event\":\"scenario\",\"index\":{index},\"name\":\"{}\",\"fingerprint\":\"{fingerprint:016x}\"}}\n",
                json_escape(name)
            ),
            ProgressEvent::Done { scenarios } => {
                format!("{{\"job\":\"{job:016x}\",\"event\":\"done\",\"scenarios\":{scenarios}}}\n")
            }
            ProgressEvent::Failed { code, message } => format!(
                "{{\"job\":\"{job:016x}\",\"event\":\"failed\",\"code\":\"{code}\",\"message\":\"{}\"}}\n",
                json_escape(message)
            ),
            ProgressEvent::Cancelled => {
                format!("{{\"job\":\"{job:016x}\",\"event\":\"cancelled\"}}\n")
            }
        }
    }
}

/// Lifecycle phase of a [`SweepJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing the batch.
    Running,
    /// Finished; the report is available.
    Done,
    /// Execution failed (see the `Failed` event for the code).
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobPhase {
    /// Stable lowercase wire name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Failed => "failed",
            JobPhase::Cancelled => "cancelled",
        }
    }

    /// Whether the job can no longer change.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobPhase::Done | JobPhase::Failed | JobPhase::Cancelled
        )
    }
}

#[derive(Debug)]
struct JobInner {
    phase: JobPhase,
    events: Vec<ProgressEvent>,
    report: Option<Arc<String>>,
    error: Option<ScenarioError>,
    wall_seconds: f64,
}

/// One submitted scenario batch: identity, progress log, result.
///
/// Shared (`Arc`) between the service's job table, the executing worker,
/// and any number of streaming readers.
#[derive(Debug)]
pub struct SweepJob {
    fingerprint: u64,
    specs: Vec<ScenarioSpec>,
    inner: Mutex<JobInner>,
    changed: Condvar,
    cancelled: AtomicBool,
}

impl SweepJob {
    fn new(fingerprint: u64, specs: Vec<ScenarioSpec>) -> Self {
        let scenarios = specs.len();
        Self {
            fingerprint,
            specs,
            inner: Mutex::new(JobInner {
                phase: JobPhase::Queued,
                events: vec![ProgressEvent::Queued { scenarios }],
                report: None,
                error: None,
                wall_seconds: 0.0,
            }),
            changed: Condvar::new(),
            cancelled: AtomicBool::new(false),
        }
    }

    /// The batch's stable content fingerprint — the job's identity and
    /// its `GET /v1/jobs/:fingerprint` address.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The submitted scenario batch.
    #[must_use]
    pub fn specs(&self) -> &[ScenarioSpec] {
        &self.specs
    }

    /// Current lifecycle phase.
    #[must_use]
    pub fn phase(&self) -> JobPhase {
        self.inner.lock().expect("job lock").phase
    }

    /// Whether cancellation was requested (the executing sweep observes
    /// this between scenarios and between a cross-check's repetitions).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The finished report, once the job is [`JobPhase::Done`].
    #[must_use]
    pub fn report(&self) -> Option<Arc<String>> {
        self.inner.lock().expect("job lock").report.clone()
    }

    /// The failure, once the job is [`JobPhase::Failed`].
    #[must_use]
    pub fn error(&self) -> Option<ScenarioError> {
        self.inner.lock().expect("job lock").error.clone()
    }

    /// Wall-clock seconds spent executing (0 until terminal).
    #[must_use]
    pub fn wall_seconds(&self) -> f64 {
        self.inner.lock().expect("job lock").wall_seconds
    }

    /// Events appended since index `from`, plus the next cursor and
    /// whether the job is terminal (no more events will come).
    #[must_use]
    pub fn events_since(&self, from: usize) -> (Vec<ProgressEvent>, usize, bool) {
        let inner = self.inner.lock().expect("job lock");
        let events = inner.events.get(from..).unwrap_or_default().to_vec();
        (events, inner.events.len(), inner.phase.is_terminal())
    }

    /// Like [`events_since`](Self::events_since), but blocks up to
    /// `timeout` for at least one new event when none are pending and the
    /// job is still live.
    #[must_use]
    pub fn wait_events(&self, from: usize, timeout: Duration) -> (Vec<ProgressEvent>, usize, bool) {
        let mut inner = self.inner.lock().expect("job lock");
        if inner.events.len() <= from && !inner.phase.is_terminal() {
            let (guard, _timed_out) = self.changed.wait_timeout(inner, timeout).expect("job lock");
            inner = guard;
        }
        let events = inner.events.get(from..).unwrap_or_default().to_vec();
        (events, inner.events.len(), inner.phase.is_terminal())
    }

    fn push_event(&self, event: ProgressEvent) {
        let mut inner = self.inner.lock().expect("job lock");
        inner.events.push(event);
        drop(inner);
        self.changed.notify_all();
    }

    fn set_phase(&self, phase: JobPhase) {
        let mut inner = self.inner.lock().expect("job lock");
        inner.phase = phase;
        drop(inner);
        self.changed.notify_all();
    }

    fn finish(
        &self,
        phase: JobPhase,
        report: Option<String>,
        error: Option<ScenarioError>,
        wall_seconds: f64,
        event: ProgressEvent,
    ) {
        let mut inner = self.inner.lock().expect("job lock");
        inner.events.push(event);
        inner.phase = phase;
        inner.report = report.map(Arc::new);
        inner.error = error;
        inner.wall_seconds = wall_seconds;
        drop(inner);
        self.changed.notify_all();
    }
}

/// The text of a panic payload (`panic!` with a literal or a formatted
/// message); other payload types read as a generic note.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-text panic payload".to_owned()
    }
}

/// The stable identity of a scenario batch: a digest over each spec's
/// content fingerprint *and* display name (names become CSV stems and
/// appear in the report, so two batches differing only in names are
/// different jobs).
#[must_use]
pub fn batch_fingerprint(specs: &[ScenarioSpec]) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("job-v1");
    h.write_u64(specs.len() as u64);
    for spec in specs {
        h.write_u64(spec.fingerprint());
        h.write_str(&spec.name);
    }
    h.finish()
}

/// Why [`SweepService::submit`] refused a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — backpressure; retry later.
    Saturated {
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// The service is draining for shutdown and accepts no new work.
    Draining,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Saturated { capacity } => {
                write!(f, "queue saturated ({capacity} jobs pending) — retry later")
            }
            SubmitError::Draining => write!(f, "service is draining — no new jobs accepted"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[derive(Debug)]
struct ServiceState {
    queue: VecDeque<Arc<SweepJob>>,
    jobs: HashMap<u64, Arc<SweepJob>>,
    inflight: usize,
    draining: bool,
}

#[derive(Debug, Default)]
struct ServiceMetrics {
    submitted: AtomicU64,
    deduped: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    rejected_saturated: AtomicU64,
    rejected_draining: AtomicU64,
    /// `(target, wall seconds)` per finished experiment target or job.
    target_walls: Mutex<Vec<(String, f64)>>,
}

/// A point-in-time view of the service's counters, renderable as
/// Prometheus text ([`to_prometheus`](Self::to_prometheus)).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Batches accepted and enqueued.
    pub jobs_submitted: u64,
    /// Submissions answered from the job table without re-enqueueing.
    pub jobs_deduped: u64,
    /// Jobs finished successfully.
    pub jobs_completed: u64,
    /// Jobs that failed.
    pub jobs_failed: u64,
    /// Jobs cancelled before completion.
    pub jobs_cancelled: u64,
    /// Submissions rejected by queue backpressure.
    pub jobs_rejected_saturated: u64,
    /// Submissions rejected during drain.
    pub jobs_rejected_draining: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub jobs_inflight: u64,
    /// In-memory ensemble cache hits.
    pub cache_hits: u64,
    /// Ensemble computations (process-level misses).
    pub cache_misses: u64,
    /// Process-level misses answered from the disk spill.
    pub disk_hits: u64,
    /// `(target, wall seconds)` per finished experiment target or job.
    pub target_walls: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (what `GET /metrics` serves, modulo the daemon's own HTTP
    /// counters).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            &mut out,
            "fairness_jobs_submitted_total",
            "Scenario batches accepted and enqueued.",
            self.jobs_submitted,
        );
        counter(
            &mut out,
            "fairness_jobs_deduped_total",
            "Submissions answered from the job table without simulation.",
            self.jobs_deduped,
        );
        counter(
            &mut out,
            "fairness_jobs_completed_total",
            "Jobs finished successfully.",
            self.jobs_completed,
        );
        counter(
            &mut out,
            "fairness_jobs_failed_total",
            "Jobs that failed.",
            self.jobs_failed,
        );
        counter(
            &mut out,
            "fairness_jobs_cancelled_total",
            "Jobs cancelled before completion.",
            self.jobs_cancelled,
        );
        counter(
            &mut out,
            "fairness_jobs_rejected_saturated_total",
            "Submissions rejected by queue backpressure.",
            self.jobs_rejected_saturated,
        );
        counter(
            &mut out,
            "fairness_jobs_rejected_draining_total",
            "Submissions rejected while draining.",
            self.jobs_rejected_draining,
        );
        counter(
            &mut out,
            "fairness_ensemble_cache_hits_total",
            "In-memory ensemble cache hits.",
            self.cache_hits,
        );
        counter(
            &mut out,
            "fairness_ensemble_cache_misses_total",
            "Ensemble computations (process-level cache misses).",
            self.cache_misses,
        );
        counter(
            &mut out,
            "fairness_ensemble_disk_hits_total",
            "Process-level misses answered from the disk spill.",
            self.disk_hits,
        );
        let _ = writeln!(
            out,
            "# HELP fairness_queue_depth Jobs waiting in the queue."
        );
        let _ = writeln!(out, "# TYPE fairness_queue_depth gauge");
        let _ = writeln!(out, "fairness_queue_depth {}", self.queue_depth);
        let _ = writeln!(
            out,
            "# HELP fairness_jobs_inflight Jobs currently executing."
        );
        let _ = writeln!(out, "# TYPE fairness_jobs_inflight gauge");
        let _ = writeln!(out, "fairness_jobs_inflight {}", self.jobs_inflight);
        if !self.target_walls.is_empty() {
            let _ = writeln!(
                out,
                "# HELP fairness_target_wall_seconds Wall-clock per finished target or job."
            );
            let _ = writeln!(out, "# TYPE fairness_target_wall_seconds gauge");
            for (target, seconds) in &self.target_walls {
                let _ = writeln!(
                    out,
                    "fairness_target_wall_seconds{{target=\"{}\"}} {seconds:.3}",
                    json_escape(target)
                );
            }
        }
        out
    }
}

/// The owning execution engine: options + cache + pool, plus a bounded
/// job queue with progress streaming, cancellation and graceful drain.
///
/// One per `repro` invocation or daemon process. Both frontends get their
/// work done the same way: the CLI via [`run_targets`](Self::run_targets)
/// / [`run_report`](Self::run_report), the daemon via
/// [`submit`](Self::submit) → [`next_job`](Self::next_job) →
/// [`execute`](Self::execute).
#[derive(Debug)]
pub struct SweepService {
    opts: ReproOptions,
    cache: SweepCache,
    pool: JobPool,
    state: Mutex<ServiceState>,
    /// Signalled when the queue gains work or draining begins.
    work: Condvar,
    /// Signalled when a job leaves the in-flight set.
    idle: Condvar,
    metrics: ServiceMetrics,
    queue_capacity: usize,
}

impl SweepService {
    /// Builds the service: the sweep cache is seeded from `opts.seed`
    /// (spilling to `<results_dir>/.cache` unless `--no-disk-cache`) and
    /// the pool sized from `opts.jobs`.
    #[must_use]
    pub fn new(opts: ReproOptions) -> Self {
        Self::with_queue_capacity(opts, DEFAULT_QUEUE_CAPACITY)
    }

    /// Like [`new`](Self::new) with an explicit submission-queue bound.
    ///
    /// # Panics
    /// Panics if `queue_capacity` is zero.
    #[must_use]
    pub fn with_queue_capacity(opts: ReproOptions, queue_capacity: usize) -> Self {
        assert!(queue_capacity > 0, "queue capacity must be positive");
        let cache = if opts.disk_cache {
            SweepCache::with_disk(opts.seed, opts.results_dir.join(".cache"))
        } else {
            SweepCache::new(opts.seed)
        };
        let pool = JobPool::new(opts.jobs);
        Self {
            opts,
            cache,
            pool,
            state: Mutex::new(ServiceState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                inflight: 0,
                draining: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            metrics: ServiceMetrics::default(),
            queue_capacity,
        }
    }

    /// Borrows a session for running experiments (not bound to any job).
    #[must_use]
    pub fn session(&self) -> SweepSession<'_> {
        SweepSession {
            opts: &self.opts,
            cache: &self.cache,
            pool: &self.pool,
            job: None,
        }
    }

    /// The run options the service was built with.
    #[must_use]
    pub fn opts(&self) -> &ReproOptions {
        &self.opts
    }

    /// The shared sweep cache (hit/miss accounting).
    #[must_use]
    pub fn cache(&self) -> &SweepCache {
        &self.cache
    }

    /// The shared worker budget.
    #[must_use]
    pub fn pool(&self) -> &JobPool {
        &self.pool
    }

    /// Runs registered experiment targets through the scheduler — the
    /// `repro` CLI path — recording per-target wall-clock in the
    /// service metrics.
    #[must_use]
    pub fn run_targets(
        &self,
        selected: &[&'static dyn crate::experiments::Experiment],
    ) -> Vec<RunOutcome> {
        let outcomes = run_schedule(selected, &self.session());
        let mut walls = self.metrics.target_walls.lock().expect("metrics lock");
        for o in &outcomes {
            walls.push((o.name.to_owned(), o.seconds));
        }
        drop(walls);
        outcomes
    }

    /// Runs a scenario batch synchronously and renders the standard
    /// report — the `repro scenario <file>` CLI path.
    ///
    /// # Errors
    /// Returns the first [`ScenarioError`] across the batch.
    pub fn run_report(&self, specs: &[ScenarioSpec]) -> Result<String, ScenarioError> {
        scenario_report(&self.session(), specs)
    }

    /// Submits a scenario batch. Returns the job plus whether it was
    /// **newly enqueued** (`false` means the batch deduplicated onto an
    /// existing job — queued, running or finished — whose stored event
    /// log and report answer the submission with zero simulation).
    ///
    /// # Errors
    /// [`SubmitError::Saturated`] when the bounded queue is full,
    /// [`SubmitError::Draining`] once [`drain`](Self::drain) has begun.
    pub fn submit(&self, specs: Vec<ScenarioSpec>) -> Result<(Arc<SweepJob>, bool), SubmitError> {
        let fingerprint = batch_fingerprint(&specs);
        let mut state = self.state.lock().expect("service lock");
        if let Some(existing) = state.jobs.get(&fingerprint) {
            let job = Arc::clone(existing);
            drop(state);
            self.metrics.deduped.fetch_add(1, Ordering::Relaxed);
            return Ok((job, false));
        }
        if state.draining {
            drop(state);
            self.metrics
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Draining);
        }
        if state.queue.len() >= self.queue_capacity {
            drop(state);
            self.metrics
                .rejected_saturated
                .fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Saturated {
                capacity: self.queue_capacity,
            });
        }
        let job = Arc::new(SweepJob::new(fingerprint, specs));
        state.jobs.insert(fingerprint, Arc::clone(&job));
        state.queue.push_back(Arc::clone(&job));
        drop(state);
        self.metrics.submitted.fetch_add(1, Ordering::Relaxed);
        self.work.notify_all();
        Ok((job, true))
    }

    /// Looks a job up by fingerprint.
    #[must_use]
    pub fn job(&self, fingerprint: u64) -> Option<Arc<SweepJob>> {
        self.state
            .lock()
            .expect("service lock")
            .jobs
            .get(&fingerprint)
            .cloned()
    }

    /// Blocks until a queued job is available (claiming it as in-flight)
    /// or the service is draining with an empty queue (`None` — the
    /// worker loop should exit).
    #[must_use]
    pub fn next_job(&self) -> Option<Arc<SweepJob>> {
        let mut state = self.state.lock().expect("service lock");
        loop {
            if let Some(job) = state.queue.pop_front() {
                state.inflight += 1;
                return Some(job);
            }
            if state.draining {
                return None;
            }
            state = self.work.wait(state).expect("service lock");
        }
    }

    /// Executes a claimed job to its terminal phase: runs the batch
    /// through [`crate::runner::scenario_report`] with a job-bound
    /// session (progress events, cancellation checks), stores the report
    /// or error, and updates the service counters. A panic inside the
    /// batch is contained: the job fails with code `internal-panic`, its
    /// in-flight slot is released, and the service keeps serving.
    pub fn execute(&self, job: &Arc<SweepJob>) {
        self.execute_with(job, scenario_report);
    }

    /// [`execute`](Self::execute) with the batch runner as a parameter, so
    /// tests can drive the guarded path with a runner that panics.
    fn execute_with(
        &self,
        job: &Arc<SweepJob>,
        run: impl FnOnce(&SweepSession, &[ScenarioSpec]) -> Result<String, ScenarioError>,
    ) {
        // Each path updates the metrics, the in-flight gauge included,
        // before publishing the terminal event, so a client that has read
        // the event sees this job finished in `/metrics`.
        if job.is_cancelled() {
            self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            self.finish_inflight();
            job.finish(
                JobPhase::Cancelled,
                None,
                None,
                0.0,
                ProgressEvent::Cancelled,
            );
            return;
        }
        job.set_phase(JobPhase::Running);
        job.push_event(ProgressEvent::Started);
        let session = SweepSession {
            opts: &self.opts,
            cache: &self.cache,
            pool: &self.pool,
            job: Some(job),
        };
        let started = Instant::now();
        // Nothing the batch shares with later jobs is left half-updated by
        // an unwind: pool permits return on drop, a panicking cache
        // computation frees its key and wakes its waiters, and Monte-Carlo
        // workers are joined by their scope before the panic leaves it.
        let result = panic::catch_unwind(AssertUnwindSafe(|| run(&session, &job.specs)))
            .unwrap_or_else(|payload| {
                Err(ScenarioError::Panicked {
                    message: panic_message(payload.as_ref()),
                })
            });
        let wall = started.elapsed().as_secs_f64();
        let mut walls = self.metrics.target_walls.lock().expect("metrics lock");
        walls.push((format!("job:{:016x}", job.fingerprint), wall));
        drop(walls);
        let (phase, report, error, event) = match result {
            Ok(report) => {
                self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                let event = ProgressEvent::Done {
                    scenarios: job.specs.len(),
                };
                (JobPhase::Done, Some(report), None, event)
            }
            Err(ScenarioError::Cancelled) => {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                let error = Some(ScenarioError::Cancelled);
                (JobPhase::Cancelled, None, error, ProgressEvent::Cancelled)
            }
            Err(error) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                let event = ProgressEvent::Failed {
                    code: error.code(),
                    message: error.to_string(),
                };
                (JobPhase::Failed, None, Some(error), event)
            }
        };
        self.finish_inflight();
        job.finish(phase, report, error, wall, event);
    }

    /// One resident worker loop: claim → execute until drain. The daemon
    /// runs exactly one of these threads, so jobs execute serially in
    /// submission order (inner sweep points still parallelize over the
    /// pool) and event streams are deterministic at `--jobs 1`.
    pub fn serve_worker(&self) {
        self.serve_with(scenario_report);
    }

    /// [`serve_worker`](Self::serve_worker) over
    /// [`execute_with`](Self::execute_with)'s runner parameter.
    fn serve_with(
        &self,
        run: impl Fn(&SweepSession, &[ScenarioSpec]) -> Result<String, ScenarioError>,
    ) {
        while let Some(job) = self.next_job() {
            self.execute_with(&job, &run);
        }
    }

    /// Requests cancellation. A queued job is cancelled immediately
    /// (removed from the queue); a running job observes the flag before
    /// its next scenario or hash-level cross-check repetition, so it ends
    /// once the closed-form ensembles and repetitions in flight finish.
    /// Returns whether the fingerprint named a live (non-terminal) job.
    pub fn cancel(&self, fingerprint: u64) -> bool {
        let mut state = self.state.lock().expect("service lock");
        let Some(job) = state.jobs.get(&fingerprint).cloned() else {
            return false;
        };
        if job.phase().is_terminal() {
            return false;
        }
        job.cancelled.store(true, Ordering::Relaxed);
        let was_queued = state
            .queue
            .iter()
            .position(|j| j.fingerprint == fingerprint)
            .map(|i| state.queue.remove(i));
        drop(state);
        if was_queued.is_some() {
            job.finish(
                JobPhase::Cancelled,
                None,
                None,
                0.0,
                ProgressEvent::Cancelled,
            );
            self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Begins draining: no new submissions are accepted, queued jobs
    /// still run, and the call blocks until the queue is empty and no
    /// job is in flight. The worker leaves a job's in-flight count just
    /// before publishing its terminal event, so join the worker thread
    /// (as `fairness-serve` does) to wait for that event. Idempotent.
    pub fn drain(&self) {
        let mut state = self.state.lock().expect("service lock");
        state.draining = true;
        self.work.notify_all();
        while !state.queue.is_empty() || state.inflight > 0 {
            state = self.idle.wait(state).expect("service lock");
        }
    }

    /// A point-in-time snapshot of every counter.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let (queue_depth, inflight) = {
            let state = self.state.lock().expect("service lock");
            (state.queue.len(), state.inflight as u64)
        };
        MetricsSnapshot {
            jobs_submitted: self.metrics.submitted.load(Ordering::Relaxed),
            jobs_deduped: self.metrics.deduped.load(Ordering::Relaxed),
            jobs_completed: self.metrics.completed.load(Ordering::Relaxed),
            jobs_failed: self.metrics.failed.load(Ordering::Relaxed),
            jobs_cancelled: self.metrics.cancelled.load(Ordering::Relaxed),
            jobs_rejected_saturated: self.metrics.rejected_saturated.load(Ordering::Relaxed),
            jobs_rejected_draining: self.metrics.rejected_draining.load(Ordering::Relaxed),
            queue_depth,
            jobs_inflight: inflight,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            disk_hits: self.cache.disk_hits(),
            target_walls: self
                .metrics
                .target_walls
                .lock()
                .expect("metrics lock")
                .clone(),
        }
    }

    fn finish_inflight(&self) {
        let mut state = self.state.lock().expect("service lock");
        state.inflight = state.inflight.saturating_sub(1);
        drop(state);
        self.idle.notify_all();
    }
}

/// Everything a sweep needs while executing: options, the shared cache,
/// the shared worker budget — and, when driven by the service's job
/// queue, a backref to the job for progress events and cancellation.
#[derive(Debug, Clone, Copy)]
pub struct SweepSession<'a> {
    /// Scale/seed/output options.
    pub opts: &'a ReproOptions,
    /// Memoized closed-form ensembles, shared by all work of a run.
    pub cache: &'a SweepCache,
    /// Worker budget shared by the scheduler and inner sweeps.
    pub pool: &'a JobPool,
    /// The job this session executes for, when queue-driven.
    job: Option<&'a SweepJob>,
}

impl<'a> SweepSession<'a> {
    /// A memoized closed-form ensemble at the run's default repetition
    /// count (no withholding).
    pub fn ensemble<P>(
        &self,
        protocol: &P,
        shares: &[f64],
        checkpoints: &[u64],
    ) -> Arc<EnsembleSummary>
    where
        P: IncentiveProtocol + Clone,
    {
        self.cache
            .ensemble(protocol, shares, checkpoints, self.opts.repetitions, None)
    }

    /// A memoized closed-form ensemble with explicit repetitions and
    /// optional withholding schedule.
    pub fn ensemble_with<P>(
        &self,
        protocol: &P,
        shares: &[f64],
        checkpoints: &[u64],
        repetitions: usize,
        withholding: Option<WithholdingSchedule>,
    ) -> Arc<EnsembleSummary>
    where
        P: IncentiveProtocol + Clone,
    {
        self.cache
            .ensemble(protocol, shares, checkpoints, repetitions, withholding)
    }

    /// Whether the driving job (if any) was asked to cancel. Sweeps
    /// check this between scenarios and between a cross-check's
    /// repetitions; sessions without a job never cancel.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.job.is_some_and(SweepJob::is_cancelled)
    }

    /// Appends a progress event to the driving job's log (no-op for
    /// sessions without a job — the CLI path stays event-free).
    pub fn emit(&self, event: ProgressEvent) {
        if let Some(job) = self.job {
            job.push_event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testutil::tiny_opts;
    use fairness_core::scenario::ProtocolSpec;

    fn spec(name: &str, w: f64) -> ScenarioSpec {
        ScenarioSpec::builder(name, ProtocolSpec::new("ml-pos").with("w", w))
            .two_miner(0.2)
            .explicit(vec![50, 100])
            .repetitions(30)
            .build()
    }

    fn service(suffix: &str) -> SweepService {
        SweepService::new(tiny_opts(suffix))
    }

    #[test]
    fn submit_execute_fetch_round_trip() {
        let svc = service("svc-roundtrip");
        let (job, fresh) = svc.submit(vec![spec("a", 0.01)]).expect("submit");
        assert!(fresh);
        assert_eq!(job.phase(), JobPhase::Queued);
        let claimed = svc.next_job().expect("queued job");
        assert_eq!(claimed.fingerprint(), job.fingerprint());
        svc.execute(&claimed);
        assert_eq!(job.phase(), JobPhase::Done);
        let report = job.report().expect("report stored");
        assert!(report.contains("\"a\""));
        let m = svc.metrics();
        assert_eq!(m.jobs_submitted, 1);
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.jobs_inflight, 0);
        let _ = std::fs::remove_dir_all(&svc.opts().results_dir);
    }

    #[test]
    fn duplicate_submission_dedups_onto_the_existing_job() {
        let svc = service("svc-dedup");
        let (first, fresh) = svc.submit(vec![spec("a", 0.01)]).expect("submit");
        assert!(fresh);
        let claimed = svc.next_job().expect("job");
        svc.execute(&claimed);
        let misses = svc.cache().misses();

        let (second, fresh) = svc.submit(vec![spec("a", 0.01)]).expect("resubmit");
        assert!(!fresh, "identical batch must dedup");
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(svc.cache().misses(), misses, "zero new simulation work");
        assert_eq!(svc.metrics().jobs_deduped, 1);

        // The replayed event log is byte-identical to the original stream.
        let (events, _, done) = second.events_since(0);
        assert!(done);
        let replay: String = events
            .iter()
            .map(|e| e.ndjson_line(second.fingerprint()))
            .collect();
        let (events2, _, _) = first.events_since(0);
        let original: String = events2
            .iter()
            .map(|e| e.ndjson_line(first.fingerprint()))
            .collect();
        assert_eq!(replay, original);
        let _ = std::fs::remove_dir_all(&svc.opts().results_dir);
    }

    #[test]
    fn event_log_is_ordered_and_terminal() {
        let svc = service("svc-events");
        let (job, _) = svc
            .submit(vec![spec("a", 0.01), spec("b", 0.02)])
            .expect("submit");
        let claimed = svc.next_job().expect("job");
        svc.execute(&claimed);
        let (events, next, done) = job.events_since(0);
        assert!(done);
        assert_eq!(next, events.len());
        assert_eq!(events[0], ProgressEvent::Queued { scenarios: 2 });
        assert_eq!(events[1], ProgressEvent::Started);
        // Scenario events are emitted in index order.
        assert!(matches!(
            events[2],
            ProgressEvent::Scenario { index: 0, .. }
        ));
        assert!(matches!(
            events[3],
            ProgressEvent::Scenario { index: 1, .. }
        ));
        assert_eq!(
            *events.last().expect("events"),
            ProgressEvent::Done { scenarios: 2 }
        );
        // Cursors resume mid-stream.
        let (tail, _, _) = job.events_since(next - 1);
        assert_eq!(tail.len(), 1);
        let _ = std::fs::remove_dir_all(&svc.opts().results_dir);
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let svc = SweepService::with_queue_capacity(tiny_opts("svc-backpressure"), 2);
        svc.submit(vec![spec("a", 0.01)]).expect("fits");
        svc.submit(vec![spec("b", 0.02)]).expect("fits");
        let err = svc
            .submit(vec![spec("c", 0.03)])
            .expect_err("third must saturate");
        assert_eq!(err, SubmitError::Saturated { capacity: 2 });
        assert_eq!(svc.metrics().jobs_rejected_saturated, 1);
        // Dedup still answers while saturated.
        let (_, fresh) = svc.submit(vec![spec("a", 0.01)]).expect("dedup");
        assert!(!fresh);
    }

    #[test]
    fn drain_refuses_new_work_and_waits_for_the_queue() {
        let svc = service("svc-drain");
        svc.submit(vec![spec("a", 0.01)]).expect("submit");
        std::thread::scope(|scope| {
            scope.spawn(|| svc.serve_worker());
            svc.drain();
            let err = svc.submit(vec![spec("z", 0.05)]).expect_err("draining");
            assert_eq!(err, SubmitError::Draining);
        });
        let m = svc.metrics();
        assert_eq!(m.jobs_completed, 1, "queued work drained, not dropped");
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.jobs_inflight, 0);
        assert_eq!(m.jobs_rejected_draining, 1);
        let _ = std::fs::remove_dir_all(&svc.opts().results_dir);
    }

    #[test]
    fn queued_job_cancels_immediately() {
        let svc = service("svc-cancel");
        let (job, _) = svc.submit(vec![spec("a", 0.01)]).expect("submit");
        assert!(svc.cancel(job.fingerprint()));
        assert_eq!(job.phase(), JobPhase::Cancelled);
        let (events, _, done) = job.events_since(0);
        assert!(done);
        assert_eq!(*events.last().expect("events"), ProgressEvent::Cancelled);
        assert_eq!(svc.metrics().jobs_cancelled, 1);
        assert_eq!(svc.metrics().queue_depth, 0, "removed from the queue");
        // Terminal jobs cannot be re-cancelled; unknown fingerprints miss.
        assert!(!svc.cancel(job.fingerprint()));
        assert!(!svc.cancel(0xdead));
    }

    /// A cancel that lands inside a hash-level cross-check ends the job
    /// once the repetitions in flight finish, not after the whole
    /// cross-check, and spills no partial system summary.
    #[test]
    fn cancel_lands_inside_a_running_cross_check() {
        let mut opts = tiny_opts("svc-cancel-system");
        opts.with_system = true;
        opts.disk_cache = true;
        // 200 repetitions of a 2·10⁴-block network: about 40 s of
        // hash-level work on two cores, far past the deadline below.
        opts.system_repetitions = 200;
        let cache_dir = opts.results_dir.join(".cache");
        let _ = std::fs::remove_dir_all(&opts.results_dir);
        let svc = SweepService::new(opts);
        let slow = ScenarioSpec::builder("slow", ProtocolSpec::new("sl-pos").with("w", 0.01))
            .two_miner(0.2)
            .explicit(vec![50])
            .repetitions(30)
            .system("sl-pos", 20_000, 1)
            .build();
        let (job, _) = svc.submit(vec![slow]).expect("submit");
        let deadline = Instant::now() + Duration::from_secs(15);
        std::thread::scope(|scope| {
            scope.spawn(|| svc.execute(&svc.next_job().expect("job")));
            // The closed-form ensemble is memoized just before the
            // cross-check starts, so the cancel lands inside it.
            while svc.cache().is_empty() {
                assert!(Instant::now() < deadline, "the ensemble never finished");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(svc.cancel(job.fingerprint()));
            let mut cursor = 0;
            loop {
                let (_, after, done) = job.wait_events(cursor, Duration::from_millis(100));
                if done {
                    break;
                }
                cursor = after;
                assert!(Instant::now() < deadline, "the cross-check ran on");
            }
        });
        assert_eq!(job.phase(), JobPhase::Cancelled);
        let (events, _, _) = job.events_since(0);
        assert_eq!(events.last(), Some(&ProgressEvent::Cancelled));
        assert_eq!(svc.metrics().jobs_cancelled, 1);
        let spilled = crate::experiments::diskcache::scan(&cache_dir).expect("scan");
        assert_eq!(spilled.entries, 1, "the ensemble's spill only");
        let _ = std::fs::remove_dir_all(&svc.opts().results_dir);
    }

    /// A cancel that lands inside a closed-form ensemble ends the job once
    /// the repetitions in flight finish, not after the whole ensemble, and
    /// leaves the ensemble neither memoized nor spilled.
    #[test]
    fn cancel_lands_inside_a_running_ensemble() {
        let mut opts = tiny_opts("svc-cancel-ensemble");
        opts.disk_cache = true;
        let cache_dir = opts.results_dir.join(".cache");
        let _ = std::fs::remove_dir_all(&opts.results_dir);
        let svc = Arc::new(SweepService::new(opts));
        // 10⁴ repetitions of 10⁶ blocks: about 10¹⁰ steps, hours of work.
        let long = ScenarioSpec::builder("long", ProtocolSpec::new("ml-pos").with("w", 0.01))
            .two_miner(0.2)
            .linear(1_000_000, 5)
            .repetitions(10_000)
            .build();
        let (job, _) = svc.submit(vec![long]).expect("submit");
        // Detached, so that an ensemble that ignores the cancel fails the
        // deadline below instead of holding the test until it finishes.
        let worker = {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || svc.execute(&svc.next_job().expect("job")))
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.cache().misses() == 0 {
            assert!(Instant::now() < deadline, "the ensemble never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(svc.cancel(job.fingerprint()));
        let mut cursor = 0;
        loop {
            let (_, after, done) = job.wait_events(cursor, Duration::from_millis(100));
            if done {
                break;
            }
            cursor = after;
            assert!(Instant::now() < deadline, "the ensemble ran on");
        }
        worker.join().expect("executor");
        assert_eq!(job.phase(), JobPhase::Cancelled);
        let (events, _, _) = job.events_since(0);
        assert_eq!(events.last(), Some(&ProgressEvent::Cancelled));
        assert!(
            svc.cache().is_empty(),
            "a cancelled ensemble is not memoized"
        );
        let spilled = crate::experiments::diskcache::scan(&cache_dir).expect("scan");
        assert_eq!(spilled.entries, 0, "a cancelled ensemble is not spilled");
        let _ = std::fs::remove_dir_all(&svc.opts().results_dir);
    }

    #[test]
    fn failed_jobs_carry_the_error_code() {
        let svc = service("svc-fail");
        let bad = ScenarioSpec::builder("broken", ProtocolSpec::new("nope"))
            .two_miner(0.2)
            .explicit(vec![50])
            .repetitions(10)
            .build();
        let (job, _) = svc.submit(vec![bad]).expect("submit");
        let claimed = svc.next_job().expect("job");
        svc.execute(&claimed);
        assert_eq!(job.phase(), JobPhase::Failed);
        let (events, _, _) = job.events_since(0);
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Failed {
                code: "registry",
                ..
            })
        ));
        assert_eq!(svc.metrics().jobs_failed, 1);
        assert!(job.error().is_some());
    }

    /// A zero-share `system` cross-check that skipped the `.scn` parser's
    /// validation fails its job with the typed code instead of panicking
    /// the executor, and the service runs the next job.
    #[test]
    fn zero_share_system_fails_with_its_code() {
        let mut opts = tiny_opts("svc-zero-share");
        opts.with_system = true;
        let svc = SweepService::new(opts);
        let mut bad = ScenarioSpec::builder("zero share", ProtocolSpec::new("pow").with("w", 0.01))
            .two_miner(0.2)
            .explicit(vec![50])
            .system("pow", 50, 7)
            .build();
        bad.shares = fairness_core::scenario::SharesSpec::Explicit(vec![0.0, 1.0]);
        let (job, _) = svc.submit(vec![bad]).expect("submit");
        svc.execute(&svc.next_job().expect("job"));
        assert_eq!(job.phase(), JobPhase::Failed);
        let (events, _, _) = job.events_since(0);
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Failed {
                code: "system-needs-positive-shares",
                ..
            })
        ));
        let (next, _) = svc.submit(vec![spec("after", 0.01)]).expect("submit");
        svc.execute(&svc.next_job().expect("job"));
        assert_eq!(next.phase(), JobPhase::Done);
        assert_eq!(svc.metrics().jobs_inflight, 0);
    }

    /// A batch that panics — here inside a pool worker, as a bug in
    /// simulation code would — fails its job with `internal-panic` through
    /// the same guarded path `serve_worker` takes; the in-flight slot and
    /// the pool's permits come back, and the worker runs the next job.
    #[test]
    fn panicking_batch_fails_its_job_and_the_worker_serves_on() {
        let mut opts = tiny_opts("svc-panic");
        opts.jobs = 2;
        let svc = SweepService::new(opts);
        let (bad, _) = svc.submit(vec![spec("boom", 0.01)]).expect("submit");
        let (next, _) = svc.submit(vec![spec("after", 0.01)]).expect("submit");
        std::thread::scope(|scope| {
            scope.spawn(|| {
                svc.serve_with(|session, specs| {
                    if specs[0].name == "boom" {
                        session
                            .pool
                            .par_map(4, |i| assert!(i < 3, "injected failure in item {i}"));
                    }
                    scenario_report(session, specs)
                });
            });
            // A bounded wait rather than `drain` alone, so a worker that
            // died with the first job fails the test instead of hanging it.
            let deadline = Instant::now() + Duration::from_secs(60);
            let mut cursor = 0;
            loop {
                let (_, after, done) = next.wait_events(cursor, Duration::from_millis(100));
                if done {
                    break;
                }
                cursor = after;
                assert!(Instant::now() < deadline, "the worker stopped serving");
            }
            svc.drain();
        });
        assert_eq!(bad.phase(), JobPhase::Failed);
        let (events, _, done) = bad.events_since(0);
        assert!(done, "the panicking job's stream ends");
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Failed {
                code: "internal-panic",
                ..
            })
        ));
        assert!(matches!(bad.error(), Some(ScenarioError::Panicked { .. })));
        assert_eq!(next.phase(), JobPhase::Done, "the next queued job ran");
        let m = svc.metrics();
        assert_eq!(m.jobs_failed, 1);
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.jobs_inflight, 0);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(svc.pool().free_permits(), 1, "pool permits returned");
        let _ = std::fs::remove_dir_all(&svc.opts().results_dir);
    }

    #[test]
    fn metrics_render_as_prometheus_text() {
        let svc = service("svc-prom");
        let (_, _) = svc.submit(vec![spec("a", 0.01)]).expect("submit");
        let claimed = svc.next_job().expect("job");
        svc.execute(&claimed);
        let text = svc.metrics().to_prometheus();
        assert!(text.contains("fairness_jobs_submitted_total 1"));
        assert!(text.contains("fairness_jobs_completed_total 1"));
        assert!(text.contains("fairness_queue_depth 0"));
        assert!(text.contains("fairness_ensemble_cache_misses_total"));
        assert!(text.contains("# TYPE fairness_jobs_submitted_total counter"));
        assert!(text.contains("fairness_target_wall_seconds{target=\"job:"));
        let _ = std::fs::remove_dir_all(&svc.opts().results_dir);
    }

    #[test]
    fn ndjson_lines_are_stable_and_escaped() {
        let line = ProgressEvent::Scenario {
            index: 3,
            name: "we\"ird\nname".into(),
            fingerprint: 0xabc,
        }
        .ndjson_line(0x12);
        assert_eq!(
            line,
            "{\"job\":\"0000000000000012\",\"event\":\"scenario\",\"index\":3,\"name\":\"we\\\"ird\\nname\",\"fingerprint\":\"0000000000000abc\"}\n"
        );
        assert_eq!(
            ProgressEvent::Queued { scenarios: 6 }.ndjson_line(1),
            "{\"job\":\"0000000000000001\",\"event\":\"queued\",\"scenarios\":6}\n"
        );
        assert_eq!(json_escape("a\\b\tc\u{1}"), "a\\\\b\\tc\\u0001");
    }

    #[test]
    fn batch_fingerprint_covers_names_and_content() {
        let a = vec![spec("a", 0.01)];
        let renamed = vec![spec("b", 0.01)];
        let retuned = vec![spec("a", 0.02)];
        assert_eq!(batch_fingerprint(&a), batch_fingerprint(&a.clone()));
        assert_ne!(batch_fingerprint(&a), batch_fingerprint(&renamed));
        assert_ne!(batch_fingerprint(&a), batch_fingerprint(&retuned));
    }
}

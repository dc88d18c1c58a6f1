//! Content-addressed memoization of closed-form ensembles.
//!
//! The paper's figures sweep overlapping grids: Figure 2's `a = 0.2`
//! panels are Figure 3's `a = 0.2` columns, Figure 5(c)'s `w = 0.01` point
//! equals Figure 5(d)'s `v = 0.1` point, and the ablations re-anchor at
//! the paper-default C-PoS. Instead of recomputing (as the pre-registry
//! harness did, with ad-hoc per-figure seed salts), every ensemble is
//! keyed by its *semantic content* — protocol fingerprint, shares,
//! checkpoints, repetitions, `(ε, δ)` and withholding — and cached.
//!
//! The key also *derives the ensemble's seed* (mixed with the run's master
//! seed via [`StableHasher`]). That is what makes sharing sound: two
//! figures requesting the same configuration get the same seed, hence the
//! same trajectories, hence one cache entry — and results stay
//! bit-identical whatever the scheduling, thread count, or subset of
//! experiments selected.

use super::diskcache;
use crate::runner::ScenarioError;
use fairness_core::fairness::EpsilonDelta;
use fairness_core::montecarlo::{
    run_ensemble_cancellable, run_ensemble_settled, EnsembleConfig, EnsembleSummary,
};
use fairness_core::protocol::IncentiveProtocol;
use fairness_core::withholding::WithholdingSchedule;
use fairness_stats::cache::{MemoCache, StableHasher};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The semantic identity of a closed-form ensemble computation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnsembleKey {
    protocol: &'static str,
    compound: bool,
    /// Protocol parameters ([`IncentiveProtocol::params`]), by bit pattern.
    params: Vec<u64>,
    /// Initial shares, by bit pattern.
    shares: Vec<u64>,
    checkpoints: Vec<u64>,
    repetitions: usize,
    /// `(ε, δ)` by bit pattern.
    eps_delta: (u64, u64),
    /// Withholding period, if any.
    withholding: Option<u64>,
    /// Set for a settled probe ([`SweepCache::settled_probe`]), which
    /// stops at the first repetition prefix that settles `mean λ_A > 1/2`:
    /// a different result from the full ensemble, so it never shares its
    /// memo entry or spill file. Left out of [`seed`](Self::seed), so a
    /// probe's repetitions are the full ensemble's first ones.
    settled: bool,
}

impl EnsembleKey {
    /// Builds the key for running `protocol` from `shares` over
    /// `checkpoints`.
    #[must_use]
    pub fn new<P: IncentiveProtocol>(
        protocol: &P,
        shares: &[f64],
        checkpoints: &[u64],
        repetitions: usize,
        eps_delta: EpsilonDelta,
        withholding: Option<WithholdingSchedule>,
    ) -> Self {
        Self {
            protocol: protocol.name(),
            compound: protocol.rewards_compound(),
            params: protocol.params().iter().map(|p| p.to_bits()).collect(),
            shares: shares.iter().map(|s| s.to_bits()).collect(),
            checkpoints: checkpoints.to_vec(),
            repetitions,
            eps_delta: (eps_delta.epsilon.to_bits(), eps_delta.delta.to_bits()),
            withholding: withholding.map(|w| w.period),
            settled: false,
        }
    }

    /// The key of the settled probe over the same configuration.
    #[must_use]
    pub(crate) fn settled(self) -> Self {
        Self {
            settled: true,
            ..self
        }
    }

    /// The on-disk spill digest for this key under `master_seed`: a
    /// domain-separated, versioned rehash of [`seed`](Self::seed), so spill
    /// files are invalidated wholesale when the format changes and can
    /// never collide with the RNG-seed domain by construction.
    ///
    /// The digest starts from the spill module's common prefix (crate
    /// version and simulation revision): a spilled ensemble is only a
    /// *cache* of what the current code would compute, so any release —
    /// and any simulation-behavior change, which must bump the revision —
    /// orphans every existing spill rather than serving stale
    /// trajectories.
    ///
    /// A settled probe's digest starts from its own domain tag, so it can
    /// never name the full ensemble's spill file.
    #[must_use]
    pub fn disk_digest(&self, master_seed: u64) -> u64 {
        let mut h = diskcache::spill_hasher(if self.settled {
            "settled-probe-spill-v1"
        } else {
            "ensemble-spill-v1"
        });
        h.write_u64(self.seed(master_seed));
        h.finish()
    }

    /// The ensemble's master seed: a stable digest of the key mixed with
    /// the run's master seed. Content-derived, so identical configurations
    /// collide on purpose and unrelated ones get well-separated streams.
    #[must_use]
    pub fn seed(&self, master_seed: u64) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(master_seed);
        h.write_str(self.protocol);
        h.write_u64(u64::from(self.compound));
        h.write_u64(self.params.len() as u64);
        for &p in &self.params {
            h.write_u64(p);
        }
        h.write_u64(self.shares.len() as u64);
        for &s in &self.shares {
            h.write_u64(s);
        }
        h.write_u64(self.checkpoints.len() as u64);
        for &c in &self.checkpoints {
            h.write_u64(c);
        }
        h.write_u64(self.repetitions as u64);
        h.write_u64(self.eps_delta.0);
        h.write_u64(self.eps_delta.1);
        h.write_u64(self.withholding.map_or(u64::MAX, |p| p));
        h.finish()
    }
}

/// Memoized closed-form ensembles, shared by every experiment of a run.
///
/// Optionally backed by a content-addressed on-disk spill
/// ([`with_disk`](Self::with_disk)), in which case a process-level miss
/// first consults `dir` before computing, and every computed ensemble is
/// spilled for future invocations. Disk reuse is invisible to results:
/// the spill format round-trips `f64`s bit-exactly (see
/// `diskcache`), and the digest covers the master seed, so a
/// `--seed` change can never serve stale trajectories.
#[derive(Debug)]
pub struct SweepCache {
    master_seed: u64,
    eps_delta: EpsilonDelta,
    inner: MemoCache<EnsembleKey, Arc<EnsembleSummary>>,
    disk: Option<PathBuf>,
    disk_hits: AtomicU64,
}

impl SweepCache {
    /// Creates a cache whose ensemble seeds mix in `master_seed` (the
    /// `--seed` flag), evaluated at the paper's default `(ε, δ)`.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self {
            master_seed,
            eps_delta: EpsilonDelta::default(),
            inner: MemoCache::new(),
            disk: None,
            disk_hits: AtomicU64::new(0),
        }
    }

    /// Like [`new`](Self::new), additionally persisting every ensemble
    /// under `dir` (created on first write) and loading spilled ensembles
    /// on process-level misses.
    #[must_use]
    pub fn with_disk(master_seed: u64, dir: PathBuf) -> Self {
        Self {
            disk: Some(dir),
            ..Self::new(master_seed)
        }
    }

    /// Returns the ensemble for this configuration, computing it at most
    /// once per cache lifetime.
    pub fn ensemble<P>(
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
        self.try_ensemble(
            protocol,
            shares,
            checkpoints,
            repetitions,
            withholding,
            || false,
        )
        .expect("an ensemble nobody cancels runs every repetition")
    }

    /// [`ensemble`](Self::ensemble) for a cancellable caller
    /// ([`run_ensemble_cancellable`]): once `cancelled` returns `true`, no
    /// further repetition starts and the lookup returns
    /// [`ScenarioError::Cancelled`], memoizing and spilling nothing, so a
    /// later lookup computes the ensemble afresh. A repetition that has
    /// started runs to its end.
    pub(crate) fn try_ensemble<P>(
        &self,
        protocol: &P,
        shares: &[f64],
        checkpoints: &[u64],
        repetitions: usize,
        withholding: Option<WithholdingSchedule>,
        cancelled: impl Fn() -> bool + Sync,
    ) -> Result<Arc<EnsembleSummary>, ScenarioError>
    where
        P: IncentiveProtocol + Clone,
    {
        let key = EnsembleKey::new(
            protocol,
            shares,
            checkpoints,
            repetitions,
            self.eps_delta,
            withholding,
        );
        self.lookup(
            key,
            shares,
            checkpoints,
            repetitions,
            withholding,
            |config| {
                run_ensemble_cancellable(protocol, config, cancelled)
                    .ok_or(ScenarioError::Cancelled)
            },
        )
    }

    /// A monopolization-threshold probe: like [`ensemble`](Self::ensemble)
    /// without withholding, but the ensemble stops at the first repetition
    /// prefix that settles whether miner A's mean final `λ` exceeds 1/2
    /// ([`run_ensemble_settled`]). The summary covers exactly that prefix
    /// (its `repetitions` is the prefix length, at any `--jobs`), and its
    /// `final_point().mean > 0.5` is the full ensemble's verdict.
    ///
    /// Seeded by the unchanged [`EnsembleKey::seed`]; memoized and spilled
    /// under the settled key and digest, so a probe never answers, or is
    /// answered by, a full-ensemble lookup. Counts toward
    /// [`hits`](Self::hits) and [`misses`](Self::misses) like any lookup.
    pub fn settled_probe<P>(
        &self,
        protocol: &P,
        shares: &[f64],
        checkpoints: &[u64],
        repetitions: usize,
    ) -> Arc<EnsembleSummary>
    where
        P: IncentiveProtocol + Clone,
    {
        let key = EnsembleKey::new(
            protocol,
            shares,
            checkpoints,
            repetitions,
            self.eps_delta,
            None,
        )
        .settled();
        let Ok(summary) = self.lookup(key, shares, checkpoints, repetitions, None, |config| {
            Ok::<_, std::convert::Infallible>(run_ensemble_settled(protocol, config))
        });
        summary
    }

    /// The memoized, spilled lookup behind [`ensemble`](Self::ensemble)
    /// and [`settled_probe`](Self::settled_probe). An error from `compute`
    /// is returned as is and leaves no memo entry and no spill.
    fn lookup<E>(
        &self,
        key: EnsembleKey,
        shares: &[f64],
        checkpoints: &[u64],
        repetitions: usize,
        withholding: Option<WithholdingSchedule>,
        compute: impl FnOnce(&EnsembleConfig) -> Result<EnsembleSummary, E>,
    ) -> Result<Arc<EnsembleSummary>, E> {
        let seed = key.seed(self.master_seed);
        let digest = key.disk_digest(self.master_seed);
        self.inner.try_get_or_insert_with(&key, || {
            // Shape guard against the astronomically unlikely digest
            // collision (and the merely unlikely hand-edited file): a
            // mismatched spill is treated as corrupt. A settled probe
            // holds a prefix of the repetitions.
            let fits = |spilled: &EnsembleSummary| {
                let reps_fit = if key.settled {
                    (1..=repetitions).contains(&spilled.repetitions)
                } else {
                    spilled.repetitions == repetitions
                };
                reps_fit
                    && spilled.points.len() == checkpoints.len()
                    && spilled
                        .points
                        .iter()
                        .zip(checkpoints)
                        .all(|(p, &n)| p.n == n)
            };
            self.try_system_summary(digest, fits, || {
                compute(&EnsembleConfig {
                    initial_shares: shares.to_vec(),
                    checkpoints: checkpoints.to_vec(),
                    repetitions,
                    seed,
                    eps_delta: self.eps_delta,
                    withholding,
                })
            })
            .map(Arc::new)
        })
    }

    /// Returns a **hash-level system summary** through the same disk
    /// spill as the closed-form ensembles: when persistence is on and a
    /// spilled summary under `digest` passes `validate` (the caller's
    /// shape guard against digest collisions), it is served bit-exactly;
    /// otherwise `compute` runs and its result is spilled. System runs
    /// are deterministic functions of their digested configuration, so —
    /// exactly like ensembles, whose lookups take this same path — disk
    /// reuse never changes a byte of output.
    pub fn system_summary(
        &self,
        digest: u64,
        validate: impl Fn(&EnsembleSummary) -> bool,
        compute: impl FnOnce() -> EnsembleSummary,
    ) -> EnsembleSummary {
        let Ok(summary) = self.try_system_summary(digest, validate, || {
            Ok::<_, std::convert::Infallible>(compute())
        });
        summary
    }

    /// [`system_summary`](Self::system_summary) with a fallible
    /// `compute`: an error (a cancelled cross-check) is returned as is,
    /// and nothing is spilled.
    pub(crate) fn try_system_summary<E>(
        &self,
        digest: u64,
        validate: impl Fn(&EnsembleSummary) -> bool,
        compute: impl FnOnce() -> Result<EnsembleSummary, E>,
    ) -> Result<EnsembleSummary, E> {
        if let Some(dir) = &self.disk {
            if let Some(spilled) = diskcache::load(dir, digest) {
                if validate(&spilled) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(spilled);
                }
            }
        }
        let summary = compute()?;
        if let Some(dir) = &self.disk {
            diskcache::store(dir, digest, &summary);
        }
        Ok(summary)
    }

    /// Process-level misses answered from the on-disk spill (a subset of
    /// [`misses`](Self::misses)).
    #[must_use]
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Lookups answered without recomputation.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.inner.hits()
    }

    /// Lookups that ran an ensemble.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.inner.misses()
    }

    /// Number of distinct ensembles held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no ensembles are cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairness_core::prelude::*;

    #[test]
    fn identical_configs_share_one_computation() {
        let cache = SweepCache::new(99);
        let shares = two_miner(0.2);
        let cp = vec![50, 100];
        let a = cache.ensemble(&MlPos::new(0.01), &shares, &cp, 40, None);
        let b = cache.ensemble(&MlPos::new(0.01), &shares, &cp, 40, None);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn distinct_params_distinct_entries_and_streams() {
        let cache = SweepCache::new(99);
        let shares = two_miner(0.2);
        let cp = vec![50, 100];
        let a = cache.ensemble(&MlPos::new(0.01), &shares, &cp, 40, None);
        let b = cache.ensemble(&MlPos::new(0.001), &shares, &cp, 40, None);
        assert_eq!(cache.misses(), 2);
        assert_ne!(a.points, b.points);
    }

    #[test]
    fn same_name_different_protocol_params_do_not_collide() {
        // CPos at different shard counts shares a name; the params
        // fingerprint must keep the entries apart.
        let cache = SweepCache::new(1);
        let shares = two_miner(0.2);
        let cp = vec![100];
        let _ = cache.ensemble(&CPos::new(0.01, 0.0, 1), &shares, &cp, 40, None);
        let _ = cache.ensemble(&CPos::new(0.01, 0.0, 32), &shares, &cp, 40, None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn withholding_is_part_of_the_key() {
        let cache = SweepCache::new(1);
        let shares = two_miner(0.2);
        let cp = vec![100];
        let plain = cache.ensemble(&FslPos::new(0.01), &shares, &cp, 40, None);
        let withheld = cache.ensemble(
            &FslPos::new(0.01),
            &shares,
            &cp,
            40,
            Some(WithholdingSchedule::every(50)),
        );
        assert_eq!(cache.len(), 2);
        assert_ne!(plain.points, withheld.points);
    }

    #[test]
    fn master_seed_changes_every_stream() {
        let key = EnsembleKey::new(
            &MlPos::new(0.01),
            &two_miner(0.2),
            &[100],
            40,
            EpsilonDelta::default(),
            None,
        );
        assert_ne!(key.seed(1), key.seed(2));
        assert_eq!(key.seed(1), key.seed(1));
    }

    #[test]
    fn spill_digests_are_pinned() {
        // Spill files are named by these digests: a digest that moves
        // silently orphans every existing spill, so the recipe is pinned
        // for a full ensemble and a settled probe.
        let full = EnsembleKey::new(
            &MlPos::new(0.01),
            &two_miner(0.2),
            &[50, 100],
            40,
            EpsilonDelta::default(),
            Some(WithholdingSchedule::every(25)),
        );
        assert_eq!(full.disk_digest(99), 0x0e0b_190d_08db_84c6);
        let settled = EnsembleKey::new(
            &SlPos::new(0.01),
            &fairness_core::miner::paper_multi_miner(3, 0.45),
            &[3_000],
            64,
            EpsilonDelta::default(),
            None,
        )
        .settled();
        assert_eq!(settled.disk_digest(21), 0xdda7_bc29_f453_24e3);
    }

    #[test]
    fn disk_spill_survives_process_cache_loss() {
        // Two caches over one directory model two `repro` invocations: the
        // second answers its process-level miss from disk, bit-exactly.
        let dir = std::env::temp_dir().join("fairness-sweepcache-disk");
        let _ = std::fs::remove_dir_all(&dir);
        let shares = two_miner(0.2);
        let cp = vec![50, 100];

        let first = SweepCache::with_disk(99, dir.clone());
        let a = first.ensemble(&MlPos::new(0.01), &shares, &cp, 40, None);
        assert_eq!(first.disk_hits(), 0, "cold disk cannot hit");

        let second = SweepCache::with_disk(99, dir.clone());
        let b = second.ensemble(&MlPos::new(0.01), &shares, &cp, 40, None);
        assert_eq!(second.misses(), 1, "still a process-level miss");
        assert_eq!(second.disk_hits(), 1, "answered from disk");
        assert_eq!(*a, *b, "disk reuse must be bit-exact");

        // A different master seed must not reuse the spill.
        let reseeded = SweepCache::with_disk(100, dir.clone());
        let c = reseeded.ensemble(&MlPos::new(0.01), &shares, &cp, 40, None);
        assert_eq!(reseeded.disk_hits(), 0, "seed is part of the digest");
        assert_ne!(a.points, c.points);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_spill_recomputes_and_heals() {
        let dir = std::env::temp_dir().join("fairness-sweepcache-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let shares = two_miner(0.2);
        let cp = vec![50];

        let cache = SweepCache::with_disk(7, dir.clone());
        let a = cache.ensemble(&SlPos::new(0.01), &shares, &cp, 30, None);

        // Garble the spill file in place.
        let key = EnsembleKey::new(
            &SlPos::new(0.01),
            &shares,
            &cp,
            30,
            EpsilonDelta::default(),
            None,
        );
        let path = diskcache::entry_path(&dir, key.disk_digest(7));
        assert!(path.exists(), "ensemble was spilled");
        std::fs::write(&path, "not an ensemble").expect("corrupt");

        let fresh = SweepCache::with_disk(7, dir.clone());
        let b = fresh.ensemble(&SlPos::new(0.01), &shares, &cp, 30, None);
        assert_eq!(fresh.disk_hits(), 0, "corrupt file must not count as a hit");
        assert_eq!(*a, *b, "recomputation matches (content-derived seed)");

        // The recomputation healed the file.
        let healed = SweepCache::with_disk(7, dir.clone());
        let c = healed.ensemble(&SlPos::new(0.01), &shares, &cp, 30, None);
        assert_eq!(healed.disk_hits(), 1, "healed spill serves again");
        assert_eq!(*a, *c);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn settled_probe_and_full_ensemble_share_no_entry_or_spill() {
        let dir = std::env::temp_dir().join("fairness-sweepcache-settled");
        let _ = std::fs::remove_dir_all(&dir);
        // A two-miner SL-PoS game far below the threshold: the verdict
        // settles long before all 40 repetitions.
        let (shares, cp) = (two_miner(0.1), [2_000]);
        let cache = SweepCache::with_disk(3, dir.clone());
        let probe = cache.settled_probe(&SlPos::new(0.01), &shares, &cp, 40);
        let full = cache.ensemble(&SlPos::new(0.01), &shares, &cp, 40, None);
        assert_eq!(cache.misses(), 2, "neither lookup answered the other");
        assert_eq!(cache.len(), 2, "two memo entries");
        assert!(
            probe.repetitions < full.repetitions,
            "the probe settled early"
        );
        assert_eq!(
            probe.final_point().mean > 0.5,
            full.final_point().mean > 0.5,
            "the same verdict"
        );

        let key = EnsembleKey::new(
            &SlPos::new(0.01),
            &shares,
            &cp,
            40,
            EpsilonDelta::default(),
            None,
        );
        let settled = key.clone().settled();
        assert_ne!(key, settled);
        assert_eq!(key.seed(3), settled.seed(3), "the same repetitions");
        assert_ne!(key.disk_digest(3), settled.disk_digest(3));
        assert_eq!(diskcache::scan(&dir).expect("scan").entries, 2);
        assert_eq!(
            diskcache::load(&dir, key.disk_digest(3)),
            Some((*full).clone())
        );
        assert_eq!(
            diskcache::load(&dir, settled.disk_digest(3)),
            Some((*probe).clone())
        );

        // A fresh cache answers each lookup from its own spill file.
        let fresh = SweepCache::with_disk(3, dir.clone());
        assert_eq!(
            *fresh.ensemble(&SlPos::new(0.01), &shares, &cp, 40, None),
            *full
        );
        assert_eq!(
            *fresh.settled_probe(&SlPos::new(0.01), &shares, &cp, 40),
            *probe
        );
        assert_eq!(fresh.disk_hits(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn settled_probe_is_the_same_prefix_at_any_thread_count() {
        // The stored summary covers exactly the first settled prefix,
        // however many repetitions the workers ran past it. (The thread
        // budget is process-global; it never changes results, so tests
        // running alongside are unaffected.)
        let run = |threads: usize| {
            fairness_stats::mc::set_global_threads(threads);
            let cache = SweepCache::new(21);
            let shares = fairness_core::miner::paper_multi_miner(3, 0.45);
            cache.settled_probe(&SlPos::new(0.01), &shares, &[3_000], 64)
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(*run(threads), *serial, "threads = {threads}");
        }
        fairness_stats::mc::set_global_threads(0);
        assert!(
            serial.repetitions < 64,
            "settles early: {}",
            serial.repetitions
        );
    }

    #[test]
    fn cached_result_matches_direct_run() {
        // The cache must be a pure memoization layer: same seed, same
        // config, same summary as calling run_ensemble directly.
        let cache = SweepCache::new(5);
        let shares = two_miner(0.3);
        let cp = vec![50, 200];
        let cached = cache.ensemble(&SlPos::new(0.01), &shares, &cp, 50, None);
        let key = EnsembleKey::new(
            &SlPos::new(0.01),
            &shares,
            &cp,
            50,
            EpsilonDelta::default(),
            None,
        );
        let direct = run_ensemble(
            &SlPos::new(0.01),
            &EnsembleConfig {
                initial_shares: shares,
                checkpoints: cp,
                repetitions: 50,
                seed: key.seed(5),
                eps_delta: EpsilonDelta::default(),
                withholding: None,
            },
        );
        assert_eq!(*cached, direct);
    }
}

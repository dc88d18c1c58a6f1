//! Monte-Carlo ensembles over mining games.
//!
//! Reproduces the paper's experimental pipeline (Section 5.1): repeat each
//! game 10,000 times (simulation) from independent seeds, then per
//! checkpoint report the sample mean (orange line), the 5th/95th
//! percentiles (blue band) and the unfair probability
//! `Pr[λ_A ∉ [(1−ε)a, (1+ε)a]]` (Figures 3 and 5), plus the convergence
//! time to `(ε, δ)`-fairness (Table 1).

use crate::fairness::{unfair_probability, EpsilonDelta};
use crate::game::MiningGame;
use crate::protocol::IncentiveProtocol;
use crate::withholding::WithholdingSchedule;
use fairness_stats::mc::{run_monte_carlo_chunks, McConfig};
use fairness_stats::summary::{FiveNumber, MeanAboveHalf};

/// Band statistics at one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandPoint {
    /// The checkpoint (number of blocks/epochs).
    pub n: u64,
    /// Sample mean of `λ_A`.
    pub mean: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Empirical unfair probability under the configured `(ε, δ)`.
    pub unfair_probability: f64,
}

/// Summary of a Monte-Carlo ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleSummary {
    /// Protocol name.
    pub protocol: String,
    /// Miner A's initial share.
    pub share: f64,
    /// Number of repetitions.
    pub repetitions: usize,
    /// Band statistics per checkpoint.
    pub points: Vec<BandPoint>,
}

impl EnsembleSummary {
    /// The band point at the final checkpoint.
    ///
    /// # Panics
    /// Panics if the summary has no checkpoints.
    #[must_use]
    pub fn final_point(&self) -> BandPoint {
        *self.points.last().expect("non-empty summary")
    }

    /// First checkpoint at which the unfair probability drops to ≤ δ *and
    /// stays there* for all later checkpoints — the paper's convergence
    /// time ("Cvg. Time" in Table 1). `None` means fairness was never
    /// durably reached ("Never").
    #[must_use]
    pub fn convergence_time(&self, eps_delta: EpsilonDelta) -> Option<u64> {
        let mut candidate: Option<u64> = None;
        for p in &self.points {
            if p.unfair_probability <= eps_delta.delta {
                candidate.get_or_insert(p.n);
            } else {
                candidate = None;
            }
        }
        candidate
    }
}

/// Configuration of an ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleConfig {
    /// Initial shares (miner 0 is the tracked miner A).
    pub initial_shares: Vec<f64>,
    /// Checkpoints at which statistics are recorded (strictly ascending).
    pub checkpoints: Vec<u64>,
    /// Number of repetitions (the paper uses 10,000 for simulations).
    pub repetitions: usize,
    /// Master seed.
    pub seed: u64,
    /// `(ε, δ)` used for unfair-probability evaluation.
    pub eps_delta: EpsilonDelta,
    /// Optional reward-withholding schedule.
    pub withholding: Option<WithholdingSchedule>,
}

impl EnsembleConfig {
    /// Paper-style configuration: two miners `a / 1−a`, ten linear
    /// checkpoints to `horizon`, default `(ε, δ) = (0.1, 0.1)`.
    #[must_use]
    pub fn paper_default(a: f64, horizon: u64, repetitions: usize, seed: u64) -> Self {
        Self {
            initial_shares: crate::miner::two_miner(a),
            checkpoints: crate::trajectory::linear_checkpoints(horizon, 10),
            repetitions,
            seed,
            eps_delta: EpsilonDelta::default(),
            withholding: None,
        }
    }
}

/// Runs the ensemble: `repetitions` independent games of `protocol`,
/// summarized per checkpoint.
///
/// The protocol is cloned per repetition; repetitions run in parallel with
/// per-repetition deterministic seeds, so results are reproducible
/// regardless of thread count.
///
/// # Panics
/// Panics on invalid configuration (no repetitions, bad checkpoints or
/// shares).
#[must_use]
pub fn run_ensemble<P>(protocol: &P, config: &EnsembleConfig) -> EnsembleSummary
where
    P: IncentiveProtocol + Clone,
{
    let trajectories = run_trajectories(protocol, config, |_| false);
    summarize(&protocol.label(), config, &trajectories)
}

/// [`run_ensemble`] stopped at the first repetition prefix that settles
/// whether miner A's mean final `λ` exceeds 1/2 ([`MeanAboveHalf`]): the
/// summary of repetitions `0..k`, with `repetitions = k`, for the smallest
/// such `k` (all of them when the verdict needs every repetition).
/// Repetition `i` is seeded exactly as in [`run_ensemble`], so the prefix
/// is the full ensemble's, and the summary's `final_point().mean > 0.5`
/// equals the full ensemble's verdict (see [`MeanAboveHalf`]).
///
/// # Panics
/// Panics on invalid configuration, as [`run_ensemble`] does.
#[must_use]
pub fn run_ensemble_settled<P>(protocol: &P, config: &EnsembleConfig) -> EnsembleSummary
where
    P: IncentiveProtocol + Clone,
{
    let mut verdict = MeanAboveHalf::new(config.repetitions);
    let trajectories = run_trajectories(protocol, config, |t: &Vec<f64>| {
        verdict.push(*t.last().expect("a checkpoint per trajectory"))
    });
    summarize(&protocol.label(), config, &trajectories)
}

/// Miner A's λ-trajectory for repetitions `0, 1, …` until `settled` holds
/// ([`run_monte_carlo_chunks`]).
///
/// Repetitions run in chunks of the game's
/// [`batch_width`](MiningGame::batch_width), each chunk's games advancing
/// together from checkpoint to checkpoint through
/// [`MiningGame::run_batch`]: bare SL-PoS ensembles step eight
/// repetitions at a time in the lane kernel where the host has one, and
/// everything else one repetition per chunk. Each repetition draws from
/// its own stream and the lane kernel is bit-identical to stepping alone,
/// so the trajectories do not depend on the chunking.
fn run_trajectories<P>(
    protocol: &P,
    config: &EnsembleConfig,
    settled: impl FnMut(&Vec<f64>) -> bool + Send,
) -> Vec<Vec<f64>>
where
    P: IncentiveProtocol + Clone,
{
    assert!(config.repetitions > 0, "need at least one repetition");
    assert!(
        !config.checkpoints.is_empty(),
        "need at least one checkpoint"
    );
    assert!(
        config.checkpoints.windows(2).all(|w| w[0] < w[1]),
        "checkpoints must be strictly ascending"
    );
    let new_game = || {
        let game = MiningGame::new(protocol.clone(), &config.initial_shares);
        match config.withholding {
            Some(schedule) => game.with_withholding(schedule),
            None => game,
        }
    };
    run_monte_carlo_chunks(
        McConfig::new(config.repetitions, config.seed),
        new_game().batch_width(),
        |_first, rngs| {
            let mut games: Vec<_> = rngs.iter().map(|_| new_game()).collect();
            let mut values = vec![Vec::with_capacity(config.checkpoints.len()); games.len()];
            let mut steps = 0;
            for &cp in &config.checkpoints {
                MiningGame::run_batch(&mut games, cp - steps, rngs);
                steps = cp;
                for (trajectory, game) in values.iter_mut().zip(&games) {
                    trajectory.push(game.lambda(0));
                }
            }
            values
        },
        settled,
    )
}

/// Builds an [`EnsembleSummary`] from raw per-repetition λ-trajectories
/// (also used by the chain-sim experiment harness, whose trajectories come
/// from hash-level networks rather than closed-form games).
///
/// # Panics
/// Panics if trajectories are empty or have inconsistent lengths.
#[must_use]
pub fn summarize(
    protocol_name: &str,
    config: &EnsembleConfig,
    trajectories: &[Vec<f64>],
) -> EnsembleSummary {
    assert!(!trajectories.is_empty(), "no trajectories to summarize");
    let k = config.checkpoints.len();
    assert!(
        trajectories.iter().all(|t| t.len() == k),
        "trajectory length mismatch"
    );
    let a = config.initial_shares[0];
    let mut points = Vec::with_capacity(k);
    let mut column = vec![0.0; trajectories.len()];
    for (ci, &n) in config.checkpoints.iter().enumerate() {
        for (ri, t) in trajectories.iter().enumerate() {
            column[ri] = t[ci];
        }
        let summary = FiveNumber::from_samples(&column);
        points.push(BandPoint {
            n,
            mean: summary.mean,
            p05: summary.p05,
            p95: summary.p95,
            unfair_probability: unfair_probability(&column, a, config.eps_delta),
        });
    }
    EnsembleSummary {
        protocol: protocol_name.to_owned(),
        share: a,
        repetitions: trajectories.len(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{CPos, MlPos, Pow, SlPos};

    #[test]
    fn pow_band_contracts_and_converges() {
        let config = EnsembleConfig {
            checkpoints: vec![50, 200, 1000, 3000],
            ..EnsembleConfig::paper_default(0.2, 3000, 2000, 42)
        };
        let summary = run_ensemble(&Pow::new(&[0.2, 0.8], 0.01), &config);
        // Expectational fairness at every checkpoint.
        for p in &summary.points {
            assert!((p.mean - 0.2).abs() < 0.01, "n={}: mean {}", p.n, p.mean);
        }
        // Band shrinks monotonically (up to noise).
        let first = &summary.points[0];
        let last = summary.final_point();
        assert!(last.p95 - last.p05 < first.p95 - first.p05);
        // Robust fairness reached by n=3000 (theory: ~1100 empirically).
        assert!(last.unfair_probability < 0.1, "{}", last.unfair_probability);
        let cvg = summary.convergence_time(EpsilonDelta::default());
        assert!(cvg.is_some_and(|n| n <= 3000), "{cvg:?}");
    }

    #[test]
    fn mlpos_plateaus_above_delta() {
        // Figure 3(b): with w=0.01 the unfair probability converges to a
        // constant above δ=0.1 — robust fairness never achieved.
        let config = EnsembleConfig {
            checkpoints: vec![500, 2000, 5000],
            ..EnsembleConfig::paper_default(0.2, 5000, 2000, 43)
        };
        let summary = run_ensemble(&MlPos::new(0.01), &config);
        let last = summary.final_point();
        assert!((last.mean - 0.2).abs() < 0.01, "mean {}", last.mean);
        assert!(
            last.unfair_probability > 0.1,
            "ML-PoS should stay unfair: {}",
            last.unfair_probability
        );
        assert_eq!(summary.convergence_time(EpsilonDelta::default()), None);
    }

    #[test]
    fn slpos_mean_decays_and_unfairness_saturates() {
        let config = EnsembleConfig {
            checkpoints: vec![1000, 5000, 20000],
            ..EnsembleConfig::paper_default(0.2, 20000, 400, 44)
        };
        let summary = run_ensemble(&SlPos::new(0.01), &config);
        let last = summary.final_point();
        assert!(last.mean < 0.05, "SL-PoS mean should decay: {}", last.mean);
        assert!(
            last.unfair_probability > 0.95,
            "{}",
            last.unfair_probability
        );
    }

    #[test]
    fn cpos_converges_fast() {
        let config = EnsembleConfig {
            checkpoints: vec![50, 150, 500],
            ..EnsembleConfig::paper_default(0.2, 500, 2000, 45)
        };
        let summary = run_ensemble(&CPos::paper_default(), &config);
        let last = summary.final_point();
        assert!((last.mean - 0.2).abs() < 0.005, "mean {}", last.mean);
        assert!(last.unfair_probability < 0.1, "{}", last.unfair_probability);
        let cvg = summary.convergence_time(EpsilonDelta::default());
        assert!(cvg.is_some_and(|n| n <= 500), "{cvg:?}");
    }

    #[test]
    fn ensembles_reproducible() {
        let config = EnsembleConfig {
            checkpoints: vec![100],
            ..EnsembleConfig::paper_default(0.3, 100, 50, 7)
        };
        let a = run_ensemble(&MlPos::new(0.01), &config);
        let b = run_ensemble(&MlPos::new(0.01), &config);
        assert_eq!(a, b);
    }

    #[test]
    fn convergence_requires_staying_fair() {
        // A summary that dips under δ then rises again must not "converge"
        // at the dip.
        let mk = |unfair: &[f64]| EnsembleSummary {
            protocol: "x".into(),
            share: 0.2,
            repetitions: 1,
            points: unfair
                .iter()
                .enumerate()
                .map(|(i, &u)| BandPoint {
                    n: (i as u64 + 1) * 100,
                    mean: 0.2,
                    p05: 0.1,
                    p95: 0.3,
                    unfair_probability: u,
                })
                .collect(),
        };
        let ed = EpsilonDelta::default();
        assert_eq!(mk(&[0.5, 0.05, 0.5, 0.05]).convergence_time(ed), Some(400));
        assert_eq!(mk(&[0.5, 0.05, 0.04]).convergence_time(ed), Some(200));
        assert_eq!(mk(&[0.5, 0.2]).convergence_time(ed), None);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_reps_rejected() {
        let config = EnsembleConfig {
            repetitions: 0,
            ..EnsembleConfig::paper_default(0.2, 100, 1, 1)
        };
        let _ = run_ensemble(&MlPos::new(0.01), &config);
    }
}

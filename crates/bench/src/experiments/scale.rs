//! `scale` — million-miner scaling study, beyond the paper's m ≤ 10.
//!
//! The paper's Table 1 stops at ten miners for hardware-budget reasons, and
//! Sakurai & Shudo (arXiv:2506.13360) report that fairness conclusions are
//! *scale-dependent*: verdicts reached at toy miner counts do not survive
//! realistic populations. This experiment sweeps the miner count on a log
//! axis up to 10⁶ and emits two curves:
//!
//! * **fairness vs m** — an ML-PoS economy seeded with Zipf(1.2) stakes
//!   (the empirical shape of real stake distributions), measured before and
//!   after `FAIRNESS_HORIZON` blocks with the decentralization metrics
//!   (Gini, Nakamoto coefficient, largest share). This exercises the
//!   struct-of-arrays [`StakeLedger`] engine end-to-end at full population.
//! * **monopolization threshold vs m** — the smallest share at which an
//!   SL-PoS miner wins the winner-take-all dynamics. Points with
//!   `m ≤ FULL_ENGINE_CAP` reuse [`monopolization_threshold`] verbatim
//!   (same ensembles, same cache keys — bit-equal to the Table 1 pipeline);
//!   larger points fold the `m − 1` equal opponents into an
//!   [`AggregatedTailGame`], whose per-step cost is O(1) in m.
//!
//! Every sampled quantity is seeded from the *content* of its grid point
//! (master seed, m, bisection probe), so the curves are byte-identical for
//! any `--jobs`.

use super::common::W_DEFAULT;
use super::table1::monopolization_threshold;
use super::SweepSession;
use crate::report::{fmt4, write_csv, TextTable};
use fairness_core::prelude::*;
use fairness_stats::mc::{run_monte_carlo, run_monte_carlo_until, McConfig};
use fairness_stats::rng::mix_seed;
use fairness_stats::summary::MeanAboveHalf;
use std::fmt::Write as _;
use std::io;

/// Zipf exponent of the synthetic initial stake distribution — in the
/// range measured for real PoS chains (heavier than uniform, lighter than
/// a pure monopoly).
const ZIPF_EXPONENT: f64 = 1.2;

/// Blocks simulated per repetition of the fairness sweep. ML-PoS issues
/// `w` per block, so this mints 20× the initial stake — deep into the
/// compounding regime where "rich get richer" would show if present.
const FAIRNESS_HORIZON: u64 = 2_000;

/// Horizon of every monopolization-threshold probe — matches Table 1's
/// long-horizon SL-PoS setting so small-m points are bit-equal.
const THRESHOLD_HORIZON: u64 = 50_000;

/// Largest miner count probed with the full per-miner engine; above this
/// the aggregated-tail game takes over.
const FULL_ENGINE_CAP: usize = 40;

/// The swept miner counts: powers of ten from 10 up to `cap`, with `cap`
/// itself appended when it is not a power of ten.
///
/// # Panics
/// Panics if `cap < 10`.
#[must_use]
pub fn scale_grid(cap: usize) -> Vec<usize> {
    assert!(cap >= 10, "scale sweep needs a cap of at least 10 miners");
    let mut grid = Vec::new();
    let mut m = 10usize;
    while m <= cap {
        grid.push(m);
        match m.checked_mul(10) {
            Some(next) => m = next,
            None => break,
        }
    }
    if *grid.last().expect("cap >= 10") != cap {
        grid.push(cap);
    }
    grid
}

/// The sweep's miner-count cap: `--max-miners` above the Table-1 default
/// redirects it (so tests and smoke runs can bound the grid); otherwise
/// the sweep goes all the way to 10⁶.
fn miner_cap(opts: &crate::ReproOptions) -> usize {
    if opts.max_miners > 10 {
        opts.max_miners
    } else {
        1_000_000
    }
}

/// Repetitions for one fairness grid point: a fixed simulation budget of
/// ~2·10⁶ miner-slots split across repetitions, floored at 2 and capped by
/// the run's `--reps` (itself capped at 64 — the metrics here are means of
/// already-aggregate statistics, so they concentrate fast).
fn fairness_reps(m: usize, repetitions: usize) -> usize {
    (2_000_000 / m).clamp(2, repetitions.clamp(2, 64))
}

/// One fairness grid point, averaged over repetitions.
struct FairnessPoint {
    m: usize,
    reps: usize,
    initial: DecentralizationReport,
    gini: f64,
    nakamoto: f64,
    largest: f64,
}

fn fairness_point(m: usize, reps: usize, seed: u64) -> FairnessPoint {
    let shares = zipf_shares(m, ZIPF_EXPONENT);
    let initial = DecentralizationReport::measure(&shares);
    let finals = run_monte_carlo(McConfig::new(reps, mix_seed(seed, m as u64)), |_i, rng| {
        let mut game = MiningGame::new(MlPos::new(W_DEFAULT), &shares);
        game.run(FAIRNESS_HORIZON, rng);
        let report = DecentralizationReport::measure(game.stakes());
        (report.gini, report.nakamoto as f64, report.largest_share)
    });
    let n = finals.len() as f64;
    FairnessPoint {
        m,
        reps,
        initial,
        gini: finals.iter().map(|f| f.0).sum::<f64>() / n,
        nakamoto: finals.iter().map(|f| f.1).sum::<f64>() / n,
        largest: finals.iter().map(|f| f.2).sum::<f64>() / n,
    }
}

/// Monopolization threshold for miner counts beyond `FULL_ENGINE_CAP`
/// (40): the same 7-step bisection as `monopolization_threshold`, but every
/// probe runs the O(1)-per-step [`AggregatedTailGame`] against the `m − 1`
/// folded equal opponents instead of an m-column ensemble.
///
/// Each probe stops at the first repetition prefix that settles whether
/// the mean final `λ_A` exceeds 1/2 ([`MeanAboveHalf`]), and decides by
/// the prefix's mean. The mean here sums in index order (`Σ / len`), and
/// the rule's widening bounds that order's rounding as well as the sorted
/// sum's: summing `R` values in `[0, 1]` one after another errs by less
/// than `R²·ε` in any order, so the settled verdict is the one all `reps`
/// repetitions would give, bit for bit the same threshold.
///
/// The folded tail is exchangeable (its rewards spread evenly), so unlike
/// the full game it can never grow a runaway rival: the returned threshold
/// saturates at the fragmentation limit (~0.13 for `w = 0.01`) instead of
/// continuing to fall as 1/m.
///
/// # Panics
/// Panics if `m < 2`.
#[must_use]
pub fn tail_monopolization_threshold(m: usize, horizon: u64, reps: usize, seed: u64) -> f64 {
    assert!(m >= 2, "need at least two miners");
    let monopolizes = |a: f64, probe: u64| {
        let point_seed = mix_seed(seed, ((m as u64) << 8) | probe);
        let mut verdict = MeanAboveHalf::new(reps);
        let lambdas = run_monte_carlo_until(
            McConfig::new(reps, point_seed),
            |_i, rng| {
                let mut game = AggregatedTailGame::new(TailKernel::SlPosRace, a, m - 1, W_DEFAULT);
                game.run(horizon, rng);
                game.lambda_a()
            },
            |&lambda| verdict.push(lambda),
        );
        lambdas.iter().sum::<f64>() / lambdas.len() as f64 > 0.5
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for probe in 0..7 {
        let mid = (lo + hi) / 2.0;
        if monopolizes(mid, probe) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// `scale`: fairness metrics and the SL-PoS monopolization threshold on a
/// log-axis miner-count grid up to 10⁶ (see the module docs). Writes
/// `scale_fairness_vs_m.csv` and `scale_threshold_vs_m.csv`.
pub fn scale(ctx: &SweepSession) -> io::Result<String> {
    let opts = ctx.opts;
    let grid = scale_grid(miner_cap(opts));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Scale — million-miner sweep (m in {grid:?}), Zipf({ZIPF_EXPONENT}) stakes, w={W_DEFAULT}",
    );

    // Fairness vs m: every grid point is an independent job; the seed of
    // each point depends only on (master seed, m).
    let points = ctx.pool.par_map(grid.len(), |i| {
        let m = grid[i];
        fairness_point(
            m,
            fairness_reps(m, opts.repetitions),
            opts.seed ^ 0x5CA1_E000,
        )
    });
    let _ = writeln!(
        out,
        "\nML-PoS fairness vs miner count ({FAIRNESS_HORIZON} blocks, per-point reps in the table):\n\
         Gini/Nakamoto/largest-share of the *stake* distribution, before vs after. ML-PoS\n\
         rewards are ∝ stake, so each share is a martingale — the mean largest share stays\n\
         flat (expectational fairness at every scale) — but variance compounds, so realized\n\
         concentration drifts up (Gini rises, Nakamoto falls): the paper's expectational-\n\
         vs-robust fairness gap, visible at the population level."
    );
    let mut t = TextTable::new(vec![
        "Miners",
        "reps",
        "Gini_0",
        "Gini_n",
        "Nakamoto_0",
        "Nakamoto_n",
        "largest_0",
        "largest_n",
    ]);
    let mut fairness_rows = Vec::new();
    for p in &points {
        t.row(vec![
            p.m.to_string(),
            p.reps.to_string(),
            fmt4(p.initial.gini),
            fmt4(p.gini),
            p.initial.nakamoto.to_string(),
            format!("{:.1}", p.nakamoto),
            fmt4(p.initial.largest_share),
            fmt4(p.largest),
        ]);
        fairness_rows.push(vec![
            p.m as f64,
            p.reps as f64,
            p.initial.gini,
            p.gini,
            p.initial.nakamoto as f64,
            p.nakamoto,
            p.initial.largest_share,
            p.largest,
        ]);
    }
    out.push_str(&t.render());
    let path = write_csv(
        &opts.results_dir,
        "scale_fairness_vs_m",
        &[
            "miners",
            "reps",
            "gini_initial",
            "gini_final",
            "nakamoto_initial",
            "nakamoto_final",
            "largest_initial",
            "largest_final",
        ],
        &fairness_rows,
    )?;
    let _ = writeln!(out, "csv: {}", path.display());

    // Monopolization threshold vs m: small points reuse the Table-1
    // bisection verbatim (bit-equal, shared ensemble cache); large points
    // switch to the aggregated-tail engine.
    let reps = opts.repetitions.min(200);
    let tail_reps = opts.repetitions.clamp(8, 64);
    let thresholds = ctx.pool.par_map(grid.len(), |i| {
        let m = grid[i];
        if m <= FULL_ENGINE_CAP {
            monopolization_threshold(ctx, m, THRESHOLD_HORIZON, reps)
        } else {
            tail_monopolization_threshold(m, THRESHOLD_HORIZON, tail_reps, opts.seed ^ 0x7A11)
        }
    });
    let _ = writeln!(
        out,
        "\nSL-PoS monopolization threshold vs miner count ({THRESHOLD_HORIZON} blocks, bisection\n\
         to 2^-7; m <= {FULL_ENGINE_CAP} via the full Table-1 ensemble, larger m via the\n\
         aggregated-tail game). Small-m points track 1/m — the share that makes the miner\n\
         the largest single rival (Sakurai & Shudo, arXiv:2506.13360: fairness verdicts\n\
         are scale-dependent). The folded tail is exchangeable by construction, so no\n\
         individual rival can break away and the tail points saturate at the\n\
         fragmentation limit (~0.13): the floor any miner needs once the opposition is\n\
         fully fragmented."
    );
    let mut t = TextTable::new(vec!["Miners", "threshold a*", "1/m", "engine"]);
    let mut threshold_rows = Vec::new();
    for (&m, &a_star) in grid.iter().zip(&thresholds) {
        let tail = m > FULL_ENGINE_CAP;
        t.row(vec![
            m.to_string(),
            fmt4(a_star),
            fmt4(1.0 / m as f64),
            if tail { "tail" } else { "full" }.to_owned(),
        ]);
        threshold_rows.push(vec![
            m as f64,
            a_star,
            1.0 / m as f64,
            if tail { 1.0 } else { 0.0 },
        ]);
    }
    out.push_str(&t.render());
    let path = write_csv(
        &opts.results_dir,
        "scale_threshold_vs_m",
        &[
            "miners",
            "threshold_share",
            "one_over_m",
            "engine(0=full,1=tail)",
        ],
        &threshold_rows,
    )?;
    let _ = writeln!(out, "csv: {}", path.display());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::tiny_opts;
    use super::super::SweepService;
    use super::*;

    #[test]
    fn scale_grid_is_log_axis_with_cap() {
        assert_eq!(
            scale_grid(1_000_000),
            vec![10, 100, 1_000, 10_000, 100_000, 1_000_000]
        );
        assert_eq!(scale_grid(100), vec![10, 100]);
        assert_eq!(scale_grid(12), vec![10, 12]);
        assert_eq!(scale_grid(10), vec![10]);
        assert_eq!(scale_grid(50_000), vec![10, 100, 1_000, 10_000, 50_000]);
    }

    #[test]
    #[should_panic(expected = "at least 10")]
    fn scale_grid_rejects_tiny_caps() {
        let _ = scale_grid(9);
    }

    #[test]
    fn fairness_reps_scale_down_with_m() {
        assert_eq!(fairness_reps(10, 10_000), 64);
        assert_eq!(fairness_reps(100_000, 10_000), 20);
        assert_eq!(fairness_reps(1_000_000, 10_000), 2);
        assert_eq!(fairness_reps(10, 4), 4);
    }

    #[test]
    fn tail_threshold_saturates_at_the_fragmentation_limit() {
        // The exchangeable-tail engine cannot grow a runaway rival (rewards
        // spread evenly by construction), so its winner-take-all cutoff does
        // not keep falling as 1/m: the min of k uniform tickets converges to
        // an exponential and the threshold freezes at the fragmentation
        // limit — far below the two-miner 1/2, and flat in m.
        let t100 = tail_monopolization_threshold(100, 20_000, 16, 7);
        let t10k = tail_monopolization_threshold(10_000, 20_000, 16, 7);
        assert!(
            t100 < 0.3,
            "100-miner threshold should be small, got {t100}"
        );
        assert!(
            (t100 - t10k).abs() < 0.06,
            "threshold should plateau across scales, got {t100} vs {t10k}"
        );
    }

    #[test]
    fn scale_runs_small_and_small_m_matches_table1_pipeline() {
        let mut opts = tiny_opts("scale");
        opts.repetitions = 24;
        opts.max_miners = 100; // bounds the grid to {10, 100}
        let h = SweepService::new(opts);
        let ctx = h.session();
        let out = scale(&ctx).expect("scale");
        assert!(out.contains("Gini_n"));
        assert!(out.contains("threshold a*"));
        assert!(out.contains("scale_fairness_vs_m"));
        assert!(out.contains("scale_threshold_vs_m"));
        // The m = 10 threshold goes through the very same bisection (and
        // sweep-cache keys) as Table 1's — re-probing it is pure cache hits
        // and returns the identical bits.
        let direct = monopolization_threshold(&ctx, 10, THRESHOLD_HORIZON, 24);
        let line = out
            .lines()
            .find(|l| l.trim_start().starts_with("10 ") || l.trim_start().starts_with("10|"))
            .map(String::from);
        assert!(
            out.contains(&fmt4(direct)),
            "table row for m=10 ({line:?}) should show the Table-1 threshold {}",
            fmt4(direct)
        );
    }

    #[test]
    fn scale_output_is_byte_identical_for_any_jobs() {
        let run = |jobs: usize, tag: &str| {
            let mut opts = tiny_opts(&format!("scale-jobs-{tag}"));
            opts.repetitions = 16;
            opts.max_miners = 100;
            opts.jobs = jobs;
            let dir = opts.results_dir.clone();
            let h = SweepService::new(opts);
            scale(&h.session()).expect("scale");
            let fairness =
                std::fs::read(dir.join("scale_fairness_vs_m.csv")).expect("fairness csv");
            let threshold =
                std::fs::read(dir.join("scale_threshold_vs_m.csv")).expect("threshold csv");
            (fairness, threshold)
        };
        assert_eq!(run(1, "serial"), run(4, "parallel"));
    }
}

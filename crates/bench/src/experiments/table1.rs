//! Table 1: the multi-miner game.

use super::common::{convergence_grid, A_DEFAULT, P_EFF, V_DEFAULT, W_DEFAULT};
use super::SweepSession;
use crate::report::{fmt4, fmt_convergence, write_csv, TextTable};
use crate::runner::run_scenarios;
use chain_sim::{run_experiment, ExperimentConfig, ProtocolKind};
use fairness_core::prelude::*;
use fairness_stats::mc::{run_monte_carlo, McConfig};
use std::fmt::Write as _;
use std::io;

const PROTOCOLS: [&str; 4] = ["PoW", "ML-PoS", "SL-PoS", "C-PoS"];

/// The miner counts swept for a given `--max-miners`: the paper's
/// `{2, 3, 4, 5}`, then multiples of 5 up to the cap. The default cap of
/// 10 reproduces the paper's `{2, 3, 4, 5, 10}` exactly; 20 extends it to
/// `{2, 3, 4, 5, 10, 15, 20}` (the regime the paper's hardware budget cut
/// off), and 40 pushes into the scale regime where Sakurai & Shudo
/// (arXiv:2506.13360) report the fairness conclusions change.
///
/// # Panics
/// Panics if `max_miners < 2`.
pub fn miner_counts(max_miners: usize) -> Vec<usize> {
    assert!(max_miners >= 2, "need at least two miners");
    let mut counts: Vec<usize> = (2..=max_miners.min(5)).collect();
    let mut m = 10;
    while m <= max_miners {
        counts.push(m);
        m += 5;
    }
    counts
}

/// The Table-1 grid as data: for every swept miner count, one scenario per
/// protocol, with the per-protocol horizons and repetition caps the table
/// always used. `repetitions` is the run's default (`--reps`).
#[must_use]
pub fn table1_specs(max_miners: usize, repetitions: usize) -> Vec<ScenarioSpec> {
    let counts = miner_counts(max_miners);
    (0..counts.len() * PROTOCOLS.len())
        .map(|k| {
            let m = counts[k / PROTOCOLS.len()];
            let protocol = PROTOCOLS[k % PROTOCOLS.len()];
            let shares = paper_multi_miner(m, A_DEFAULT);
            let builder = match protocol {
                // PoW: horizon past the ~1100-block convergence point.
                "PoW" => ScenarioSpec::builder(
                    format!("table1 m={m} pow"),
                    ProtocolSpec::new("pow").with("w", W_DEFAULT),
                )
                .explicit(convergence_grid(3000)),
                // ML-PoS: plateaus; horizon 5000.
                "ML-PoS" => ScenarioSpec::builder(
                    format!("table1 m={m} ml-pos"),
                    ProtocolSpec::new("ml-pos").with("w", W_DEFAULT),
                )
                .explicit(convergence_grid(5000)),
                // SL-PoS: long horizon to expose monopolization (the m=10
                // row's λ_A → 1 needs ~10⁵ blocks); repetitions capped
                // since the means and unfair probabilities here only need
                // two decimals.
                "SL-PoS" => ScenarioSpec::builder(
                    format!("table1 m={m} sl-pos"),
                    ProtocolSpec::new("sl-pos").with("w", W_DEFAULT),
                )
                .log(100_000, 4)
                .repetitions(repetitions.min(2000)),
                // C-PoS: converges quickly.
                _ => ScenarioSpec::builder(
                    format!("table1 m={m} c-pos"),
                    ProtocolSpec::new("c-pos")
                        .with("w", W_DEFAULT)
                        .with("v", V_DEFAULT)
                        .with("shards", f64::from(P_EFF)),
                )
                .explicit(convergence_grid(2000)),
            };
            builder.shares(&shares).build()
        })
        .collect()
}

struct Row {
    protocol: &'static str,
    m: usize,
    mean: f64,
    unfair: f64,
    cvg: Option<u64>,
}

/// Estimates the SL-PoS monopolization threshold for an `m`-miner game:
/// the smallest initial share `a*` (to `2⁻⁷` precision by bisection) at
/// which the tracked miner's mean final reward proportion exceeds one
/// half — i.e. she wins the winner-take-all dynamics more often than not
/// against `m − 1` equal opponents. Every probe goes through the sweep
/// cache, so the bisection path is deterministic, memoized and byte-stable
/// for any `--jobs`.
///
/// A probe needs only the verdict `mean λ_A > 1/2`, so it is a settled
/// probe ([`SweepCache::settled_probe`](super::SweepCache::settled_probe)):
/// it stops at the first repetition prefix whose verdict the remaining
/// repetitions cannot change. The rule is exact. With `R` repetitions and
/// every `λ` in `[0, 1]`, the full sum after `k` of them lies in
/// `[S_k, S_k + (R − k)]`; widened by a bound on the floating-point error
/// of summing `R` terms in any order (the summary sums the sorted
/// column), once that interval lies strictly above or below `R/2` the
/// full ensemble's `mean > 0.5` is decided, and the settled prefix's own
/// mean decides the same way ([`MeanAboveHalf`] has the bound). A probe
/// that never settles runs all `R` repetitions and decides exactly as a
/// full ensemble does. Repetition `i` is seeded as in the full ensemble,
/// so the thresholds are bit-equal to a full-ensemble bisection.
///
/// Sakurai & Shudo (arXiv:2506.13360) observe that fairness conclusions
/// are scale-dependent; here the long-horizon threshold tracks `1/m` (the
/// share that makes her the largest miner) rather than a fixed constant —
/// the "rich get richer" cutoff moves with the miner count.
///
/// [`MeanAboveHalf`]: fairness_stats::summary::MeanAboveHalf
#[must_use]
pub fn monopolization_threshold(
    ctx: &SweepSession,
    m: usize,
    horizon: u64,
    repetitions: usize,
) -> f64 {
    assert!(m >= 2, "need at least two miners");
    let monopolizes = |a: f64| {
        let mut shares = vec![a];
        shares.extend(std::iter::repeat_n((1.0 - a) / (m as f64 - 1.0), m - 1));
        let summary =
            ctx.cache
                .settled_probe(&SlPos::new(W_DEFAULT), &shares, &[horizon], repetitions);
        summary.final_point().mean > 0.5
    };
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..7 {
        let mid = (lo + hi) / 2.0;
        if monopolizes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Table 1: the multi-miner game. Miner A holds 20%, the other `m − 1`
/// miners split 80% equally, for `m ∈` [`miner_counts`]`(--max-miners)`.
/// Reports the average of `λ_A`, the unfair probability, and the
/// convergence time for all four protocols, plus the SL-PoS
/// monopolization threshold per miner count
/// (`monopolization_threshold_vs_n.csv`). With `--system`, a hash-level
/// multi-miner network cross-checks the closed-form mean.
pub fn table1(ctx: &SweepSession) -> io::Result<String> {
    let opts = ctx.opts;
    let counts = miner_counts(opts.max_miners);
    let ed = EpsilonDelta::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table 1 — multi-miner game (A holds 0.2; rest split 0.8; w=0.01, v=0.1), {} repetitions, m up to {}",
        opts.repetitions, opts.max_miners
    );

    // All (miner count, protocol) cells are independent specs: the runner
    // drains them from the shared pool at once. Work-stealing absorbs the
    // wildly uneven cell costs (SL-PoS runs to 10⁵ blocks, C-PoS only to
    // 2·10³).
    let outcomes = run_scenarios(ctx, &table1_specs(opts.max_miners, opts.repetitions))?;
    let rows: Vec<Row> = outcomes
        .iter()
        .enumerate()
        .map(|(k, o)| Row {
            protocol: PROTOCOLS[k % PROTOCOLS.len()],
            m: counts[k / PROTOCOLS.len()],
            mean: o.summary.final_point().mean,
            unfair: o.summary.final_point().unfair_probability,
            cvg: o.summary.convergence_time(ed),
        })
        .collect();

    for metric in ["Avg. of λ_A", "Unfair Prob.", "Cvg. Time"] {
        let _ = writeln!(out, "\n{metric}:");
        let mut t = TextTable::new(vec!["Miners", "PoW", "ML-PoS", "SL-PoS", "C-PoS"]);
        for &m in &counts {
            let get = |proto: &str| {
                rows.iter()
                    .find(|r| r.m == m && r.protocol == proto)
                    .expect("row exists")
            };
            let cell = |proto: &str| match metric {
                "Avg. of λ_A" => fmt4(get(proto).mean),
                "Unfair Prob." => fmt4(get(proto).unfair),
                _ => fmt_convergence(get(proto).cvg),
            };
            t.row(vec![
                format!("{m} Miners"),
                cell("PoW"),
                cell("ML-PoS"),
                cell("SL-PoS"),
                cell("C-PoS"),
            ]);
        }
        out.push_str(&t.render());
    }

    let csv_rows: Vec<Vec<f64>> = rows
        .iter()
        .map(|r| {
            vec![
                r.m as f64,
                match r.protocol {
                    "PoW" => 0.0,
                    "ML-PoS" => 1.0,
                    "SL-PoS" => 2.0,
                    _ => 3.0,
                },
                r.mean,
                r.unfair,
                r.cvg.map_or(-1.0, |n| n as f64),
            ]
        })
        .collect();
    let path = write_csv(
        &opts.results_dir,
        "table1_multi_miner",
        &[
            "miners",
            "protocol(0=pow,1=ml,2=sl,3=c)",
            "mean_lambda",
            "unfair",
            "cvg_time(-1=never)",
        ],
        &csv_rows,
    )?;
    let _ = writeln!(out, "\ncsv: {}", path.display());
    let _ = writeln!(
        out,
        "paper shapes: PoW/ML/C-PoS means stay 0.20; SL-PoS mean → 0 for m<5, 0.20 at m=5 (symmetry), →1 for m≥10 (A is largest);"
    );
    let _ = writeln!(
        out,
        "ML-PoS and SL-PoS never converge; PoW converges ~10³; C-PoS converges ~10²."
    );

    // SL-PoS monopolization threshold vs miner count (Sakurai & Shudo
    // scale-dependence): bisect the smallest tracked-miner share that wins
    // the winner-take-all game against m − 1 equal opponents.
    {
        let horizon = 50_000;
        let reps = opts.repetitions.min(200);
        let thresholds = ctx.pool.par_map(counts.len(), |i| {
            monopolization_threshold(ctx, counts[i], horizon, reps)
        });
        let mut t = TextTable::new(vec!["Miners", "threshold a*", "equal-largest 1/m"]);
        let mut rows = Vec::new();
        for (&m, &a_star) in counts.iter().zip(&thresholds) {
            t.row(vec![
                format!("{m} Miners"),
                fmt4(a_star),
                fmt4(1.0 / m as f64),
            ]);
            rows.push(vec![m as f64, a_star, 1.0 / m as f64]);
        }
        let path = write_csv(
            &opts.results_dir,
            "monopolization_threshold_vs_n",
            &["miners", "threshold_share", "one_over_m"],
            &rows,
        )?;
        let _ = writeln!(
            out,
            "\nSL-PoS monopolization threshold vs miner count ({horizon} blocks, {reps} reps,\n\
             bisection to 2^-7): the share a* above which miner A's mean λ exceeds 1/2. The\n\
             threshold tracks 1/m, not a constant — the fairness verdict is scale-dependent\n\
             (Sakurai & Shudo, arXiv:2506.13360).  csv: {}",
            path.display()
        );
        out.push_str(&t.render());
    }

    if opts.with_system {
        // Hash-level cross-check of the multi-miner game: an ML-PoS
        // network with A at 0.2 and the rest split equally must keep A's
        // win fraction expectationally fair, matching the closed form.
        let m_sys = *counts.iter().filter(|&&m| m <= 10).max().expect("≥2");
        let shares = paper_multi_miner(m_sys, A_DEFAULT);
        let horizon = 600;
        let reps = opts.system_repetitions.clamp(1, 16);
        let config =
            ExperimentConfig::multi_miner(ProtocolKind::MlPos, &shares, W_DEFAULT, horizon);
        let finals = run_monte_carlo(McConfig::new(reps, opts.seed ^ 0x1D0), |_i, rng| {
            run_experiment(&config, rng).final_lambda
        });
        let sys_mean = finals.iter().sum::<f64>() / finals.len() as f64;
        let closed = rows
            .iter()
            .find(|r| r.m == m_sys && r.protocol == "ML-PoS")
            .expect("row exists");
        let sys_rows = vec![vec![m_sys as f64, sys_mean, closed.mean]];
        let sys_path = write_csv(
            &opts.results_dir,
            "table1_system_multiminer",
            &["miners", "hash_level_mean", "closed_form_mean"],
            &sys_rows,
        )?;
        let _ = writeln!(
            out,
            "\nhash-level multi-miner cross-check (ML-PoS, m={m_sys}, {reps} reps, {horizon} blocks):\n\
             mean λ_A = {} (closed form: {})  csv: {}",
            fmt4(sys_mean),
            fmt4(closed.mean),
            sys_path.display()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::testutil::tiny_opts;
    use super::super::SweepService;
    use super::*;

    #[test]
    fn table1_runs_small() {
        let mut opts = tiny_opts("table1");
        opts.repetitions = 40;
        let h = SweepService::new(opts);
        let out = table1(&h.session()).expect("table1");
        assert!(out.contains("Avg. of λ_A"));
        assert!(out.contains("Cvg. Time"));
        assert!(out.contains("10 Miners"));
        assert!(out.contains("monopolization threshold"));
    }

    #[test]
    fn miner_counts_match_paper_and_extend() {
        assert_eq!(miner_counts(10), vec![2, 3, 4, 5, 10]);
        assert_eq!(miner_counts(20), vec![2, 3, 4, 5, 10, 15, 20]);
        assert_eq!(
            miner_counts(40),
            vec![2, 3, 4, 5, 10, 15, 20, 25, 30, 35, 40]
        );
        assert_eq!(miner_counts(4), vec![2, 3, 4]);
        assert_eq!(miner_counts(12), vec![2, 3, 4, 5, 10]);
        assert_eq!(miner_counts(2), vec![2]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn miner_counts_rejects_one() {
        let _ = miner_counts(1);
    }

    #[test]
    fn specs_cover_the_grid() {
        let specs = table1_specs(20, 10_000);
        assert_eq!(specs.len(), 7 * 4);
        // SL-PoS cells cap their repetitions; the others inherit --reps.
        let capped = specs.iter().filter(|s| s.repetitions == Some(2000)).count();
        assert_eq!(capped, 7);
        assert!(specs
            .iter()
            .all(|s| s.repetitions.is_none() || s.repetitions == Some(2000)));
    }

    /// The bisection with a full ensemble per probe: the reference the
    /// settled probes must reproduce bit for bit.
    fn full_ensemble_threshold(ctx: &SweepSession, m: usize, horizon: u64, reps: usize) -> f64 {
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..7 {
            let mid = (lo + hi) / 2.0;
            let mut shares = vec![mid];
            shares.extend(std::iter::repeat_n((1.0 - mid) / (m as f64 - 1.0), m - 1));
            let full = ctx
                .cache
                .ensemble(&SlPos::new(W_DEFAULT), &shares, &[horizon], reps, None);
            if full.final_point().mean > 0.5 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    #[test]
    fn settled_bisection_equals_the_full_ensemble_bisection() {
        for jobs in [1, 4] {
            fairness_stats::mc::set_global_threads(jobs);
            let mut opts = tiny_opts(&format!("table1-settled-jobs{jobs}"));
            opts.jobs = jobs;
            let h = SweepService::new(opts);
            let ctx = h.session();
            for m in [2, 3, 10] {
                let settled = monopolization_threshold(&ctx, m, 5_000, 24);
                let misses = ctx.cache.misses();
                let full = full_ensemble_threshold(&ctx, m, 5_000, 24);
                assert_eq!(settled.to_bits(), full.to_bits(), "m={m}, jobs={jobs}");
                assert_eq!(
                    ctx.cache.misses() - misses,
                    7,
                    "full ensembles never hit settled probes (m={m})"
                );
            }
        }
        fairness_stats::mc::set_global_threads(0);
    }

    #[test]
    fn monopolization_threshold_tracks_one_over_m_at_forty_miners() {
        // The --max-miners 40 regime, at test scale: a *long-horizon*
        // SL-PoS game with 40 miners is monopolized by whoever is largest,
        // so the threshold collapses toward 1/m — far below one half. The
        // bisection itself is exercised end-to-end.
        let h = SweepService::new(tiny_opts("table1-m40"));
        let ctx = h.session();
        let t40 = monopolization_threshold(&ctx, 40, 30_000, 24);
        assert!(
            t40 < 0.2,
            "40-miner threshold should sit near 1/40, got {t40}"
        );
        let t2 = monopolization_threshold(&ctx, 2, 30_000, 24);
        assert!(
            (t2 - 0.5).abs() < 0.1,
            "two-miner threshold should sit near 1/2, got {t2}"
        );
        assert!(t40 < t2, "threshold must fall with scale");
    }
}

#![warn(missing_docs)]

//! # fairness-bench
//!
//! Experiment harness regenerating **every figure and table** in the
//! evaluation of *"Do the Rich Get Richer?"* (SIGMOD 2021), plus ablations.
//!
//! The `repro` binary resolves CLI targets against
//! [`experiments::registry`] and hands the selection to
//! [`schedule::run_schedule`], which runs independent experiments
//! concurrently on a shared [`pool::JobPool`] (`--jobs N`). Each
//! experiment prints the series/rows the paper reports and writes CSVs
//! under `results/`; identical sweep configurations requested by
//! different figures are computed once via the content-addressed
//! [`experiments::SweepCache`], and every output is bit-identical
//! regardless of `--jobs` or thread count.
//!
//! ## A note on C-PoS magnitudes (`P_EFF`)
//!
//! The paper's C-PoS *model* (Section 2.4, Theorems 3.5/4.10) divides the
//! proposer reward across `P = 32` shards, which shrinks the per-epoch
//! lottery variance by `1/P`. Its *reported simulation magnitudes*, however
//! — Figure 5(d)'s unfair probabilities of ≈70%/50%/10% for
//! `v ∈ {0, 0.01, 0.1}`, Figure 3(d)'s ≈10% plateau at `a = 0.2`, and
//! Table 1's C-PoS row — are reproduced exactly by an *effective* single
//! proposer draw per epoch (`P_eff = 1`); with the full `P = 32` variance
//! reduction every C-PoS unfair probability would be below 1%, collapsing
//! those curves. We therefore run the paper-matching figures with
//! `P_eff = 1` (the shape and magnitudes match) and demonstrate the
//! theorem's `P`-dependence separately in the shard ablation
//! (`repro ablations`), which also re-anchors at the paper-default
//! ensemble shared with Figures 2/3/5.

pub mod experiments;
pub mod gate;
pub mod pool;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod service;

use std::path::PathBuf;
use std::str::FromStr;

/// Options shared by all reproduction experiments.
#[derive(Debug, Clone)]
pub struct ReproOptions {
    /// Monte-Carlo repetitions for closed-form simulations (paper: 10,000).
    pub repetitions: usize,
    /// Repetitions for hash-level "real system" experiments (paper: 500
    /// for PoS, 10 for PoW).
    pub system_repetitions: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV files.
    pub results_dir: PathBuf,
    /// Whether to run the hash-level chain-sim overlays (slower).
    pub with_system: bool,
    /// Worker budget per scheduling layer (`--jobs`): experiments and
    /// their sweep points share one [`pool::JobPool`] of this size, and
    /// each Monte-Carlo ensemble spawns up to this many workers of its
    /// own, so a run can hold up to `jobs²` threads. `0` means one worker
    /// per available core. Never affects results, only wall-clock time.
    pub jobs: usize,
    /// Largest miner count swept by Table 1 (`--max-miners`; paper: 10).
    pub max_miners: usize,
    /// Persist computed ensembles under `<results_dir>/.cache` so repeated
    /// invocations reuse them (`--no-disk-cache` opts out). Never affects
    /// results — the spill round-trips bit-exactly.
    pub disk_cache: bool,
}

impl Default for ReproOptions {
    fn default() -> Self {
        Self {
            repetitions: 10_000,
            system_repetitions: 200,
            seed: 0x5168_3D02,
            results_dir: PathBuf::from("results"),
            with_system: true,
            jobs: 0,
            max_miners: 10,
            disk_cache: true,
        }
    }
}

impl ReproOptions {
    /// Reduced-scale options for smoke runs (~20× faster).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            repetitions: 1_000,
            system_repetitions: 40,
            ..Self::default()
        }
    }
}

/// The run flags `repro` and `fairness-serve` share, parsed into
/// [`ReproOptions`]:
///
/// ```text
/// --quick --no-system --no-disk-cache --jobs N --reps N --system-reps N
/// --seed N --max-miners N --out DIR
/// ```
///
/// Feed each argument to [`take`](Self::take), handle the ones it
/// declines, then call [`finish`](Self::finish). `--quick` rescales only
/// the repetition counts the user did not set, in either flag order.
#[derive(Debug, Default)]
pub struct RunFlags {
    opts: ReproOptions,
    quick: bool,
    repetitions: Option<usize>,
    system_repetitions: Option<usize>,
}

impl RunFlags {
    /// Applies `arg` if it is a shared run flag, reading its value from
    /// `rest`. Returns `Ok(false)`, consuming nothing, for any other
    /// argument.
    ///
    /// # Errors
    /// A message naming the flag if its value is missing or out of range:
    /// both repetition counts must be at least 1, `--max-miners` at
    /// least 2.
    pub fn take(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--quick" => self.quick = true,
            "--no-system" => self.opts.with_system = false,
            "--no-disk-cache" => self.opts.disk_cache = false,
            "--jobs" => self.opts.jobs = number(arg, rest, 0)?,
            "--reps" => self.repetitions = Some(number(arg, rest, 1)?),
            "--system-reps" => self.system_repetitions = Some(number(arg, rest, 1)?),
            "--seed" => self.opts.seed = number(arg, rest, 0)?,
            "--max-miners" => self.opts.max_miners = number(arg, rest, 2)?,
            "--out" => {
                self.opts.results_dir = rest.next().ok_or("--out needs a directory")?.into();
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The options the flags describe.
    #[must_use]
    pub fn finish(self) -> ReproOptions {
        let scale = if self.quick {
            ReproOptions::quick()
        } else {
            ReproOptions::default()
        };
        ReproOptions {
            repetitions: self.repetitions.unwrap_or(scale.repetitions),
            system_repetitions: self.system_repetitions.unwrap_or(scale.system_repetitions),
            ..self.opts
        }
    }
}

/// Reads the value after `flag` as a number no smaller than `min`.
fn number<T: FromStr + PartialOrd + From<u8>>(
    flag: &str,
    rest: &mut impl Iterator<Item = String>,
    min: u8,
) -> Result<T, String> {
    rest.next()
        .and_then(|v| v.parse().ok())
        .filter(|v| *v >= T::from(min))
        .ok_or_else(|| match min {
            0 => format!("{flag} needs a number"),
            _ => format!("{flag} needs a number >= {min}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `args` with nothing but the shared flags.
    fn parse(args: &[&str]) -> Result<ReproOptions, String> {
        let mut flags = RunFlags::default();
        let mut rest = args.iter().map(|a| (*a).to_owned());
        while let Some(arg) = rest.next() {
            if !flags.take(&arg, &mut rest)? {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(flags.finish())
    }

    #[test]
    fn zero_repetitions_are_rejected() {
        for flag in ["--reps", "--system-reps"] {
            for args in [&[flag, "0"][..], &["--quick", flag, "0"], &[flag]] {
                let err = parse(args).expect_err("must reject");
                assert_eq!(err, format!("{flag} needs a number >= 1"), "{args:?}");
            }
        }
        assert!(parse(&["--max-miners", "1"]).is_err());
        assert!(parse(&["--jobs", "x"]).is_err());
        assert!(parse(&["--out"]).is_err());
        let opts = parse(&["--reps", "1", "--system-reps", "1"]).unwrap();
        assert_eq!((opts.repetitions, opts.system_repetitions), (1, 1));
    }

    #[test]
    fn quick_rescales_only_unset_counts_in_either_order() {
        let full = ReproOptions::default();
        let quick = ReproOptions::quick();
        let counts = |args: &[&str]| {
            let opts = parse(args).unwrap();
            (opts.repetitions, opts.system_repetitions)
        };
        assert_eq!(counts(&[]), (full.repetitions, full.system_repetitions));
        assert_eq!(
            counts(&["--quick"]),
            (quick.repetitions, quick.system_repetitions)
        );
        for args in [["--quick", "--reps", "7"], ["--reps", "7", "--quick"]] {
            assert_eq!(counts(&args), (7, quick.system_repetitions), "{args:?}");
        }
        for args in [
            ["--quick", "--system-reps", "3"],
            ["--system-reps", "3", "--quick"],
        ] {
            assert_eq!(counts(&args), (quick.repetitions, 3), "{args:?}");
        }
        assert_eq!(counts(&["--system-reps", "3"]), (full.repetitions, 3));
    }

    #[test]
    fn shared_flags_fill_the_options_and_decline_the_rest() {
        let opts = parse(&[
            "--no-system",
            "--no-disk-cache",
            "--jobs",
            "3",
            "--seed",
            "18446744073709551615",
            "--max-miners",
            "40",
            "--out",
            "elsewhere",
        ])
        .unwrap();
        assert!(!opts.with_system && !opts.disk_cache);
        assert_eq!((opts.jobs, opts.seed, opts.max_miners), (3, u64::MAX, 40));
        assert_eq!(opts.results_dir, PathBuf::from("elsewhere"));

        let mut flags = RunFlags::default();
        let mut rest = ["FILE".to_owned()].into_iter();
        assert_eq!(flags.take("--timings", &mut rest), Ok(false));
        assert_eq!(
            rest.next().as_deref(),
            Some("FILE"),
            "a declined flag consumes nothing"
        );
    }
}

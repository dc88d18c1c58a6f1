//! One module per figure/table of the paper's evaluation (Section 5), plus
//! the ablations and extensions, behind a uniform [`Experiment`] registry.
//!
//! Every experiment prints the series the paper plots (as aligned tables)
//! and writes CSVs under the results directory for plotting. All runs are
//! seeded and reproducible: ensemble seeds are derived from the *content*
//! of each configuration (see [`cache::SweepCache`]), so identical sweeps
//! requested by different figures share one computation and every output
//! is bit-identical regardless of `--jobs`, thread count, or execution
//! order.
//!
//! # Adding a figure module
//!
//! 1. Create `experiments/fig_new.rs` with a `pub fn fig_new(ctx:
//!    &SweepSession) -> io::Result<String>` that renders its report
//!    and writes CSVs via [`crate::report::write_csv`]. Use
//!    [`SweepSession::ensemble`] for closed-form ensembles (memoized,
//!    content-seeded) and [`crate::pool::JobPool::par_map`] via `ctx.pool`
//!    for independent sweep points.
//! 2. Declare a unit struct and implement [`Experiment`] for it; list any
//!    experiments whose ensembles this one reuses in
//!    [`Experiment::dependencies`] (an ordering hint that maximizes cache
//!    hits — not a data dependency).
//! 3. Add the struct to [`registry`] and a line to the `repro` usage text.

mod ablations;
mod adversarial;
pub mod cache;
pub mod common;
pub mod diskcache;
mod extensions;
mod fig1;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod optimal;
mod redistribution;
mod scale;
mod table1;

pub use ablations::ablations;
pub use adversarial::adversarial;
pub use cache::SweepCache;
pub use common::P_EFF;
pub use extensions::extensions;
pub use fig1::fig1;
pub use fig2::fig2;
pub use fig3::fig3;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig6::fig6;
pub use optimal::{compound_specs, empirical_threshold, mdp_depth, optimal};
pub use redistribution::redistribution;
pub use scale::{scale, scale_grid, tail_monopolization_threshold};
pub use table1::{miner_counts, table1};

use std::io;

pub use crate::service::{SweepService, SweepSession};

/// A registered figure/table reproduction.
pub trait Experiment: Sync {
    /// CLI target name (`fig1`, `table1`, …).
    fn name(&self) -> &'static str;

    /// One-line description shown in listings.
    fn description(&self) -> &'static str;

    /// Experiments that should *run before* this one when both are
    /// selected — an ordering hint so this experiment's shared ensembles
    /// are already cached (never a data dependency: every experiment also
    /// runs standalone and recomputes what it needs).
    fn dependencies(&self) -> &'static [&'static str] {
        &[]
    }

    /// Runs the experiment, returning its printed report.
    ///
    /// # Errors
    /// Returns any I/O error from writing result CSVs.
    fn run(&self, ctx: &SweepSession) -> io::Result<String>;
}

macro_rules! experiment {
    ($struct_name:ident, $fn_path:path, $name:literal, $desc:literal, deps: [$($dep:literal),*]) => {
        /// Registry entry for the experiment of the same name.
        #[derive(Debug, Clone, Copy)]
        pub struct $struct_name;

        impl Experiment for $struct_name {
            fn name(&self) -> &'static str {
                $name
            }

            fn description(&self) -> &'static str {
                $desc
            }

            fn dependencies(&self) -> &'static [&'static str] {
                &[$($dep),*]
            }

            fn run(&self, ctx: &SweepSession) -> io::Result<String> {
                $fn_path(ctx)
            }
        }
    };
}

experiment!(
    Fig1,
    fig1::fig1,
    "fig1",
    "SL-PoS win probability vs current share (drift to 0/1)",
    deps: []
);
experiment!(
    Fig2,
    fig2::fig2,
    "fig2",
    "evolution of lambda_A for PoW / ML-PoS / SL-PoS / C-PoS",
    deps: []
);
experiment!(
    Fig3,
    fig3::fig3,
    "fig3",
    "unfair probability vs n for a in {0.1..0.4}",
    deps: ["fig2"]
);
experiment!(
    Fig4,
    fig4::fig4,
    "fig4",
    "SL-PoS mean lambda_A: share sweep + reward sweep",
    deps: []
);
experiment!(
    Fig5,
    fig5::fig5,
    "fig5",
    "unfair probability: w sweeps (ML/SL/C-PoS) + v sweep",
    deps: ["fig2"]
);
experiment!(
    Fig6,
    fig6::fig6,
    "fig6",
    "FSL-PoS treatment, with and without reward withholding",
    deps: []
);
experiment!(
    Table1,
    table1::table1,
    "table1",
    "multi-miner game ({2..5} then multiples of 5 up to --max-miners)",
    deps: []
);
experiment!(
    Scale,
    scale::scale,
    "scale",
    "million-miner sweep: fairness + SL-PoS monopolization threshold vs m",
    deps: ["table1"]
);
experiment!(
    Ablations,
    ablations::ablations,
    "ablations",
    "shard sweep, withholding-period sweep, Section 6.4 sketches",
    deps: ["fig2"]
);
experiment!(
    Extensions,
    extensions::extensions,
    "extensions",
    "cash-out miners, mining pools, decentralization, equitability",
    deps: []
);
experiment!(
    AdversarialExp,
    adversarial::adversarial,
    "adversarial",
    "selfish mining alpha x gamma on PoW, stake-grinding depth on SL-PoS",
    deps: []
);
experiment!(
    Redistribution,
    redistribution::redistribution,
    "redistribution",
    "cluster-tax / fee-lottery / alleviation design space + Sybil stress",
    deps: []
);
experiment!(
    Optimal,
    optimal::optimal,
    "optimal",
    "fork-MDP optimal withholding grid, compounding-PoS attack, equilibria",
    deps: ["adversarial"]
);

/// All registered experiments, in canonical (presentation) order.
#[must_use]
pub fn registry() -> &'static [&'static dyn Experiment] {
    static REGISTRY: [&dyn Experiment; 13] = [
        &Fig1,
        &Fig2,
        &Fig3,
        &Fig4,
        &Fig5,
        &Fig6,
        &Table1,
        &Scale,
        &Ablations,
        &Extensions,
        &AdversarialExp,
        &Redistribution,
        &Optimal,
    ];
    &REGISTRY
}

/// Looks an experiment up by CLI name.
#[must_use]
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    registry().iter().copied().find(|e| e.name() == name)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::SweepService;
    use crate::ReproOptions;

    /// A tiny harness for unit tests: 60 repetitions, no hash-level system
    /// runs, CSVs under a per-suffix temp dir, a serial pool. Cache
    /// hit/miss counts would be the same at any `jobs`: the cache is
    /// single-flight, so each key is one miss and a lookup that waited
    /// for a concurrent compute counts as a hit.
    pub fn tiny_service(dir_suffix: &str) -> SweepService {
        SweepService::new(tiny_opts(dir_suffix))
    }

    /// The options behind [`tiny_service`].
    pub fn tiny_opts(dir_suffix: &str) -> ReproOptions {
        ReproOptions {
            repetitions: 60,
            system_repetitions: 4,
            seed: 7,
            results_dir: std::env::temp_dir().join(format!("fairness-bench-exp-{dir_suffix}")),
            with_system: false,
            jobs: 1,
            max_miners: 10,
            // Unit tests stay hermetic: no cross-run disk state.
            disk_cache: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_unique_and_findable() {
        let names: Vec<_> = registry().iter().map(|e| e.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate names: {names:?}");
        for n in names {
            assert!(find(n).is_some());
            assert!(!find(n).expect("found").description().is_empty());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn registry_dependencies_resolve() {
        for e in registry() {
            for dep in e.dependencies() {
                assert!(find(dep).is_some(), "{} depends on unknown {dep}", e.name());
                assert_ne!(*dep, e.name(), "{} depends on itself", e.name());
            }
        }
    }
}

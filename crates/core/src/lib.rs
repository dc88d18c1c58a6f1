#![warn(missing_docs)]
// The SL-PoS lane kernel (`game::lanes`) is the one module allowed `unsafe`.
#![deny(unsafe_code)]

//! # fairness-core
//!
//! Fairness analysis for blockchain incentives — a faithful, executable
//! reproduction of *"Do the Rich Get Richer? Fairness Analysis for
//! Blockchain Incentives"* (Huang, Tang, Cong, Lim, Xu; SIGMOD 2021).
//!
//! The paper asks whether Proof-of-Stake makes the rich richer and answers
//! with two fairness notions:
//!
//! * **expectational fairness** — `E[λ_A] = a`: the expected reward share
//!   equals the initial resource share ([`fairness`], Definition 3.1);
//! * **(ε, δ)-robust fairness** — `Pr[(1−ε)a ≤ λ_A ≤ (1+ε)a] ≥ 1 − δ`:
//!   actual outcomes concentrate around the fair share ([`fairness`],
//!   Definition 4.1).
//!
//! Four incentive protocols are analyzed (and implemented here as
//! [`protocol::IncentiveProtocol`]s in [`protocols`]):
//!
//! | Protocol | Expectational | Robust |
//! |---|---|---|
//! | PoW | ✓ (Thm 3.2) | ✓ for `n ≥ ln(2/δ)/(2a²ε²)` (Thm 4.2) |
//! | ML-PoS | ✓ (Thm 3.3) | only if `1/n + w ≤ 2a²ε²/ln(2/δ)` (Thm 4.3) |
//! | SL-PoS | ✗ (Thm 3.4) | ✗ — monopolization a.s. (Thm 4.9) |
//! | C-PoS | ✓ (Thm 3.5) | if `w²(1/n+w+v)/((w+v)²P)` is small (Thm 4.10) |
//!
//! Plus the paper's remedies: the FSL-PoS time-function treatment
//! (Section 6.2) and reward withholding ([`withholding`], Section 6.3),
//! and the Section 6.4 protocol sketches (NEO, Algorand, EOS).
//!
//! ## Quick start
//!
//! ```
//! use fairness_core::prelude::*;
//!
//! // The paper's Figure 2(b) setting: a = 0.2, w = 0.01, ML-PoS.
//! let config = EnsembleConfig::paper_default(0.2, 1000, 500, 42);
//! let summary = run_ensemble(&MlPos::new(0.01), &config);
//! let last = summary.final_point();
//! assert!((last.mean - 0.2).abs() < 0.02);        // expectationally fair
//! assert!(last.unfair_probability > 0.1);          // but not robustly fair
//! ```

pub mod adversary;
pub mod decentralization;
pub mod fairness;
pub mod game;
pub mod ledger;
pub mod mdp;
pub mod miner;
pub mod montecarlo;
pub mod protocol;
pub mod protocols;
pub mod redistribution;
pub mod registry;
pub mod scenario;
pub mod strategies;
pub mod theory;
pub mod trajectory;
pub mod withholding;

pub use adversary::{
    run_fork_game, Adversary, ForkAction, ForkEvent, ForkMachine, ForkState, Honest, RevenueTally,
    SelfishMining, StakeGrinding, Strategy,
};
pub use decentralization::DecentralizationReport;
pub use fairness::{
    equitability, expectational_gap, unfair_probability, EpsilonDelta, FairnessVerdict,
};
pub use game::MiningGame;
pub use ledger::{AggregatedTailGame, StakeLedger, TailKernel};
pub use mdp::{
    best_response_equilibrium, solve_optimal, BestResponse, Equilibrium, EquilibriumConfig,
    OptimalWithholding, SolvedPolicy,
};
pub use montecarlo::{
    run_ensemble, run_ensemble_multi, summarize, BandPoint, EnsembleConfig, EnsembleSummary,
};
pub use protocol::{IncentiveProtocol, StepRewards};
pub use protocols::{Algorand, CPos, Eos, FslPos, MlPos, Neo, Pow, SlPos};
pub use redistribution::{Alleviation, ClusterTax, FeeLottery, Sybil, SybilSplit};
pub use registry::{BoxedProtocol, BoxedStrategy, RegistryError};
pub use scenario::{
    print_scenarios, Checkpoints, ProtocolSpec, ScenarioSpec, SharesSpec, SystemSpec,
};
pub use strategies::{CashOut, MiningPool};
pub use trajectory::{linear_checkpoints, log_checkpoints, Trajectory};
pub use withholding::WithholdingSchedule;

/// Convenient glob import for experiments.
pub mod prelude {
    pub use crate::adversary::{
        run_fork_game, Adversary, Honest, RevenueTally, SelfishMining, StakeGrinding, Strategy,
    };
    pub use crate::decentralization::DecentralizationReport;
    pub use crate::fairness::{equitability, unfair_probability, EpsilonDelta, FairnessVerdict};
    pub use crate::game::MiningGame;
    pub use crate::ledger::{AggregatedTailGame, StakeLedger, TailKernel};
    pub use crate::mdp::{
        best_response_equilibrium, solve_optimal, BestResponse, Equilibrium, EquilibriumConfig,
        OptimalWithholding, SolvedPolicy,
    };
    pub use crate::miner::{equal_shares, paper_multi_miner, two_miner, zipf_shares};
    pub use crate::montecarlo::{
        run_ensemble, run_ensemble_multi, BandPoint, EnsembleConfig, EnsembleSummary,
    };
    pub use crate::protocol::{IncentiveProtocol, StepRewards};
    pub use crate::protocols::{Algorand, CPos, Eos, FslPos, MlPos, Neo, Pow, SlPos};
    pub use crate::redistribution::{Alleviation, ClusterTax, FeeLottery, Sybil, SybilSplit};
    pub use crate::registry::{BoxedProtocol, BoxedStrategy};
    pub use crate::scenario::{Checkpoints, ProtocolSpec, ScenarioSpec, SharesSpec, SystemSpec};
    pub use crate::strategies::{CashOut, MiningPool};
    pub use crate::theory;
    pub use crate::trajectory::{linear_checkpoints, log_checkpoints};
    pub use crate::withholding::WithholdingSchedule;
    pub use fairness_stats::rng::Xoshiro256StarStar;
}

#![warn(missing_docs)]

//! # fairness-stats
//!
//! Numerical substrate for the blockchain-fairness workspace: everything the
//! fairness analysis of Huang et al. (SIGMOD 2021, "Do the Rich Get Richer?")
//! needs from a statistics library, implemented from scratch so that the
//! reproduction has no dependencies at all.
//!
//! The crate provides:
//!
//! * deterministic, splittable random number generation ([`rng`]); every
//!   sampler draws from a concrete [`Xoshiro256StarStar`];
//! * special functions — log-gamma, regularized incomplete beta/gamma, error
//!   function ([`special`]);
//! * probability distributions with samplers *and* analytic pmf/pdf/cdf
//!   ([`dist`]);
//! * streaming and batch descriptive statistics ([`summary`], [`histogram`]);
//! * concentration inequalities used by the paper's robust-fairness theorems
//!   ([`concentration`]);
//! * Pólya-urn machinery: the ML-PoS mining game is a classical Pólya urn and
//!   its reward fraction converges to a Beta distribution ([`polya`]);
//! * a stochastic-approximation toolkit implementing Definition 4.4 and
//!   Lemmas 4.5–4.8 of the paper, used for the SL-PoS monopolization proof
//!   ([`sa`]);
//! * a deterministic parallel Monte-Carlo executor with an atomic-index
//!   work-stealing scheduler ([`mc`]);
//! * incremental weighted sampling — a Fenwick-tree sampler with O(log m)
//!   draw and O(log m) stake update for the simulation hot path
//!   ([`sampling`]);
//! * memoization primitives for sweep harnesses — a thread-safe keyed cache
//!   and a stable hasher for content-derived seeds ([`cache`]).

pub mod cache;
pub mod ci;
pub mod concentration;
pub mod dist;
pub mod histogram;
pub mod mc;
pub mod polya;
pub mod rng;
pub mod sa;
pub mod sampling;
pub mod special;
pub mod summary;

pub use cache::{MemoCache, StableHasher};
pub use ci::{mean_interval, wilson_interval, ConfidenceInterval};
pub use concentration::{azuma_tail, azuma_tail_ranges, hoeffding_sufficient_n, hoeffding_tail};
pub use dist::{
    exponential_race_win, geometric_race_tie, geometric_race_win, geometric_race_win_with_tiebreak,
    sample_exponential_race, Bernoulli, Beta, Binomial, ContinuousDistribution, Dirichlet,
    DiscreteDistribution, Exponential, Gamma, Geometric, Multinomial, Normal, Poisson, Uniform,
};
pub use histogram::{Ecdf, Histogram};
pub use mc::{run_monte_carlo, set_global_threads, McConfig};
pub use polya::PolyaUrn;
pub use rng::{SeedSequence, SplitMix64, Xoshiro256StarStar};
pub use sa::{classify_zero, find_zeros, Stability};
pub use sampling::FenwickSampler;
pub use special::{erf, erfc, ln_gamma, reg_inc_beta, reg_lower_gamma};
pub use summary::{quantile, FiveNumber, MeanAboveHalf, Welford};

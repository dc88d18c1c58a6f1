//! Optimal adversaries: value-iteration withholding policies over the
//! fork-state MDP, and best-response equilibrium search between two
//! strategic miners.
//!
//! [`SelfishMining`] is one fixed heuristic; this module computes the
//! *best attainable* withholding policy (Sapirshtein et al.'s
//! optimal-selfish-mining question, posed inside this repo's
//! [`ForkMachine`](crate::adversary::ForkMachine) semantics):
//!
//! * [`solver`] — generic finite-MDP representation plus relative value
//!   iteration with span-seminorm stopping and a Dinkelbach ratio loop;
//! * [`fork`] — the fork-state MDP over `(attacker lead, public length,
//!   published, event)` with truncation-depth closure;
//! * [`OptimalWithholding`] — a [`Strategy`] that plays the solved policy
//!   by table lookup. Solving is lazy and memoized through a
//!   content-addressed cache ([`solve_optimal`]), so `.scn` sweeps and
//!   ensembles construct it for free and solve once per `(α, γ, depth)`;
//! * [`best_response_equilibrium`] + [`BestResponse`] — iterated policy
//!   solves between two attackers under a mean-field coupling, with a
//!   fixed round budget and a convergence flag.
//!
//! Everything is deterministic: solves are pure sequential `f64`
//! programs, policies carry a [`StableHasher`] fingerprint, and identical
//! parameters always return the identical table.

pub mod fork;
pub mod solver;

use crate::adversary::{ForkAction, ForkEvent, ForkState, SelfishMining, Strategy};
use fairness_stats::cache::{MemoCache, StableHasher};
use fork::{full_index, ForkMdp, ACTIONS};
use std::sync::{Arc, OnceLock};

/// A solved optimal-withholding policy for one `(α, γ, depth)`.
#[derive(Debug, Clone)]
pub struct SolvedPolicy {
    /// Attacker share the policy was solved for.
    pub alpha: f64,
    /// Tie-break parameter.
    pub gamma: f64,
    /// Truncation depth of the fork MDP.
    pub depth: u32,
    /// Optimal relative revenue (the Dinkelbach fixed point).
    pub revenue: f64,
    /// `[attacker-settled, total-settled]` gains per discovery event.
    pub gains: [f64; 2],
    /// Relative revenue of the Eyal–Sirer policy *in the same truncated
    /// MDP* — the apples-to-apples baseline the optimal policy is
    /// guaranteed to dominate.
    pub eyal_sirer: f64,
    /// Dense action table over the full decision-state grid
    /// ([`fork::full_index`] layout; `255` marks invalid slots). Values
    /// are positions into [`fork::ACTIONS`].
    pub table: Vec<u8>,
    /// Dinkelbach rounds performed.
    pub rounds: u32,
    /// Whether every inner solve converged and the ratio reached its
    /// fixed point within the budget.
    pub converged: bool,
    /// Content fingerprint of `(α, γ, depth, table)` — stable across
    /// runs and machines; reported in `optimal_policy.csv`.
    pub fingerprint: u64,
}

/// Content-addressed key of one solve configuration.
#[must_use]
pub fn solve_key(alpha: f64, gamma: f64, depth: u32) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("fork-mdp-optimal");
    h.write_f64(alpha);
    h.write_f64(gamma);
    h.write_u64(u64::from(depth));
    h.finish()
}

/// The process-wide solve cache: one entry per distinct `(α, γ, depth)`.
#[must_use]
pub fn solve_cache() -> &'static MemoCache<u64, Arc<SolvedPolicy>> {
    static CACHE: OnceLock<MemoCache<u64, Arc<SolvedPolicy>>> = OnceLock::new();
    CACHE.get_or_init(MemoCache::new)
}

/// Solves (or returns the cached) optimal withholding policy at
/// `(alpha, gamma, depth)`.
///
/// The Dinkelbach loop is seeded with the Eyal–Sirer policy's revenue in
/// the same truncated MDP, which makes the result provably at least that
/// baseline (each round is monotone in the ratio); the defensive
/// fall-back to the baseline policy below can only fire on numerical
/// pathology and preserves the guarantee exactly.
///
/// # Panics
/// Panics on parameters [`ForkMdp::new`] rejects.
#[must_use]
pub fn solve_optimal(alpha: f64, gamma: f64, depth: u32) -> Arc<SolvedPolicy> {
    let key = solve_key(alpha, gamma, depth);
    solve_cache().get_or_insert_with(&key, || {
        let mdp = ForkMdp::new(alpha, gamma, depth);
        let es_policy = mdp.induced_policy(&SelfishMining::new(gamma));
        let es = mdp.evaluate(&es_policy);
        let seed = es.revenue.max(alpha.min(1.0 - f64::EPSILON));
        let (policy, value, rounds, converged) = mdp.optimize(seed);
        let (policy, value) = if value.revenue >= es.revenue {
            (policy, value)
        } else {
            (es_policy, es)
        };
        let table = mdp.to_full_table(&policy);
        let mut h = StableHasher::new();
        h.write_str("fork-mdp-policy");
        h.write_f64(alpha);
        h.write_f64(gamma);
        h.write_u64(u64::from(depth));
        h.write_bytes(&table);
        Arc::new(SolvedPolicy {
            alpha,
            gamma,
            depth,
            revenue: value.revenue,
            gains: value.gains,
            eyal_sirer: es.revenue,
            table,
            rounds,
            converged: converged && es.converged,
            fingerprint: h.finish(),
        })
    })
}

/// Table lookup with the truncation closure as fall-back: outside the
/// solved grid the policy publishes a strictly longer private branch and
/// adopts otherwise — exactly the forced boundary behaviour the MDP was
/// closed with, so the Monte-Carlo fork driver realizes the truncated
/// chain verbatim.
fn table_decide(policy: &SolvedPolicy, state: ForkState, event: ForkEvent) -> ForkAction {
    let depth = u64::from(policy.depth);
    if state.private > depth {
        return if state.private > state.public {
            ForkAction::Publish
        } else {
            ForkAction::Adopt
        };
    }
    if state.public > depth {
        return ForkAction::Adopt;
    }
    let e = match event {
        ForkEvent::SelfBlock => 0,
        ForkEvent::PublicBlock => 1,
    };
    let slot = policy.table[full_index(
        state.private,
        state.public,
        state.published,
        e,
        policy.depth,
    )];
    if slot == 255 {
        // Unreachable under ForkMachine semantics; fail safe as honest.
        return match event {
            ForkEvent::SelfBlock => ForkAction::Publish,
            ForkEvent::PublicBlock => ForkAction::Adopt,
        };
    }
    ACTIONS[slot as usize]
}

/// The revenue-optimal withholding adversary: plays the value-iteration
/// policy for `(alpha, gamma, depth)` by table lookup.
///
/// Solving is lazy (first [`decide`](Strategy::decide)) and memoized
/// process-wide through [`solve_optimal`], so cloning per ensemble
/// repetition costs nothing and repeated sweeps reuse one solve.
///
/// `alpha` is the attacker share the policy is optimal *for*; pair it
/// with a matching share vector in the scenario, exactly as the
/// Eyal–Sirer closed form is evaluated at the attacker's α.
#[derive(Debug, Clone)]
pub struct OptimalWithholding {
    alpha: f64,
    gamma: f64,
    depth: u32,
    solved: OnceLock<Arc<SolvedPolicy>>,
}

impl OptimalWithholding {
    /// Creates the strategy (no solving happens until first use).
    ///
    /// # Panics
    /// Panics unless `alpha ∈ (0, 1)`, `gamma ∈ [0, 1]` and `depth ≥ 2`.
    #[must_use]
    pub fn new(alpha: f64, gamma: f64, depth: u32) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "attacker share must be in (0, 1), got {alpha}"
        );
        assert!(
            (0.0..=1.0).contains(&gamma),
            "gamma must be in [0, 1], got {gamma}"
        );
        assert!(
            depth >= 2,
            "truncation depth must be at least 2, got {depth}"
        );
        Self {
            alpha,
            gamma,
            depth,
            solved: OnceLock::new(),
        }
    }

    /// The solved policy (solving and caching it on first call).
    #[must_use]
    pub fn solved(&self) -> &Arc<SolvedPolicy> {
        self.solved
            .get_or_init(|| solve_optimal(self.alpha, self.gamma, self.depth))
    }
}

impl Strategy for OptimalWithholding {
    fn name(&self) -> &'static str {
        "optimal-withholding"
    }

    fn decide(&self, state: ForkState, event: ForkEvent) -> ForkAction {
        table_decide(self.solved(), state, event)
    }

    fn gamma(&self) -> f64 {
        self.gamma
    }

    fn params(&self) -> Vec<f64> {
        vec![self.alpha, self.gamma, f64::from(self.depth)]
    }
}

// ---------------------------------------------------------------------------
// Two-adversary best-response search.
// ---------------------------------------------------------------------------

/// Configuration of a [`best_response_equilibrium`] search.
#[derive(Debug, Clone, Copy)]
pub struct EquilibriumConfig {
    /// Tie-break parameter both attackers play with.
    pub gamma: f64,
    /// Fork-MDP truncation depth of every inner solve.
    pub depth: u32,
    /// Best-response round budget (each round re-solves both attackers).
    pub max_rounds: u32,
}

impl Default for EquilibriumConfig {
    fn default() -> Self {
        Self {
            gamma: 0.0,
            depth: 24,
            max_rounds: 12,
        }
    }
}

/// Outcome of a two-adversary best-response search.
#[derive(Debug, Clone)]
pub struct Equilibrium {
    /// Raw attacker shares.
    pub alpha: [f64; 2],
    /// Effective shares at the fixed point (mean-field coupling).
    pub alpha_eff: [f64; 2],
    /// Each attacker's optimal relative revenue in her effective game.
    pub revenue: [f64; 2],
    /// Whether each attacker's equilibrium policy withholds at all
    /// (revenue strictly above her effective share).
    pub withholds: [bool; 2],
    /// Rounds performed before the fixed point (or the budget).
    pub rounds: u32,
    /// Whether a full round passed with neither policy changing.
    pub converged: bool,
    /// The equilibrium policies (index 0 ↔ `alpha[0]`).
    pub policies: [Arc<SolvedPolicy>; 2],
}

/// Quantization for effective shares: coarse enough that the iteration
/// reaches an exact fixed point (and re-solves hit the cache), fine
/// enough to be invisible in reported revenue.
fn quantize(alpha: f64) -> f64 {
    (alpha * 1e6).round() / 1e6
}

/// Locates equilibrium withholding between two strategic miners by
/// iterated best response under a *mean-field* coupling: each attacker
/// solves her single-agent fork MDP against the rest of the network,
/// whose block throughput is thinned by the opponent's withholding.
///
/// Concretely, if the opponent's current policy settles `g_tot(π_j)`
/// blocks per discovery event in her own game, attacker `i` faces the
/// effective share `α_i / (α_i + (1 − α_i) · g_tot(π_j))` — withholding
/// by the opponent slows the public chain, which *amplifies* the other
/// attacker. Both start from honest opponents (`g_tot = 1`); rounds
/// alternate re-solves until a full round changes neither effective
/// share (quantized at 1e−6) or the budget runs out. The coupling is an
/// approximation (the two fork races are not simulated jointly), chosen
/// so each inner solve stays an exact single-agent MDP.
///
/// # Panics
/// Panics unless both shares are positive and they sum below 1.
#[must_use]
pub fn best_response_equilibrium(alpha: [f64; 2], config: EquilibriumConfig) -> Equilibrium {
    assert!(
        alpha[0] > 0.0 && alpha[1] > 0.0,
        "attacker shares must be positive, got {alpha:?}"
    );
    assert!(
        alpha[0] + alpha[1] < 1.0,
        "attacker shares must sum below 1, got {alpha:?}"
    );
    let mut eff = [quantize(alpha[0]), quantize(alpha[1])];
    let mut throughput = [1.0f64; 2]; // honest opponents settle everything
    let mut solved: [Option<Arc<SolvedPolicy>>; 2] = [None, None];
    let mut rounds = 0;
    let mut converged = false;
    while rounds < config.max_rounds {
        rounds += 1;
        let mut changed = false;
        for i in 0..2 {
            let j = 1 - i;
            let target = quantize(alpha[i] / (alpha[i] + (1.0 - alpha[i]) * throughput[j]));
            if solved[i].is_some() && target == eff[i] {
                continue;
            }
            eff[i] = target;
            let s = solve_optimal(target, config.gamma, config.depth);
            throughput[i] = s.gains[1];
            solved[i] = Some(s);
            changed = true;
        }
        if !changed {
            converged = true;
            break;
        }
    }
    let policies = [
        solved[0].clone().expect("attacker 0 solved"),
        solved[1].clone().expect("attacker 1 solved"),
    ];
    let revenue = [policies[0].revenue, policies[1].revenue];
    Equilibrium {
        alpha,
        alpha_eff: eff,
        revenue,
        withholds: [revenue[0] > eff[0] + 1e-9, revenue[1] > eff[1] + 1e-9],
        rounds,
        converged,
        policies,
    }
}

/// A [`Strategy`] that plays attacker 0's side of the two-adversary
/// best-response fixed point for `(alpha, opponent)`: the equilibrium is
/// searched lazily on first use (memoized through the same solve cache)
/// and the resulting policy is played by table lookup.
#[derive(Debug, Clone)]
pub struct BestResponse {
    alpha: f64,
    opponent: f64,
    config: EquilibriumConfig,
    solved: OnceLock<Arc<Equilibrium>>,
}

impl BestResponse {
    /// Creates the strategy (no solving happens until first use).
    ///
    /// # Panics
    /// Panics unless both shares are positive, they sum below 1,
    /// `gamma ∈ [0, 1]`, `depth ≥ 2` and `max_rounds ≥ 1`.
    #[must_use]
    pub fn new(alpha: f64, opponent: f64, config: EquilibriumConfig) -> Self {
        assert!(
            alpha > 0.0 && opponent > 0.0 && alpha + opponent < 1.0,
            "attacker shares must be positive and sum below 1, got {alpha} + {opponent}"
        );
        assert!(
            (0.0..=1.0).contains(&config.gamma),
            "gamma must be in [0, 1], got {}",
            config.gamma
        );
        assert!(config.depth >= 2, "truncation depth must be at least 2");
        assert!(config.max_rounds >= 1, "need at least one round");
        Self {
            alpha,
            opponent,
            config,
            solved: OnceLock::new(),
        }
    }

    /// The equilibrium this strategy plays (searching on first call).
    #[must_use]
    pub fn equilibrium(&self) -> &Arc<Equilibrium> {
        self.solved.get_or_init(|| {
            Arc::new(best_response_equilibrium(
                [self.alpha, self.opponent],
                self.config,
            ))
        })
    }
}

impl Strategy for BestResponse {
    fn name(&self) -> &'static str {
        "best-response"
    }

    fn decide(&self, state: ForkState, event: ForkEvent) -> ForkAction {
        table_decide(&self.equilibrium().policies[0], state, event)
    }

    fn gamma(&self) -> f64 {
        self.config.gamma
    }

    fn params(&self) -> Vec<f64> {
        vec![
            self.alpha,
            self.opponent,
            self.config.gamma,
            f64::from(self.config.depth),
            f64::from(self.config.max_rounds),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::run_fork_game;
    use fairness_stats::rng::Xoshiro256StarStar;

    #[test]
    fn solve_cache_memoizes_by_content() {
        // Other tests solve concurrently, so the cache's global miss count
        // says nothing here: a hit hands back the stored `Arc` itself.
        let a = solve_optimal(0.31, 0.25, 8);
        let b = solve_optimal(0.31, 0.25, 8);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(Arc::ptr_eq(&a, &b), "second solve must be a cache hit");
        let c = solve_optimal(0.31, 0.25, 9);
        assert_ne!(a.fingerprint, c.fingerprint, "depth must move the key");
    }

    #[test]
    fn optimal_dominates_eyal_sirer_in_the_same_mdp() {
        for (alpha, gamma) in [(0.2, 0.0), (0.35, 0.5), (0.45, 1.0)] {
            let s = solve_optimal(alpha, gamma, 12);
            assert!(s.converged, "α={alpha} γ={gamma} did not converge");
            assert!(
                s.revenue >= s.eyal_sirer - 1e-9,
                "α={alpha} γ={gamma}: optimal {} below ES {}",
                s.revenue,
                s.eyal_sirer
            );
            assert!(
                s.revenue >= alpha - 1e-6,
                "optimal play can always match honest mining"
            );
        }
    }

    #[test]
    fn below_threshold_the_optimal_policy_is_honest_revenue() {
        // γ = 0, α = 0.2 is far below the 1/3 threshold: no withholding
        // policy beats honest mining, so the optimum is exactly α.
        let s = solve_optimal(0.2, 0.0, 12);
        assert!((s.revenue - 0.2).abs() < 1e-6, "revenue {}", s.revenue);
    }

    #[test]
    fn strategy_plays_the_table_and_monte_carlo_agrees() {
        let strategy = OptimalWithholding::new(0.4, 0.5, 12);
        let mut rng = Xoshiro256StarStar::new(97);
        let mc = run_fork_game(&strategy, 0.4, 200_000, &mut rng).relative_revenue();
        let solved = strategy.solved().revenue;
        assert!(
            (mc - solved).abs() < 0.01,
            "monte carlo {mc} vs mdp {solved}"
        );
        assert!(solved > 0.4, "α=0.4 γ=0.5 withholding must beat honest");
    }

    #[test]
    fn degenerate_tiny_alpha_stays_finite() {
        // Satellite regression: an attacker that essentially never wins
        // must report 0-ish revenue, never NaN.
        let s = solve_optimal(1e-3, 0.5, 8);
        assert!(s.revenue.is_finite());
        assert!(s.revenue < 0.01, "revenue {}", s.revenue);
        let strategy = OptimalWithholding::new(1e-3, 0.5, 8);
        let mut rng = Xoshiro256StarStar::new(3);
        let tally = run_fork_game(&strategy, 1e-3, 2_000, &mut rng);
        assert!(tally.relative_revenue().is_finite());
    }

    #[test]
    fn best_response_converges_and_amplifies() {
        let eq = best_response_equilibrium(
            [0.35, 0.2],
            EquilibriumConfig {
                gamma: 0.0,
                depth: 8,
                max_rounds: 12,
            },
        );
        assert!(eq.converged, "small grid must reach a fixed point");
        // A withholding opponent slows the public chain: the effective
        // share can only grow.
        assert!(eq.alpha_eff[0] >= eq.alpha[0] - 1e-9);
        assert!(eq.alpha_eff[1] >= eq.alpha[1] - 1e-9);
        assert!(eq.withholds[0], "0.35 attacker withholds at γ=0");
        assert!(eq.revenue[0] > eq.revenue[1]);
    }

    #[test]
    fn best_response_strategy_is_playable() {
        let s = BestResponse::new(
            0.3,
            0.2,
            EquilibriumConfig {
                gamma: 0.0,
                depth: 8,
                max_rounds: 8,
            },
        );
        let mut rng = Xoshiro256StarStar::new(11);
        let tally = run_fork_game(&s, 0.3, 20_000, &mut rng);
        assert!(tally.relative_revenue().is_finite());
        assert_eq!(s.params().len(), 5);
    }
}

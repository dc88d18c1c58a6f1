//! Property tests pinning the fork-MDP machinery against the closed-form
//! theory and the Monte-Carlo fork driver.
//!
//! The load-bearing identity: restricting the truncated fork MDP to the
//! Eyal–Sirer policy and evaluating its average relative revenue must
//! reproduce `fairness_core::theory::selfish`'s closed form (the paper's
//! selfish-mining baseline) at every `(α, γ)` grid point — the MDP is a
//! *superset* of that strategy space, so this check validates states,
//! transition probabilities, and both reward channels at once.

use fairness_core::adversary::{run_fork_game, SelfishMining};
use fairness_core::mdp::fork::ForkMdp;
use fairness_core::mdp::{solve_optimal, OptimalWithholding};
use fairness_core::theory::selfish::selfish_mining_relative_revenue;
use fairness_stats::rng::Xoshiro256StarStar;

const ALPHAS: [f64; 5] = [0.10, 0.20, 0.30, 0.40, 0.45];
const GAMMAS: [f64; 3] = [0.0, 0.5, 1.0];

/// Truncation depth and closed-form tolerance per α. The private-lead
/// distribution has a geometric tail with ratio `α/(1−α)`, so the
/// truncation bias shrinks like `(α/(1−α))^depth`: negligible by depth 24
/// for α ≤ 0.30, while α = 0.45 (ratio 0.818) still carries a ~1%
/// downward bias at depth 96. See the README's truncation-depth note.
fn depth_and_tolerance(alpha: f64) -> (u32, f64) {
    if alpha > 0.40 {
        (96, 1.2e-2)
    } else if alpha > 0.30 {
        (64, 2e-3)
    } else {
        (24, 2e-3)
    }
}

#[test]
fn eyal_sirer_mdp_value_matches_the_closed_form_across_the_grid() {
    for alpha in ALPHAS {
        for gamma in GAMMAS {
            let (depth, tolerance) = depth_and_tolerance(alpha);
            let mdp = ForkMdp::new(alpha, gamma, depth);
            let policy = mdp.induced_policy(&SelfishMining::new(gamma));
            let value = mdp.evaluate(&policy);
            let closed = selfish_mining_relative_revenue(alpha, gamma);
            assert!(
                value.converged,
                "policy evaluation must converge at ({alpha}, {gamma})"
            );
            assert!(
                (value.revenue - closed).abs() < tolerance,
                "ES revenue drifted at ({alpha}, {gamma}): mdp {} vs closed form {closed}",
                value.revenue
            );
        }
    }
}

#[test]
fn truncation_bias_vanishes_monotonically_from_below() {
    // The forced closure (publish/adopt at the depth boundary) can only
    // hurt the attacker, so deeper truncation is monotonically better and
    // approaches the closed form from below.
    let (alpha, gamma) = (0.45, 0.0);
    let closed = selfish_mining_relative_revenue(alpha, gamma);
    let mut last = 0.0;
    for depth in [24u32, 48, 96] {
        let mdp = ForkMdp::new(alpha, gamma, depth);
        let value = mdp.evaluate(&mdp.induced_policy(&SelfishMining::new(gamma)));
        assert!(
            value.revenue > last,
            "revenue must increase with depth: {} at depth {depth} after {last}",
            value.revenue
        );
        assert!(
            value.revenue < closed + 1e-9,
            "truncated value may not exceed the closed form: {} vs {closed}",
            value.revenue
        );
        last = value.revenue;
    }
}

#[test]
fn optimal_revenue_dominates_honest_and_eyal_sirer_everywhere() {
    for alpha in ALPHAS {
        for gamma in GAMMAS {
            // Dominance holds at every truncation depth (honest and
            // Eyal–Sirer are in the same truncated strategy space), so a
            // modest depth keeps the 15 Dinkelbach solves fast.
            let depth = 16;
            let solved = solve_optimal(alpha, gamma, depth);
            // Honest play is in the MDP's strategy space and earns exactly α.
            assert!(
                solved.revenue >= alpha - 1e-9,
                "optimal below honest at ({alpha}, {gamma}): {}",
                solved.revenue
            );
            // So is the Eyal–Sirer policy (the Dinkelbach seed).
            assert!(
                solved.revenue >= solved.eyal_sirer - 1e-12,
                "optimal below Eyal–Sirer at ({alpha}, {gamma}): {} < {}",
                solved.revenue,
                solved.eyal_sirer
            );
            assert!(
                solved.converged,
                "solve must converge at ({alpha}, {gamma})"
            );
        }
    }
}

#[test]
fn independent_solves_produce_identical_tables_and_fingerprints() {
    // Two from-scratch solves (bypassing the process-wide cache) must agree
    // byte-for-byte — the determinism the CSV byte-diff CI step relies on.
    let (alpha, gamma, depth) = (0.35, 0.5, 16);
    let seed = selfish_mining_relative_revenue(alpha, gamma);
    let runs: Vec<_> = (0..2)
        .map(|_| {
            let mdp = ForkMdp::new(alpha, gamma, depth);
            let (policy, value, _, _) = mdp.optimize(seed);
            (mdp.to_full_table(&policy), value.revenue)
        })
        .collect();
    assert_eq!(runs[0].0, runs[1].0, "solve is not byte-deterministic");
    assert_eq!(runs[0].1.to_bits(), runs[1].1.to_bits());
    // And the cached entry agrees with the from-scratch table.
    let cached = solve_optimal(alpha, gamma, depth);
    assert_eq!(cached.table, runs[0].0);
}

#[test]
fn monte_carlo_fork_driver_agrees_with_the_mdp_value() {
    // The same chain semantics, realized two ways: the exact stationary
    // value from the MDP and a long simulated fork game must agree for
    // both the fixed Eyal–Sirer policy and the solved optimal policy.
    let (alpha, gamma) = (0.35, 0.5);
    let depth = 16;

    let mdp = ForkMdp::new(alpha, gamma, depth);
    let es_policy = mdp.induced_policy(&SelfishMining::new(gamma));
    let es_value = mdp.evaluate(&es_policy).revenue;
    let mut rng = Xoshiro256StarStar::new(0x00D1_CE00);
    let es_mc =
        run_fork_game(&SelfishMining::new(gamma), alpha, 400_000, &mut rng).relative_revenue();
    assert!(
        (es_mc - es_value).abs() < 5e-3,
        "ES Monte-Carlo {es_mc} vs MDP {es_value}"
    );

    let strategy = OptimalWithholding::new(alpha, gamma, depth);
    let opt_value = strategy.solved().revenue;
    let mut rng = Xoshiro256StarStar::new(0x0B5E_55ED);
    let opt_mc = run_fork_game(&strategy, alpha, 400_000, &mut rng).relative_revenue();
    assert!(
        (opt_mc - opt_value).abs() < 5e-3,
        "optimal Monte-Carlo {opt_mc} vs MDP {opt_value}"
    );
}

/// `(α, γ, depth)` → the solve's table fingerprint, the bits of its
/// revenue, gains and Eyal–Sirer baseline, its Dinkelbach rounds, and the
/// settled `(attacker, honest)` tally of a 20,000-round fork game that
/// plays the table.
type SolvePin = ((f64, f64, u32), u64, [u64; 4], u32, (u64, u64));

const SOLVE_PINS: &[SolvePin] = &[
    (
        (0.25, 0.5, 8),
        0xc1d6_793f_ab87_7a9b,
        [
            0x3fd0_7c2b_42b8_566b,
            0x3fcc_5fc8_4959_fba5,
            0x3feb_8a0f_d8a9_7a19,
            0x3fcf_ef0b_89d3_673a,
        ],
        2,
        (4316, 12074),
    ),
    (
        (0.35, 0.0, 16),
        0x3b22_c808_0588_a609,
        [
            0x3fd7_8fa8_45d3_5a60,
            0x3fd1_c651_258e_87a9,
            0x3fe8_2417_88ab_1737,
            0x3fd7_43d7_2ffb_e319,
        ],
        2,
        (5575, 9483),
    ),
    (
        (0.45, 1.0, 24),
        0x69dc_bd1d_d7d9_5d96,
        [
            0x3fe8_5998_922d_5f44,
            0x3fdf_3bcf_48e8_71ac,
            0x3fe4_85ec_6c06_332a,
            0x3fe5_3990_65cf_d3fb,
        ],
        3,
        (8993, 2833),
    ),
];

#[test]
fn optimal_solves_match_golden_pins() {
    // Pins the fork MDP's transition table end to end: the solved policy,
    // its value bit for bit and the solver's path to it. Regenerate ONLY
    // for a deliberate change of the fork rules or the solver.
    let got: Vec<SolvePin> = SOLVE_PINS
        .iter()
        .map(|&((alpha, gamma, depth), ..)| {
            let solved = solve_optimal(alpha, gamma, depth);
            let bits = [
                solved.revenue.to_bits(),
                solved.gains[0].to_bits(),
                solved.gains[1].to_bits(),
                solved.eyal_sirer.to_bits(),
            ];
            let strategy = OptimalWithholding::new(alpha, gamma, depth);
            let mut rng = Xoshiro256StarStar::new(0x5EED_0700);
            let game = run_fork_game(&strategy, alpha, 20_000, &mut rng);
            (
                (alpha, gamma, depth),
                solved.fingerprint,
                bits,
                solved.rounds,
                (game.attacker, game.honest),
            )
        })
        .collect();
    assert_eq!(got, SOLVE_PINS, "{got:#x?}");
}

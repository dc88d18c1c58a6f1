//! Integration tests: the paper's theorems (fairness-core::theory) against
//! large Monte-Carlo simulations of the closed-form games — every analytic
//! claim in Sections 3 and 4 is checked against the corresponding sampler.

use blockchain_fairness::prelude::*;

fn paper_ensemble(a: f64, horizon: u64, reps: usize, seed: u64) -> EnsembleConfig {
    EnsembleConfig {
        checkpoints: vec![horizon],
        ..EnsembleConfig::paper_default(a, horizon, reps, seed)
    }
}

#[test]
fn pow_exact_binomial_matches_simulation() {
    // Theorem 4.2 context: simulated unfair probability equals the exact
    // binomial computation within Monte-Carlo error.
    for &(n, a) in &[(500u64, 0.2), (1500, 0.2), (800, 0.3)] {
        let summary = run_ensemble(
            &Pow::new(&two_miner(a), 0.01),
            &paper_ensemble(a, n, 4000, 11),
        );
        let simulated = summary.final_point().unfair_probability;
        let exact = theory::pow::exact_unfair_probability(n, a, 0.1);
        let se = (exact * (1.0 - exact) / 4000.0).sqrt();
        assert!(
            (simulated - exact).abs() < 5.0 * se + 0.01,
            "n={n} a={a}: simulated {simulated} vs exact {exact}"
        );
    }
}

#[test]
fn pow_sufficient_n_is_indeed_sufficient() {
    // At Theorem 4.2's n the simulated unfair probability is below δ.
    let ed = EpsilonDelta::default();
    let n = theory::pow::sufficient_n(0.2, ed);
    let summary = run_ensemble(
        &Pow::new(&two_miner(0.2), 0.01),
        &paper_ensemble(0.2, n, 4000, 13),
    );
    let unfair = summary.final_point().unfair_probability;
    assert!(unfair <= ed.delta, "unfair {unfair} at sufficient n={n}");
}

#[test]
fn mlpos_terminal_distribution_matches_beta_limit() {
    // Section 4.3: λ_A(n→∞) ~ Beta(a/w, b/w). Compare the simulated
    // terminal ECDF at n = 5000 with the limit CDF (they differ by a small
    // finite-n correction).
    use blockchain_fairness::stats::dist::ContinuousDistribution;
    use blockchain_fairness::stats::histogram::Ecdf;

    let (a, w) = (0.2, 0.01);
    let reps = 4000;
    let config = paper_ensemble(a, 5000, reps, 17);
    let samples = blockchain_fairness::stats::mc::run_monte_carlo(
        blockchain_fairness::stats::mc::McConfig::new(reps, 17),
        |_i, rng| {
            let mut game = MiningGame::new(MlPos::new(w), &two_miner(a));
            game.run(5000, rng);
            game.lambda(0)
        },
    );
    drop(config);
    let ecdf = Ecdf::new(samples);
    let beta = theory::mlpos::limit_distribution(a, w);
    let ks = ecdf.ks_statistic(|x| beta.cdf(x));
    assert!(ks < 0.05, "KS distance to Beta(20,80): {ks}");
}

#[test]
fn mlpos_exact_polya_matches_simulation() {
    let (a, w, n) = (0.2, 0.01, 800u64);
    let summary = run_ensemble(&MlPos::new(w), &paper_ensemble(a, n, 4000, 19));
    let simulated = summary.final_point().unfair_probability;
    let exact = theory::mlpos::exact_unfair_probability(n as usize, a, w, 0.1);
    assert!(
        (simulated - exact).abs() < 0.03,
        "simulated {simulated} vs exact Pólya DP {exact}"
    );
}

#[test]
fn slpos_first_block_win_probability_matches_eq_1() {
    // Eq. (1): Pr[A wins block 1] = a/(2b) for a <= b.
    let reps = 20_000;
    for &a in &[0.1, 0.2, 0.4] {
        let samples = blockchain_fairness::stats::mc::run_monte_carlo(
            blockchain_fairness::stats::mc::McConfig::new(reps, 23),
            |_i, rng| {
                let mut game = MiningGame::new(SlPos::new(0.01), &two_miner(a));
                game.step(rng);
                game.lambda(0)
            },
        );
        let win_rate = samples.iter().filter(|&&l| l > 0.5).count() as f64 / reps as f64;
        let expect = theory::slpos::win_probability_two_miner(a);
        let se = (expect * (1.0 - expect) / reps as f64).sqrt();
        assert!(
            (win_rate - expect).abs() < 5.0 * se,
            "a={a}: win rate {win_rate} vs Eq.(1) {expect}"
        );
    }
}

#[test]
fn slpos_monopolizes_per_theorem_4_9() {
    // Long SL-PoS games end near absorption; from a = 0.2 the poor miner
    // almost always loses everything.
    let reps = 300;
    let samples = blockchain_fairness::stats::mc::run_monte_carlo(
        blockchain_fairness::stats::mc::McConfig::new(reps, 29),
        |_i, rng| {
            let mut game = MiningGame::new(SlPos::new(0.05), &two_miner(0.2));
            game.run(100_000, rng);
            game.stake(0) / (game.stake(0) + game.stake(1))
        },
    );
    let absorbed = samples
        .iter()
        .filter(|&&z| !(0.02..=0.98).contains(&z))
        .count();
    assert!(
        absorbed as f64 / reps as f64 > 0.95,
        "only {absorbed}/{reps} games reached absorption"
    );
    let died = samples.iter().filter(|&&z| z < 0.02).count();
    assert!(
        died as f64 / reps as f64 > 0.9,
        "poor miner survived too often: died {died}/{reps}"
    );
}

#[test]
fn lemma_6_1_matches_multi_miner_simulation() {
    // Multi-miner SL-PoS first-block win probabilities against the exact
    // polynomial integral, drawn three ways: the protocol's sampler,
    // `MiningGame::run` (the m ≥ 3 race kernel) and `MiningGame::run_batch`
    // over groups of eight games (the lane kernel on AVX-512F+DQ hosts).
    use blockchain_fairness::core::game::LANES;
    use blockchain_fairness::stats::mc::{run_monte_carlo, run_monte_carlo_chunks, McConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let reps = 30_000;
    for m in [3, 10] {
        let stakes = paper_multi_miner(m, 0.2);
        let exact = theory::slpos::win_probabilities(&stakes);
        let new_game = || MiningGame::new(SlPos::new(0.01), &stakes);
        let first_winner = |game: &MiningGame<SlPos>| {
            (0..m)
                .find(|&i| game.earned(i) > 0.0)
                .expect("one miner won the block")
        };
        let sampled = run_monte_carlo(McConfig::new(reps, 31), |_i, rng| {
            SlPos::sample_winner(&stakes, rng)
        });
        let raced = run_monte_carlo(McConfig::new(reps, 32), |_i, rng| {
            let mut game = new_game();
            game.run(1, rng);
            first_winner(&game)
        });
        let in_lanes = AtomicUsize::new(0);
        let laned = run_monte_carlo_chunks(
            McConfig::new(reps, 33),
            LANES,
            |_first, rngs| {
                let mut games = vec![new_game(); rngs.len()];
                let stepped = MiningGame::run_batch(&mut games, 1, rngs);
                in_lanes.fetch_add(stepped, Ordering::Relaxed);
                games.iter().map(first_winner).collect::<Vec<_>>()
            },
            |_| false,
        );
        if new_game().batch_width() == LANES {
            // Full groups of eight: every game stepped in the lane kernel.
            assert_eq!(in_lanes.into_inner(), reps, "m={m}");
        }
        for (path, winners) in [("sampler", sampled), ("run", raced), ("run_batch", laned)] {
            let mut counts = vec![0u64; m];
            for w in winners {
                counts[w] += 1;
            }
            for (i, &e) in exact.iter().enumerate() {
                let emp = counts[i] as f64 / reps as f64;
                let se = (e * (1.0 - e) / reps as f64).sqrt();
                assert!(
                    (emp - e).abs() < 5.0 * se + 0.002,
                    "m={m}, {path}, miner {i}: empirical {emp} vs Lemma 6.1 {e}"
                );
            }
        }
        // The richest miner wins more than her share — the Table 1
        // mechanism (miner A at m = 10, the two others at m = 3).
        let total: f64 = stakes.iter().sum();
        let richest = (0..m)
            .max_by(|&i, &j| stakes[i].total_cmp(&stakes[j]))
            .expect("miners");
        assert!(
            exact[richest] > stakes[richest] / total,
            "m={m}: richest miner's advantage {}",
            exact[richest]
        );
    }
}

#[test]
fn cpos_sufficient_condition_certifies_fair_runs() {
    // Where Theorem 4.10 certifies fairness, simulation agrees.
    let ed = EpsilonDelta::default();
    let (w, v, p, a, n) = (0.01, 0.1, 32, 0.2, 3000u64);
    assert!(theory::cpos::sufficient_condition(n, w, v, p, a, ed));
    let summary = run_ensemble(&CPos::new(w, v, p), &paper_ensemble(a, n, 4000, 37));
    let unfair = summary.final_point().unfair_probability;
    assert!(unfair <= ed.delta, "unfair {unfair} despite certification");
}

#[test]
fn expectational_fairness_table() {
    // Theorems 3.2, 3.3, 3.5 + FSL treatment: E[λ_A] = a for PoW, ML-PoS,
    // C-PoS, FSL-PoS; Theorem 3.4: SL-PoS is biased low.
    let a = 0.3;
    let config = paper_ensemble(a, 2000, 4000, 41);
    let shares = two_miner(a);
    let fair_means = [
        run_ensemble(&Pow::new(&shares, 0.01), &config)
            .final_point()
            .mean,
        run_ensemble(&MlPos::new(0.01), &config).final_point().mean,
        run_ensemble(&CPos::new(0.01, 0.1, 1), &config)
            .final_point()
            .mean,
        run_ensemble(&FslPos::new(0.01), &config).final_point().mean,
    ];
    for (i, mean) in fair_means.iter().enumerate() {
        assert!((mean - a).abs() < 0.01, "protocol {i}: mean {mean} != {a}");
    }
    let sl_mean = run_ensemble(&SlPos::new(0.01), &config).final_point().mean;
    assert!(sl_mean < a - 0.05, "SL-PoS must under-pay: {sl_mean}");
}

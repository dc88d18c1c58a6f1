//! Criterion benchmarks: closed-form protocol step and full-game
//! throughput — the cost model behind the figure-scale Monte-Carlo runs
//! (10,000 repetitions × 5,000 steps).

use criterion::{
    black_box, criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion,
};
use fairness_core::prelude::*;
use fairness_core::protocol::StepOutcome;

/// Times one protocol's step law on the path games run: `step_into` with
/// one reused [`StepOutcome`], so the row holds no per-call buffer or
/// sampler build (`step`'s fresh outcome would add both).
fn bench_step<P: IncentiveProtocol>(
    group: &mut BenchmarkGroup<'_>,
    name: &str,
    protocol: P,
    stakes: &[f64],
    rng: &mut Xoshiro256StarStar,
) {
    let mut out = StepOutcome::new();
    group.bench_function(BenchmarkId::new(name, stakes.len()), |b| {
        b.iter(|| {
            protocol.step_into(black_box(stakes), 0, rng, &mut out);
            black_box(out.view());
        });
    });
}

fn bench_steps(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_step");
    let mut rng = Xoshiro256StarStar::new(1);

    for m in [2usize, 10] {
        let shares = paper_multi_miner(m, 0.2);
        let rng = &mut rng;
        bench_step(&mut group, "pow", Pow::new(&shares, 0.01), &shares, rng);
        bench_step(&mut group, "mlpos", MlPos::new(0.01), &shares, rng);
        bench_step(&mut group, "slpos", SlPos::new(0.01), &shares, rng);
        bench_step(&mut group, "fslpos", FslPos::new(0.01), &shares, rng);
        bench_step(&mut group, "cpos_p1", CPos::new(0.01, 0.1, 1), &shares, rng);
        bench_step(
            &mut group,
            "cpos_p32",
            CPos::new(0.01, 0.1, 32),
            &shares,
            rng,
        );
    }
    group.finish();
}

fn bench_games(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_game_1000_blocks");
    group.sample_size(20);
    let mut rng = Xoshiro256StarStar::new(2);

    group.bench_function("mlpos_two_miner", |b| {
        b.iter(|| {
            let mut game = MiningGame::new(MlPos::new(0.01), &two_miner(0.2));
            game.run(1000, &mut rng);
            black_box(game.lambda(0))
        });
    });
    group.bench_function("slpos_two_miner", |b| {
        b.iter(|| {
            let mut game = MiningGame::new(SlPos::new(0.01), &two_miner(0.2));
            game.run(1000, &mut rng);
            black_box(game.lambda(0))
        });
    });
    group.bench_function("cpos_epochs", |b| {
        b.iter(|| {
            let mut game = MiningGame::new(CPos::new(0.01, 0.1, 1), &two_miner(0.2));
            game.run(1000, &mut rng);
            black_box(game.lambda(0))
        });
    });
    group.bench_function("mlpos_with_withholding", |b| {
        b.iter(|| {
            let mut game = MiningGame::new(MlPos::new(0.01), &two_miner(0.2))
                .with_withholding(WithholdingSchedule::every(100));
            game.run(1000, &mut rng);
            black_box(game.lambda(0))
        });
    });
    group.finish();
}

fn bench_ensemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble_200reps_500blocks");
    group.sample_size(10);
    group.bench_function("pow", |b| {
        let config = EnsembleConfig {
            checkpoints: vec![100, 500],
            ..EnsembleConfig::paper_default(0.2, 500, 200, 3)
        };
        b.iter(|| black_box(run_ensemble(&Pow::new(&two_miner(0.2), 0.01), &config)));
    });
    group.bench_function("cpos", |b| {
        let config = EnsembleConfig {
            checkpoints: vec![100, 500],
            ..EnsembleConfig::paper_default(0.2, 500, 200, 4)
        };
        b.iter(|| black_box(run_ensemble(&CPos::new(0.01, 0.1, 1), &config)));
    });
    group.finish();
}

criterion_group!(benches, bench_steps, bench_games, bench_ensemble);
criterion_main!(benches);

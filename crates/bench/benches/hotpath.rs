//! Criterion benchmarks: the simulation hot paths this workspace's
//! wall-clock lives in — per-step game stepping for every base protocol
//! and for the adversary adapters over PoW and SL-PoS, bare SL-PoS
//! repetitions stepped eight at a time in vector lanes,
//! weighted sampling (Fenwick vs linear scan), sha256 nonce grinding
//! (full rebuild, midstate, and midstate pairs), a block's hash
//! bookkeeping (one builder hash, a pair, a block assembled and appended),
//! and the hash-level overlay's blocks.
//!
//! CI runs these in smoke mode (one pass each) so the benches cannot rot;
//! locally, `cargo bench --bench hotpath` prints ns/iter per target.

use chain_sim::{
    run_experiment, Address, Block, Chain, ExperimentConfig, Hash256, HashBuilder, HashMidstate,
    ProtocolKind, Transaction, U256,
};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fairness_bench::experiments::common::{A_DEFAULT, W_DEFAULT};
use fairness_core::game::{MiningGame, LANES};
use fairness_core::miner::{paper_multi_miner, sample_categorical, two_miner};
use fairness_core::prelude::*;
use fairness_core::registry::{construct, BoxedProtocol};
use fairness_core::scenario::ProtocolSpec;
use fairness_stats::rng::Xoshiro256StarStar;
use fairness_stats::sampling::FenwickSampler;

/// Steps a game `iters_per_call` times per bench iteration, so the
/// per-iteration figure reads as nanoseconds per `iters_per_call` steps.
fn bench_game<P: fairness_core::protocol::IncentiveProtocol + Clone + 'static>(
    c: &mut Criterion,
    name: &str,
    protocol: P,
    shares: &[f64],
) {
    let mut group = c.benchmark_group("step");
    let mut game = MiningGame::new(protocol, shares);
    let mut rng = Xoshiro256StarStar::new(7);
    game.run(64, &mut rng); // warm scratch pools
    group.bench_function(BenchmarkId::new(name, shares.len()), |b| {
        b.iter(|| {
            game.run(64, &mut rng);
            black_box(game.steps())
        });
    });
    group.finish();
}

fn bench_steps(c: &mut Criterion) {
    let two = two_miner(0.2);
    let ten = paper_multi_miner(10, 0.2);
    // SL-PoS at 2 miners takes the pipelined kernel, at 3 or more the
    // fused race kernel: one row per miner count Table 1 sweeps.
    bench_game(c, "sl-pos", SlPos::new(0.01), &two);
    bench_game(c, "sl-pos", SlPos::new(0.01), &paper_multi_miner(3, 0.2));
    bench_game(c, "sl-pos", SlPos::new(0.01), &paper_multi_miner(5, 0.2));
    bench_game(c, "sl-pos", SlPos::new(0.01), &ten);
    bench_game(c, "ml-pos", MlPos::new(0.01), &two);
    bench_game(c, "ml-pos", MlPos::new(0.01), &ten);
    bench_game(c, "fsl-pos", FslPos::new(0.01), &two);
    bench_game(c, "pow", Pow::new(&ten, 0.01), &ten);
    bench_game(c, "neo", Neo::new(&ten, 0.01), &ten);
    bench_game(c, "c-pos", CPos::new(0.01, 0.1, 1), &ten);
    bench_game(c, "algorand", Algorand::new(0.1), &ten);
    bench_game(c, "eos", Eos::new(0.01, 0.1), &ten);
    // The registry path every figure takes: a type-erased box, one
    // virtual call per step. ML-PoS steps through it; bare SL-PoS would
    // not, because the game runs its fused kernel instead.
    let boxed: BoxedProtocol =
        construct(&ProtocolSpec::new("ml-pos").with("w", 0.01), &two).expect("constructs");
    bench_game(c, "ml-pos-boxed", boxed, &two);
    bench_adversaries(c);
}

/// Registry-built `adversary(inner, strategy)` adapters, the path `repro`
/// and the daemon take, beside `step/pow/2` for the bare protocol the PoW
/// rows wrap. The PoW rows settle each 64-step segment in one
/// `run_segment` call; `adversary-grinding` (over compounding SL-PoS)
/// steps one block at a time. `adversary-selfish/3` keeps its fork in a
/// `ForkMachine` rather than as two-miner lengths. Host speed drifts
/// between runs and builds: compare each row's ratio to `step/eos/10`, a
/// draw-free row, of the same run.
fn bench_adversaries(c: &mut Criterion) {
    let two = two_miner(0.3);
    let pow = || ProtocolSpec::new("pow").with("w", 0.01);
    let selfish = || ProtocolSpec::new("selfish-mining").with("gamma", 0.5);
    bench_game(c, "pow", Pow::new(&two, 0.01), &two);
    for (name, inner, strategy, shares) in [
        (
            "adversary-honest",
            pow(),
            ProtocolSpec::new("honest"),
            two.clone(),
        ),
        ("adversary-selfish", pow(), selfish(), two.clone()),
        (
            "adversary-selfish",
            pow(),
            selfish(),
            paper_multi_miner(3, 0.3),
        ),
        (
            "adversary-owd",
            pow(),
            ProtocolSpec::new("optimal-withholding")
                .with("alpha", 0.3)
                .with("gamma", 0.5)
                .with("depth", 16.0),
            two.clone(),
        ),
        (
            "adversary-grinding",
            ProtocolSpec::new("sl-pos").with("w", 0.01),
            ProtocolSpec::new("stake-grinding").with("tries", 4.0),
            two.clone(),
        ),
    ] {
        let spec = ProtocolSpec::new("adversary")
            .with("inner", inner)
            .with("strategy", strategy);
        let adapter: BoxedProtocol = construct(&spec, &shares).expect("constructs");
        bench_game(c, name, adapter, &shares);
    }
}

/// Steps [`LANES`] bare SL-PoS games 64 steps each per bench iteration
/// through `MiningGame::run_batch` (the lane kernel on AVX-512F+DQ hosts,
/// per-game runs elsewhere): divide by 8 × 64 for nanoseconds per step
/// per repetition, beside `step/sl-pos/*`'s per 64 steps. The
/// `sl-pos-pair` rows step two games, a 10-repetition ensemble's tail
/// (÷ 2 × 64): in lanes at m = 3, per game at m = 2 and 10.
fn bench_lanes(c: &mut Criterion) {
    let mut group = c.benchmark_group("lanes");
    for (name, count, miners) in [
        ("sl-pos", LANES, &[2, 3, 4, 5, 10][..]),
        ("sl-pos-pair", 2, &[2, 3, 10]),
    ] {
        for &m in miners {
            let shares = paper_multi_miner(m, A_DEFAULT);
            let mut games = vec![MiningGame::new(SlPos::new(W_DEFAULT), &shares); count];
            let mut rngs: Vec<_> = (0..count as u64).map(Xoshiro256StarStar::new).collect();
            MiningGame::run_batch(&mut games, 64, &mut rngs);
            group.bench_function(BenchmarkId::new(name, m), |b| {
                b.iter(|| {
                    MiningGame::run_batch(&mut games, 64, &mut rngs);
                    black_box(games[0].steps())
                });
            });
        }
    }
    group.finish();
}

fn bench_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("layers");
    let stakes = vec![0.2f64, 0.8];
    let mut rng = Xoshiro256StarStar::new(3);
    group.bench_function("sample_winner_x64", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..64 {
                acc += SlPos::sample_winner(black_box(&stakes), &mut rng);
            }
            black_box(acc)
        });
    });
    let mut rng3 = Xoshiro256StarStar::new(3);
    let mut st3 = [0.2f64, 0.8];
    let mut earned3 = [0.0f64, 0.0];
    let mut out3 = fairness_core::protocol::StepOutcome::new();
    let mut sl = SlPos::new(0.01);
    group.bench_function("step_into_plus_apply_x64", |b| {
        use fairness_core::protocol::{IncentiveProtocol, StepRewardsView};
        b.iter(|| {
            for _ in 0..64 {
                sl.step_into(&st3, 0, &mut rng3, &mut out3);
                if let StepRewardsView::Winner(w) = out3.view() {
                    earned3[w] += 0.01;
                    st3[w] += 0.01;
                }
            }
            black_box(st3[0])
        });
    });
    let mut rng4 = Xoshiro256StarStar::new(3);
    let mut st4 = [0.2f64, 0.8];
    let mut earned4 = [0.0f64, 0.0];
    group.bench_function("sample_winner_feedback_x64", |b| {
        b.iter(|| {
            for _ in 0..64 {
                let w = SlPos::sample_winner(&st4, &mut rng4);
                earned4[w] += 0.01;
                st4[w] += 0.01;
            }
            black_box(st4[0])
        });
    });
    let mut rng2 = Xoshiro256StarStar::new(3);
    let mut st = [0.2f64, 0.8];
    group.bench_function("raw_core_x64", |b| {
        b.iter(|| {
            for _ in 0..64 {
                let ta = rng2.next_f64() / st[0];
                let tb = rng2.next_f64() / st[1];
                let w = usize::from(tb < ta);
                st[w] += 0.01;
            }
            black_box(st[0])
        });
    });
    group.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample");
    for m in [2usize, 10, 40] {
        let weights: Vec<f64> = (0..m).map(|i| 1.0 + (i % 7) as f64).collect();
        let sampler = FenwickSampler::new(&weights);
        let mut rng = Xoshiro256StarStar::new(11);
        group.bench_with_input(BenchmarkId::new("fenwick", m), &m, |b, _| {
            b.iter(|| black_box(sampler.sample(&mut rng)));
        });
        let mut rng = Xoshiro256StarStar::new(11);
        group.bench_with_input(BenchmarkId::new("linear", m), &m, |b, _| {
            b.iter(|| black_box(sample_categorical(black_box(&weights), &mut rng)));
        });
    }
    group.finish();
}

fn bench_grind(c: &mut Criterion) {
    let mut group = c.benchmark_group("grind");
    let prev = HashBuilder::new("bench-prev").u64(1).finish();
    let pubkey = HashBuilder::new("bench-pk").u64(2).finish();
    group.bench_function("trial_full_rebuild", |b| {
        let mut nonce = 0u64;
        b.iter(|| {
            nonce = nonce.wrapping_add(1);
            black_box(full_trial(&prev, &pubkey, nonce))
        });
    });
    group.bench_function("trial_midstate", |b| {
        let midstate = HashBuilder::new("pow-trial")
            .hash(&prev)
            .hash(&pubkey)
            .midstate();
        let mut nonce = 0u64;
        b.iter(|| {
            nonce = nonce.wrapping_add(1);
            black_box(midstate.finish_u64(nonce))
        });
    });
    // Two trials per iteration, as the engines grind: ns/iter ÷ 2 reads
    // against `trial_midstate`.
    group.bench_function("trial_pair", |b| {
        let midstate = HashBuilder::new("pow-trial")
            .hash(&prev)
            .hash(&pubkey)
            .midstate();
        let mut nonce = 0u64;
        b.iter(|| {
            nonce = nonce.wrapping_add(2);
            black_box(HashMidstate::finish_u64_pair([
                (&midstate, nonce),
                (&midstate, nonce + 1),
            ]))
        });
    });
    group.finish();
}

/// A 92-byte message shaped like a transaction id (the domain and two
/// hashes), the most common message of a block's bookkeeping.
fn txid_shaped(n: u64) -> HashBuilder {
    let payload = Hash256([n as u8; 32]);
    let auth = Hash256([(n >> 8) as u8; 32]);
    HashBuilder::new("txid").hash(&payload).hash(&auth)
}

/// A block's hash bookkeeping outside its lottery. `hash/finish` finishes
/// one txid-shaped builder and `hash/finish-pair` two at once (÷ 2 per
/// message against `hash/finish`). `block/assemble-append/3` assembles a
/// block of a coinbase and two transfers (their ids and Merkle root) and
/// appends it to a chain (the body check and the header hash), as the
/// overlay does per block, with an accept-all proof check; the chain
/// restarts from genesis every 64 blocks. Compare each row's ratio to
/// `step/eos/10` of the same run.
fn bench_bookkeeping(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash");
    group.bench_function("finish", |b| {
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(1);
            black_box(black_box(txid_shaped(n)).finish())
        });
    });
    group.bench_function("finish-pair", |b| {
        let mut n = 0u64;
        b.iter(|| {
            n = n.wrapping_add(2);
            black_box(HashBuilder::finish_pair(
                black_box(txid_shaped(n)),
                black_box(txid_shaped(n + 1)),
            ))
        });
    });
    group.finish();

    let mut group = c.benchmark_group("block");
    let proposer = Address::for_miner(0);
    let (from, to) = (Address::for_miner(1000), Address::for_miner(1001));
    let body = vec![
        Transaction::coinbase(proposer, 10_000, 1),
        Transaction::transfer(from, to, 5, 0, 0),
        Transaction::transfer(to, from, 7, 0, 0),
    ];
    let genesis = Chain::new(Block::assemble(
        0,
        Hash256::ZERO,
        0,
        U256::MAX,
        0,
        proposer,
        vec![],
    ));
    let mut chain = genesis.clone();
    group.bench_function(BenchmarkId::new("assemble-append", body.len()), |b| {
        b.iter(|| {
            if chain.len() > 64 {
                chain = genesis.clone();
            }
            let height = chain.height() + 1;
            let block = Block::assemble(
                height,
                chain.tip_hash(),
                height,
                U256::MAX,
                0,
                proposer,
                body.clone(),
            );
            chain.try_append(block, |_| true).expect("valid block");
            black_box(chain.tip_hash())
        });
    });
    group.finish();
}

/// Blocks per overlay iteration.
const OVERLAY_BLOCKS: u64 = 300;

/// One `run_experiment` repetition of each of Figure 2's hash-level
/// networks (`a = 0.2`, `w = 0.01`), so ns/iter divided by
/// `OVERLAY_BLOCKS` is the cost of one block: lottery, assembly,
/// validation and ledger update.
fn bench_overlay(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay");
    for (kind, label) in [
        (ProtocolKind::Pow, "pow"),
        (ProtocolKind::MlPos, "ml-pos"),
        (ProtocolKind::SlPos, "sl-pos"),
    ] {
        let config = ExperimentConfig::two_miner(kind, A_DEFAULT, W_DEFAULT, OVERLAY_BLOCKS);
        let mut rng = Xoshiro256StarStar::new(0x31);
        group.bench_function(BenchmarkId::new(label, OVERLAY_BLOCKS), |b| {
            b.iter(|| black_box(run_experiment(&config, &mut rng).final_lambda));
        });
    }
    group.finish();
}

fn full_trial(prev: &Hash256, pubkey: &Hash256, nonce: u64) -> Hash256 {
    HashBuilder::new("pow-trial")
        .hash(prev)
        .hash(pubkey)
        .u64(nonce)
        .finish()
}

criterion_group!(
    benches,
    bench_steps,
    bench_lanes,
    bench_layers,
    bench_sampling,
    bench_grind,
    bench_bookkeeping,
    bench_overlay
);
criterion_main!(benches);

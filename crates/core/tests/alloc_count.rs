//! Zero-allocation regression guard for the stepping hot path.
//!
//! A counting global allocator wraps the system allocator; after a short
//! warm-up (which fills the [`StepOutcome`] scratch pools and the
//! incremental sampler), steady-state stepping of **every base protocol**
//! must perform exactly zero heap allocations per
//! [`MiningGame::step`] — the property the buffer-reuse `step_into` API
//! exists to provide. A regression (a protocol reaching for `Vec`, a
//! scratch pool that stops recycling) fails this test immediately.
//!
//! Everything runs inside one `#[test]` so the counter never races
//! concurrent test threads.

use fairness_core::game::MiningGame;
use fairness_core::miner::paper_multi_miner;
use fairness_core::prelude::*;
use fairness_core::protocol::IncentiveProtocol;
use fairness_stats::rng::Xoshiro256StarStar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

struct CountingAllocator;

// SAFETY: delegates every operation to the system allocator unchanged;
// the wrapper only increments counters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `steps` game steps with the counter armed, returning how many
/// allocations happened.
fn allocations_during_steps<P: IncentiveProtocol>(
    game: &mut MiningGame<P>,
    rng: &mut Xoshiro256StarStar,
    steps: u64,
) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    for _ in 0..steps {
        game.step(rng);
    }
    COUNTING.store(false, Ordering::Relaxed);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Asserts a game's steady state is allocation-free. The counter is
/// process-global, so a stray allocation from the test harness's own
/// threads (libtest runs the test off the main thread) can land inside an
/// armed window; a *real* hot-path regression allocates in **every**
/// window, so the claim is retried on the same warm game before failing.
fn assert_steady_state_clean<P: IncentiveProtocol>(
    name: &str,
    game: &mut MiningGame<P>,
    rng: &mut Xoshiro256StarStar,
) {
    // Warm-up: first steps may populate scratch pools and build the
    // incremental sampler.
    game.run(16, rng);
    let mut last = 0;
    for _attempt in 0..3 {
        last = allocations_during_steps(game, rng, 256);
        if last == 0 {
            return;
        }
    }
    panic!(
        "{name} with {} miners allocated {last} times in 256 steady-state steps \
         (in three consecutive windows)",
        game.miner_count()
    );
}

#[test]
fn steady_state_stepping_never_allocates() {
    // Three miners so split protocols and the sampler have real work; ten
    // miners guards the multi-miner sweeps; ten thousand guards the
    // struct-of-arrays ledger at population scale — the `scale` experiment
    // runs to 10⁶ miners, and any per-step O(m) materialization or hidden
    // Vec would surface here long before wall-clock does.
    for shares in [
        paper_multi_miner(3, 0.2),
        paper_multi_miner(10, 0.2),
        paper_multi_miner(10_000, 0.2),
    ] {
        macro_rules! check {
            ($name:literal, $protocol:expr) => {{
                let mut game = MiningGame::new($protocol, &shares);
                let mut rng = Xoshiro256StarStar::new(7);
                assert_steady_state_clean($name, &mut game, &mut rng);
            }};
        }
        check!("pow", Pow::new(&shares, 0.01));
        check!("ml-pos", MlPos::new(0.01));
        check!("sl-pos", SlPos::new(0.01));
        check!("fsl-pos", FslPos::new(0.01));
        check!("c-pos", CPos::new(0.01, 0.1, 8));
        check!("neo", Neo::new(&shares, 0.01));
        check!("algorand", Algorand::new(0.1));
        check!("eos", Eos::new(0.01, 0.1));
    }

    // The fused SL-PoS kernels (taken by `run`, not `step`) must be
    // allocation-free too: the software-pipelined two-miner kernel and the
    // m-miner race at 3 and 10 miners. Same test fn as above: a second
    // #[test] would run on a parallel thread whose setup allocations race
    // the armed counter. Same retry rationale as
    // `assert_steady_state_clean`.
    for shares in [
        vec![0.2, 0.8],
        paper_multi_miner(3, 0.2),
        paper_multi_miner(10, 0.2),
    ] {
        let mut game = MiningGame::new(SlPos::new(0.01), &shares);
        let mut rng = Xoshiro256StarStar::new(9);
        game.run(16, &mut rng);
        let mut last = 0;
        for _attempt in 0..3 {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
            game.run(4096, &mut rng);
            COUNTING.store(false, Ordering::Relaxed);
            last = ALLOCATIONS.load(Ordering::Relaxed) - before;
            if last == 0 {
                break;
            }
        }
        assert_eq!(
            last,
            0,
            "fused SL-PoS kernel with {} miners allocated {last} times in three \
             consecutive windows",
            shares.len()
        );
    }
}

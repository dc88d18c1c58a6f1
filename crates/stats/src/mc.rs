//! Deterministic parallel Monte-Carlo execution.
//!
//! The paper runs each configuration 10,000 times (simulation) or 500 times
//! (real systems) and reports ensemble statistics. This runner distributes
//! repetitions over threads while keeping results *bit-deterministic*: the
//! seed of repetition `i` depends only on the master seed and `i`, never on
//! scheduling, and results are returned in repetition order.

use crate::rng::{SeedSequence, Xoshiro256StarStar};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide default worker budget for [`run_monte_carlo`]; `0` means
/// "one thread per available core".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default thread count used by [`McConfig`]s whose
/// `threads` field is `0` (the default). `0` restores "one per core".
///
/// Harnesses wire their `--jobs N` flag here once at startup so that every
/// ensemble in the process shares one worker budget. Thread count never
/// affects results — only wall-clock time — so this is safe to change
/// between runs.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// The current process-wide default thread count (`0` = one per core).
#[must_use]
pub fn global_threads() -> usize {
    GLOBAL_THREADS.load(Ordering::Relaxed)
}

/// Configuration for a Monte-Carlo ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Number of independent repetitions.
    pub repetitions: usize,
    /// Master seed; repetition `i` uses `SeedSequence::new(seed).child(i)`.
    pub seed: u64,
    /// Worker threads; `0` defers to [`set_global_threads`], which in turn
    /// defaults to one thread per available core.
    pub threads: usize,
}

impl McConfig {
    /// Creates a configuration with automatic thread count.
    #[must_use]
    pub fn new(repetitions: usize, seed: u64) -> Self {
        Self {
            repetitions,
            seed,
            threads: 0,
        }
    }

    /// Overrides the thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        let global = global_threads();
        if global > 0 {
            return global;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Runs `f(rep_index, rng)` for every repetition, in parallel, returning the
/// results in repetition order.
///
/// The never-stopping case of [`run_monte_carlo_until`]: determinism is
/// unaffected by scheduling — the seed of repetition `i` depends only on
/// the master seed and `i`, and results are reassembled in repetition
/// order, so output is bit-identical for every thread count.
///
/// `f` must be deterministic given its inputs for the ensemble to be
/// reproducible (the provided RNG is independently seeded per repetition).
pub fn run_monte_carlo<T, F>(config: McConfig, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256StarStar) -> T + Sync,
{
    run_monte_carlo_until(config, f, |_| false)
}

/// The results finished so far, and how far `settled` has read them.
struct Prefix<T, S> {
    /// Finished results by repetition index.
    slots: Vec<Option<T>>,
    /// Length of the contiguous prefix already fed to `settled`.
    fed: usize,
    /// Set once `settled` held: `fed` is final.
    done: bool,
    settled: S,
}

/// Runs `f(rep_index, rng)` for repetitions `0, 1, 2, …` until `settled`
/// holds, returning the results of the settled prefix in repetition
/// order.
///
/// The chunk-of-one case of [`run_monte_carlo_chunks`], which states the
/// settle and scheduling rules: `settled` sees every result exactly once,
/// in repetition order; once it returns `true` for repetition `k − 1`, no
/// further repetition starts and the first `k` results are returned, the
/// same at every thread count; when it never does, all
/// `config.repetitions` are.
pub fn run_monte_carlo_until<T, F, S>(config: McConfig, f: F, settled: S) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256StarStar) -> T + Sync,
    S: FnMut(&T) -> bool + Send,
{
    run_monte_carlo_chunks(config, 1, |idx, rngs| [f(idx, &mut rngs[0])], settled)
}

/// Runs the repetitions in chunks of `chunk` consecutive indices until
/// `settled` holds, returning the results of the settled prefix in
/// repetition order.
///
/// A chunk is one call `f(first, rngs)`: `rngs[j]` is repetition
/// `first + j`'s own stream (`SeedSequence::child_rng(first + j)`, as in
/// [`run_monte_carlo`]), and `f` returns the chunk's results in index
/// order, exactly `rngs.len()` of them. Chunks start at multiples of
/// `chunk`; the last one may be shorter. A kernel that advances several
/// repetitions at once (in SIMD lanes, say) takes a chunk per call, and
/// as long as each repetition draws only from its own stream the results
/// do not depend on the chunk size.
///
/// `settled` sees every result exactly once, in repetition order,
/// whatever order the workers finish in: it reads the contiguous prefix
/// `0..k` as it grows. Once it returns `true` for repetition `k − 1`, no
/// further chunk starts and the first `k` results are returned; when it
/// never does, all `config.repetitions` are. Workers may have computed
/// repetitions past `k` by then (the rest of `k − 1`'s chunk, or chunks
/// in flight), but those are discarded, so the returned prefix — its
/// length included — is the same at every thread count and chunk size.
///
/// Chunks are distributed over workers by an atomic-index
/// *work-stealing* loop: each worker repeatedly claims the next unclaimed
/// chunk, so uneven per-repetition costs (e.g. Table 1's mixed horizons)
/// leave no worker idle, and checks before each chunk whether the prefix
/// has settled.
///
/// # Panics
/// Panics if `chunk` is zero or a call of `f` returns the wrong number of
/// results.
pub fn run_monte_carlo_chunks<T, I, F, S>(
    config: McConfig,
    chunk: usize,
    f: F,
    settled: S,
) -> Vec<T>
where
    T: Send,
    I: IntoIterator<Item = T>,
    F: Fn(usize, &mut [Xoshiro256StarStar]) -> I + Sync,
    S: FnMut(&T) -> bool + Send,
{
    assert!(chunk > 0, "a chunk holds at least one repetition");
    let reps = config.repetitions;
    if reps == 0 {
        return Vec::new();
    }
    let seq = SeedSequence::new(config.seed);
    let threads = config.effective_threads().clamp(1, reps.div_ceil(chunk));
    let next = AtomicUsize::new(0);
    // Only saves work: what is returned is decided under the lock.
    let stop = AtomicBool::new(false);
    let prefix = Mutex::new(Prefix {
        slots: std::iter::repeat_with(|| None).take(reps).collect(),
        fed: 0,
        done: false,
        settled,
    });
    let worker = || {
        let mut rngs = Vec::with_capacity(chunk);
        let mut values = Vec::with_capacity(chunk);
        loop {
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= reps {
                return;
            }
            let end = (start + chunk).min(reps);
            rngs.clear();
            rngs.extend((start..end).map(|idx| seq.child_rng(idx as u64)));
            // Collected before locking, so a lazy iterator's work runs
            // outside the lock.
            values.extend(f(start, &mut rngs));
            assert_eq!(
                values.len(),
                end - start,
                "a chunk returns one result per repetition"
            );
            let mut guard = prefix.lock().expect("Monte-Carlo prefix lock");
            let Prefix {
                slots,
                fed,
                done,
                settled,
            } = &mut *guard;
            for (slot, value) in slots[start..end].iter_mut().zip(values.drain(..)) {
                *slot = Some(value);
            }
            while !*done && *fed < reps {
                let Some(value) = &slots[*fed] else { break };
                *done = settled(value);
                *fed += 1;
            }
            if *done {
                stop.store(true, Ordering::Relaxed);
            }
        }
    };

    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        worker();
        for h in handles {
            h.join().expect("Monte-Carlo worker panicked");
        }
    });

    let Prefix { slots, fed, .. } = prefix.into_inner().expect("Monte-Carlo prefix lock");
    slots
        .into_iter()
        .take(fed)
        .map(|v| v.expect("every repetition of the settled prefix ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_thread_counts() {
        let run = |threads: usize| -> Vec<f64> {
            run_monte_carlo(McConfig::new(64, 42).with_threads(threads), |_i, rng| {
                rng.next_f64()
            })
        };
        let one = run(1);
        let four = run(4);
        let seven = run(7);
        assert_eq!(one, four);
        assert_eq!(one, seven);
    }

    #[test]
    fn results_in_repetition_order() {
        let out = run_monte_carlo(McConfig::new(100, 1).with_threads(3), |i, _rng| i);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_repetitions() {
        let out: Vec<u8> = run_monte_carlo(McConfig::new(0, 1), |_, _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn repetitions_fewer_than_threads() {
        let out = run_monte_carlo(McConfig::new(2, 9).with_threads(16), |i, _| i * 10);
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = run_monte_carlo(McConfig::new(8, 1), |_i, rng| rng.next());
        let b = run_monte_carlo(McConfig::new(8, 2), |_i, rng| rng.next());
        assert_ne!(a, b);
    }

    #[test]
    fn per_repetition_streams_are_independent() {
        // Same repetition index, same value; different index, different value.
        let out = run_monte_carlo(McConfig::new(4, 5), |_i, rng| rng.next());
        let again = run_monte_carlo(McConfig::new(4, 5), |_i, rng| rng.next());
        assert_eq!(out, again);
        assert_ne!(out[0], out[1]);
    }

    #[test]
    fn uneven_work_items_complete_and_stay_ordered() {
        // Work-stealing must cover every index exactly once even when item
        // costs differ by orders of magnitude.
        let out = run_monte_carlo(McConfig::new(97, 11).with_threads(5), |i, rng| {
            let spins = if i % 13 == 0 { 20_000 } else { 10 };
            let mut acc = 0u64;
            for _ in 0..spins {
                acc = acc.wrapping_add(rng.next() >> 60);
            }
            (i, acc.min(1))
        });
        assert_eq!(out.len(), 97);
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(k, *i);
        }
    }

    #[test]
    fn global_thread_budget_does_not_change_results() {
        let run = || run_monte_carlo(McConfig::new(48, 21), |_i, rng| rng.next());
        let auto = run();
        set_global_threads(1);
        let serial = run();
        set_global_threads(3);
        let three = run();
        set_global_threads(0);
        assert_eq!(auto, serial);
        assert_eq!(auto, three);
    }

    #[test]
    fn until_returns_the_first_settled_prefix_at_any_thread_count() {
        // Settles at the first index whose draw exceeds 0.9: the prefix
        // length and contents are a function of the seed only.
        let run = |threads: usize| {
            let mut seen = Vec::new();
            let out = run_monte_carlo_until(
                McConfig::new(200, 17).with_threads(threads),
                |i, rng| (i, rng.next_f64()),
                |&(i, x)| {
                    seen.push(i);
                    x > 0.9
                },
            );
            (out, seen)
        };
        let (serial, seen) = run(1);
        let k = serial.len();
        assert!(k > 1 && k < 200, "settles part-way: {k}");
        assert!(serial[k - 1].1 > 0.9 && serial[..k - 1].iter().all(|r| r.1 <= 0.9));
        assert_eq!(seen, (0..k).collect::<Vec<_>>(), "fed in index order");
        let full = run_monte_carlo(McConfig::new(200, 17), |i, rng| (i, rng.next_f64()));
        assert_eq!(serial, full[..k], "the prefix is the full run's");
        for threads in [2, 3, 8] {
            let (parallel, seen) = run(threads);
            assert_eq!(parallel, serial, "threads = {threads}");
            assert_eq!(seen, (0..k).collect::<Vec<_>>(), "threads = {threads}");
        }
    }

    #[test]
    fn until_that_never_settles_runs_every_repetition() {
        for threads in [1, 4] {
            let out = run_monte_carlo_until(
                McConfig::new(50, 3).with_threads(threads),
                |i, _| i,
                |_| false,
            );
            assert_eq!(out, (0..50).collect::<Vec<_>>());
        }
    }

    #[test]
    fn until_stops_starting_repetitions_once_settled() {
        // Serially nothing past the settle point runs at all.
        let started = AtomicUsize::new(0);
        let out = run_monte_carlo_until(
            McConfig::new(100, 1).with_threads(1),
            |i, _| {
                started.fetch_add(1, Ordering::Relaxed);
                i
            },
            |&i| i == 4,
        );
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(started.load(Ordering::Relaxed), 5);
    }

    /// A chunk kernel that advances its streams in lockstep, one word per
    /// repetition, as a SIMD lane kernel does.
    fn lockstep(first: usize, rngs: &mut [Xoshiro256StarStar]) -> Vec<(usize, u64)> {
        rngs.iter_mut()
            .enumerate()
            .map(|(j, rng)| (first + j, rng.next()))
            .collect()
    }

    #[test]
    fn chunked_runs_equal_the_chunk_of_one_runner() {
        for reps in [1, 7, 8, 10, 13, 200] {
            let want = run_monte_carlo(McConfig::new(reps, 29).with_threads(1), |i, rng| {
                (i, rng.next())
            });
            for chunk in [3, 8] {
                for threads in [1, 2, 3, 8] {
                    let got = run_monte_carlo_chunks(
                        McConfig::new(reps, 29).with_threads(threads),
                        chunk,
                        |first, rngs| {
                            assert_eq!(first % chunk, 0, "chunks start at multiples");
                            assert!(!rngs.is_empty() && rngs.len() <= chunk);
                            lockstep(first, rngs)
                        },
                        |_| false,
                    );
                    assert_eq!(got, want, "reps {reps}, chunk {chunk}, threads {threads}");
                }
            }
        }
    }

    #[test]
    fn chunked_settle_returns_exactly_the_settled_prefix() {
        // Settle points at a chunk's first, middle and last index, and
        // never (199 is the last repetition).
        for settle_at in [0, 8, 10, 15, 199] {
            for threads in [1, 2, 3, 8] {
                let mut seen = Vec::new();
                let out = run_monte_carlo_chunks(
                    McConfig::new(200, 29).with_threads(threads),
                    8,
                    lockstep,
                    |&(i, _)| {
                        seen.push(i);
                        i == settle_at
                    },
                );
                let k = settle_at + 1;
                let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
                assert_eq!(indices, (0..k).collect::<Vec<_>>(), "threads {threads}");
                assert_eq!(seen, (0..k).collect::<Vec<_>>(), "fed once each, in order");
                let full = run_monte_carlo(McConfig::new(200, 29), |i, rng| (i, rng.next()));
                assert_eq!(out, full[..k], "the prefix is the full run's");
            }
        }
    }

    #[test]
    fn chunked_runner_stops_claiming_chunks_once_settled() {
        let calls = AtomicUsize::new(0);
        let out = run_monte_carlo_chunks(
            McConfig::new(100, 1).with_threads(1),
            8,
            |first, rngs| {
                calls.fetch_add(1, Ordering::Relaxed);
                (first..first + rngs.len()).collect::<Vec<_>>()
            },
            |&i| i == 10,
        );
        assert_eq!(out, (0..11).collect::<Vec<_>>());
        assert_eq!(
            calls.load(Ordering::Relaxed),
            2,
            "chunks 0..8 and 8..16 only"
        );
    }

    #[test]
    #[should_panic(expected = "one result per repetition")]
    fn chunk_with_missing_results_rejected() {
        let _ = run_monte_carlo_chunks(
            McConfig::new(16, 1).with_threads(1),
            8,
            |first, _rngs| vec![first],
            |_| false,
        );
    }

    #[test]
    fn ensemble_mean_of_uniform_is_half() {
        let out = run_monte_carlo(McConfig::new(20_000, 3), |_i, rng| rng.next_f64());
        let mean: f64 = out.iter().sum::<f64>() / out.len() as f64;
        assert!((mean - 0.5).abs() < 0.01, "{mean}");
    }
}

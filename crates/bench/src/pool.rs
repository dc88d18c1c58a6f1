//! A shared worker budget for the repro harness.
//!
//! One [`JobPool`] is created per `repro` invocation from `--jobs N` and
//! shared by the scheduling layers: the experiment scheduler draws
//! workers from it to run independent figures concurrently, and each
//! figure's inner sweep ([`JobPool::par_map`]) draws from the *same*
//! budget for its sweep points. Within these layers, at most `jobs`
//! sweep/experiment tasks execute at any instant however calls nest (the
//! scheduler's workers may transiently exceed the budget after waking
//! from a dependency wait — bounded by the helper count — see
//! `schedule.rs`).
//!
//! The budget is deliberately **per scheduling layer**, not a global
//! thread cap: the Monte-Carlo repetition loops underneath
//! (`fairness_stats::mc`, sized by the same `--jobs` value via
//! `set_global_threads`) spawn their own short-lived workers, so a run
//! can briefly hold up to `jobs²` CPU-bound threads. That oversubscription
//! is benign for these workloads (the OS amortizes it, and determinism
//! never depends on thread count); a strict cross-crate cap would buy
//! little and cost a shared-semaphore dependency in the numerics crate.
//!
//! The nesting trick that keeps this deadlock-free: a caller always
//! executes work items itself (it is already one of the `jobs` active
//! threads), and *helper* threads are only spawned when a budget permit is
//! available right now (`try_acquire`, never a blocking wait). A saturated
//! pool therefore degrades to serial execution instead of deadlocking.
//!
//! Scheduling never affects results — work items are indexed, outputs are
//! reassembled in index order, and all randomness is derived from
//! content-addressed seeds upstream.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A permit-based worker budget shared across scheduling layers.
#[derive(Debug)]
pub struct JobPool {
    jobs: usize,
    /// Helper permits still available (`jobs - 1` at rest: the calling
    /// thread is always the first worker and needs no permit).
    permits: Mutex<usize>,
}

impl JobPool {
    /// Creates a pool allowing `jobs` concurrently executing tasks;
    /// `jobs == 0` means one per available core.
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            jobs
        };
        Self {
            jobs,
            permits: Mutex::new(jobs - 1),
        }
    }

    /// The concurrency budget (resolved, never 0).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Takes one helper permit if available right now (never blocks); the
    /// permit returns to the budget when dropped, including on unwind.
    pub(crate) fn try_acquire_permit(&self) -> Option<Permit<'_>> {
        let mut permits = self.permits.lock().expect("pool lock");
        if *permits > 0 {
            *permits -= 1;
            Some(Permit(self))
        } else {
            None
        }
    }

    /// Helper permits free right now (`jobs − 1` when the pool is idle).
    #[cfg(test)]
    pub(crate) fn free_permits(&self) -> usize {
        *self.permits.lock().expect("pool lock")
    }

    fn release(&self) {
        *self.permits.lock().expect("pool lock") += 1;
    }

    /// Maps `f` over `0..n` on the pool, returning results in index order.
    ///
    /// The calling thread participates, so this makes progress even when
    /// the budget is exhausted (it then degrades to a serial loop). Nested
    /// calls from inside `f` are safe and share the same budget.
    ///
    /// # Panics
    /// Propagates a panic from `f`.
    pub fn par_map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let worker = |out: &mut Vec<(usize, T)>| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            out.push((i, f(i)));
        };

        let mut collected: Vec<(usize, T)> = Vec::with_capacity(n);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..self.jobs.saturating_sub(1).min(n.saturating_sub(1)) {
                let Some(permit) = self.try_acquire_permit() else {
                    break;
                };
                handles.push(scope.spawn(move || {
                    let _permit = permit;
                    let mut out = Vec::new();
                    worker(&mut out);
                    out
                }));
            }
            worker(&mut collected);
            for h in handles {
                collected.extend(h.join().expect("pool worker panicked"));
            }
        });
        collected.sort_unstable_by_key(|(i, _)| *i);
        collected.into_iter().map(|(_, v)| v).collect()
    }
}

/// A helper-thread permit; returns to the budget on drop, including on
/// unwind.
pub(crate) struct Permit<'a>(&'a JobPool);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn par_map_preserves_order() {
        let pool = JobPool::new(4);
        let out = pool.par_map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_pool_works() {
        let pool = JobPool::new(1);
        assert_eq!(pool.par_map(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
        assert_eq!(pool.jobs(), 1);
    }

    #[test]
    fn zero_resolves_to_cores() {
        assert!(JobPool::new(0).jobs() >= 1);
    }

    #[test]
    fn empty_input() {
        let pool = JobPool::new(4);
        let out: Vec<u8> = pool.par_map(0, |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_par_map_shares_budget_without_deadlock() {
        let pool = JobPool::new(2);
        let peak = AtomicUsize::new(0);
        let active = AtomicUsize::new(0);
        let out = pool.par_map(6, |i| {
            let inner = pool.par_map(4, |j| {
                let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(1));
                active.fetch_sub(1, Ordering::SeqCst);
                i * 10 + j
            });
            inner.iter().sum::<usize>()
        });
        assert_eq!(out.len(), 6);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 4 * 10 * i + 6);
        }
        // The budget bounds concurrently *executing* leaf items.
        assert!(peak.load(Ordering::SeqCst) <= 2, "{peak:?}");
    }

    #[test]
    fn permits_are_restored_after_use() {
        let pool = JobPool::new(3);
        for _ in 0..3 {
            let _ = pool.par_map(10, |i| i);
        }
        assert_eq!(pool.free_permits(), 2);
    }
}

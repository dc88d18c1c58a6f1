//! Memoization primitives for sweep harnesses.
//!
//! Figure-scale reproductions sweep overlapping parameter grids: Figure 2's
//! `a = 0.2` panels are Figure 3's `a = 0.2` columns, Figure 5(c)'s
//! `w = 0.01` point is Figure 5(d)'s `v = 0.1` point, and so on. A
//! [`MemoCache`] keyed by the *semantic content* of a computation lets the
//! harness run each distinct ensemble exactly once per process, regardless
//! of how many figures request it or in which order.
//!
//! [`StableHasher`] complements the cache: a tiny FNV-1a hasher whose
//! output is fixed by this crate (not by `std`'s unstable `DefaultHasher`),
//! so content-derived seeds stay reproducible across runs, platforms and
//! toolchains.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A thread-safe, single-flight memoization cache with hit/miss
/// accounting.
///
/// [`get_or_insert_with`](Self::get_or_insert_with) computes **outside**
/// the lock, so a long-running computation never blocks unrelated keys.
/// Concurrent callers for a key that is being computed wait for that
/// computation instead of repeating it: each distinct key is computed
/// once per cache lifetime (and again only after [`clear`](Self::clear)
/// or a computation that panicked or failed). A **miss** is one
/// computation; every other lookup, including one that waited, is a
/// **hit**.
#[derive(Debug)]
pub struct MemoCache<K, V> {
    state: Mutex<State<K, V>>,
    /// Signalled whenever a key leaves `State::computing`.
    computed: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Times a lookup blocked on another caller's computation (the tests
    /// read it to order their threads).
    waits: AtomicU64,
}

#[derive(Debug)]
struct State<K, V> {
    ready: HashMap<K, V>,
    /// Keys whose computation is running on some caller's thread.
    computing: HashSet<K>,
}

impl<K, V> Default for MemoCache<K, V> {
    fn default() -> Self {
        Self {
            state: Mutex::new(State {
                ready: HashMap::new(),
                computing: HashSet::new(),
            }),
            computed: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
        }
    }
}

/// Marks a key as computing for as long as it lives: dropping it (after
/// the value is stored, or while a panicking computation unwinds) frees
/// the key and wakes every waiter.
struct Flight<'a, K: Eq + Hash, V> {
    cache: &'a MemoCache<K, V>,
    key: &'a K,
}

impl<K: Eq + Hash, V> Drop for Flight<'_, K, V> {
    fn drop(&mut self) {
        // Every update under this lock is one set or map operation, so
        // the state is valid even if a panic poisoned it.
        self.cache
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .computing
            .remove(self.key);
        self.cache.computed.notify_all();
    }
}

impl<K: Eq + Hash + Clone, V: Clone> MemoCache<K, V> {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, State<K, V>> {
        self.state.lock().expect("cache lock")
    }

    /// Returns the cached value for `key`, computing and inserting it via
    /// `compute` on a miss. If another caller is computing `key`, waits
    /// for its value; if that computation panics, one waiter computes in
    /// its place.
    ///
    /// `compute` must not look up `key` in this cache again (it would
    /// wait for itself).
    ///
    /// # Panics
    /// Propagates a panic from `compute`; panics if the internal lock is
    /// poisoned.
    pub fn get_or_insert_with<F: FnOnce() -> V>(&self, key: &K, compute: F) -> V {
        let Ok(value) =
            self.try_get_or_insert_with(key, || Ok::<_, std::convert::Infallible>(compute()));
        value
    }

    /// [`get_or_insert_with`](Self::get_or_insert_with) with a fallible
    /// `compute`. An error is returned to this caller and stores nothing:
    /// like a panicking computation, it frees the key and wakes every
    /// waiter, and one of them computes in its place. It still counts as
    /// a miss.
    ///
    /// # Errors
    /// Returns `compute`'s error.
    ///
    /// # Panics
    /// Propagates a panic from `compute`; panics if the internal lock is
    /// poisoned.
    pub fn try_get_or_insert_with<E, F: FnOnce() -> Result<V, E>>(
        &self,
        key: &K,
        compute: F,
    ) -> Result<V, E> {
        let mut state = self.lock();
        loop {
            if let Some(v) = state.ready.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(v.clone());
            }
            if !state.computing.contains(key) {
                break;
            }
            self.waits.fetch_add(1, Ordering::Relaxed);
            state = self.computed.wait(state).expect("cache lock");
        }
        state.computing.insert(key.clone());
        drop(state);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let flight = Flight { cache: self, key };
        let value = compute()?;
        self.lock().ready.insert(key.clone(), value.clone());
        drop(flight);
        Ok(value)
    }

    /// Returns the cached value for `key` without computing.
    ///
    /// Does not count toward hit/miss statistics.
    ///
    /// # Panics
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn peek(&self, key: &K) -> Option<V> {
        self.lock().ready.get(key).cloned()
    }

    /// Number of lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of computations started (one per miss).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cached entries.
    ///
    /// # Panics
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().ready.len()
    }

    /// Whether the cache holds no entries.
    ///
    /// # Panics
    /// Panics if the internal lock is poisoned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every finished entry and resets the hit/miss counters
    /// (computations in flight still store their values).
    ///
    /// # Panics
    /// Panics if the internal lock is poisoned.
    pub fn clear(&self) {
        self.lock().ready.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// A stable (run-to-run, platform-to-platform) 64-bit FNV-1a hasher.
///
/// Unlike `std::hash::DefaultHasher`, whose algorithm is explicitly *not*
/// guaranteed across releases, this hasher is part of this crate's contract:
/// the same write sequence always produces the same digest. Content-derived
/// Monte-Carlo seeds depend on that.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Creates a hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by bit pattern, canonicalizing `-0.0` to `0.0` so
    /// numerically identical configurations hash identically.
    pub fn write_f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Returns the digest; further writes continue from this state.
    #[must_use]
    pub fn finish(&self) -> u64 {
        // One SplitMix-style finalization round: FNV's raw state has weak
        // high bits, and these digests seed RNGs.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn miss_then_hit() {
        let cache: MemoCache<u32, String> = MemoCache::new();
        let calls = AtomicUsize::new(0);
        let compute = || {
            calls.fetch_add(1, Ordering::Relaxed);
            "value".to_owned()
        };
        assert_eq!(cache.get_or_insert_with(&1, compute), "value");
        assert_eq!(cache.get_or_insert_with(&1, compute), "value");
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_distinct_entries() {
        let cache: MemoCache<(u32, u32), u32> = MemoCache::new();
        for i in 0..10 {
            assert_eq!(cache.get_or_insert_with(&(i, i), || i * 2), i * 2);
        }
        assert_eq!(cache.len(), 10);
        assert_eq!(cache.misses(), 10);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn peek_and_clear() {
        let cache: MemoCache<u8, u8> = MemoCache::new();
        assert_eq!(cache.peek(&1), None);
        let _ = cache.get_or_insert_with(&1, || 9);
        assert_eq!(cache.peek(&1), Some(9));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 0);
    }

    #[test]
    fn concurrent_lookups_converge_to_one_value() {
        const CALLERS: u64 = 8;
        let cache: MemoCache<u32, u64> = MemoCache::new();
        let calls = AtomicUsize::new(0);
        let barrier = Barrier::new(CALLERS as usize);
        let got: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.get_or_insert_with(&7, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            // Finish only once every other caller waits on
                            // this computation, so none can have missed.
                            while cache.waits.load(Ordering::Relaxed) < CALLERS - 1 {
                                std::thread::yield_now();
                            }
                            7 * 3
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|&v| v == 21));
        assert_eq!(calls.load(Ordering::Relaxed), 1, "one compute per key");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), CALLERS - 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_compute_concurrently() {
        // Each computation finishes only after the other has started, so
        // the pair completes only if the two run at the same time.
        let cache: MemoCache<u32, bool> = MemoCache::new();
        let cache = &cache;
        let (started_1, seen_by_2) = mpsc::channel();
        let (started_2, seen_by_1) = mpsc::channel();
        let overlapped = std::thread::scope(|scope| {
            let one = scope.spawn(move || {
                cache.get_or_insert_with(&1, || {
                    started_1.send(()).unwrap();
                    seen_by_1.recv_timeout(Duration::from_secs(30)).is_ok()
                })
            });
            let two = scope.spawn(move || {
                cache.get_or_insert_with(&2, || {
                    started_2.send(()).unwrap();
                    seen_by_2.recv_timeout(Duration::from_secs(30)).is_ok()
                })
            });
            one.join().unwrap() && two.join().unwrap()
        });
        assert!(overlapped, "distinct keys must not compute one at a time");
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn panicking_compute_wakes_its_waiters() {
        let cache: Arc<MemoCache<u32, u32>> = Arc::new(MemoCache::new());
        let (entered, compute_entered) = mpsc::channel();
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_insert_with(&5, || {
                    entered.send(()).unwrap();
                    while cache.waits.load(Ordering::Relaxed) == 0 {
                        std::thread::yield_now();
                    }
                    panic!("compute failed while a caller waited on it");
                })
            })
        };
        compute_entered.recv().unwrap();
        let (value_tx, value) = mpsc::channel();
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                value_tx.send(cache.get_or_insert_with(&5, || 55)).unwrap();
            })
        };
        assert!(leader.join().is_err(), "the leader's panic propagates");
        assert_eq!(
            value.recv_timeout(Duration::from_secs(30)),
            Ok(55),
            "the waiter is woken and computes in the leader's place"
        );
        waiter.join().unwrap();
        assert_eq!(cache.peek(&5), Some(55));
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn failed_compute_stores_nothing_and_wakes_its_waiters() {
        let cache: Arc<MemoCache<u32, u32>> = Arc::new(MemoCache::new());
        let (entered, compute_entered) = mpsc::channel();
        let leader = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.try_get_or_insert_with(&5, || {
                    entered.send(()).unwrap();
                    while cache.waits.load(Ordering::Relaxed) == 0 {
                        std::thread::yield_now();
                    }
                    Err("cancelled")
                })
            })
        };
        compute_entered.recv().unwrap();
        let (value_tx, value) = mpsc::channel();
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                value_tx.send(cache.get_or_insert_with(&5, || 55)).unwrap();
            })
        };
        assert_eq!(leader.join().unwrap(), Err("cancelled"));
        assert_eq!(
            value.recv_timeout(Duration::from_secs(30)),
            Ok(55),
            "the waiter is woken and computes in the leader's place"
        );
        waiter.join().unwrap();
        assert_eq!(cache.peek(&5), Some(55));
        assert_eq!((cache.misses(), cache.hits()), (2, 0));
        assert_eq!(cache.try_get_or_insert_with(&5, || Err("unused")), Ok(55));
    }

    #[test]
    fn stable_hasher_reference_digest() {
        // Pin the digest so accidental algorithm changes (which would
        // silently reseed every cached ensemble) fail loudly.
        let mut h = StableHasher::new();
        h.write_str("ML-PoS");
        h.write_f64(0.01);
        h.write_u64(5000);
        assert_eq!(h.finish(), 0x0CFD_A825_E28C_3DF9);
    }

    #[test]
    fn stable_hasher_distinguishes_and_canonicalizes() {
        let digest = |f: &dyn Fn(&mut StableHasher)| {
            let mut h = StableHasher::new();
            f(&mut h);
            h.finish()
        };
        assert_ne!(
            digest(&|h| h.write_str("ab")),
            digest(&|h| {
                h.write_str("a");
                h.write_str("b");
            })
        );
        assert_ne!(digest(&|h| h.write_f64(0.1)), digest(&|h| h.write_f64(0.2)));
        assert_eq!(
            digest(&|h| h.write_f64(0.0)),
            digest(&|h| h.write_f64(-0.0))
        );
    }
}

//! Incremental weighted sampling — the O(log m) replacement for the
//! linear categorical scan on the simulation hot path.
//!
//! The mining-game protocols draw one winner per block proportionally to
//! the current staking powers. The straightforward implementation
//! (`fairness_core::miner::sample_categorical`) re-sums the weight vector
//! and scans it for every draw — O(m) per block, which dominates the
//! per-step cost exactly where the paper's sweeps grow (`--max-miners`,
//! Table 1's multi-miner game). A [`FenwickSampler`] keeps the weights in
//! a Fenwick (binary-indexed) tree so that both the draw *and* the
//! post-block stake update cost O(log m).
//!
//! ## Equivalence with the linear scan
//!
//! The linear scan picks the first index `i` whose weight still exceeds
//! the scaled uniform draw after subtracting all earlier weights — it
//! inverts the prefix-sum of the weight vector at the point `u · total`.
//! The Fenwick descent inverts the *same* prefix-sum: it walks down the
//! tree subtracting subtree sums, landing on the first index whose prefix
//! interval contains the point, and zero-weight entries are never
//! selected (their interval is empty; a point at or beyond the total
//! falls back to the last positively weighted index, like the scan's
//! floating-point-slack fallback). Winner-for-winner agreement against
//! `sample_categorical` over arbitrary weight vectors — including
//! degenerate zero-weight entries — is pinned by the property tests in
//! `tests/proptests.rs`; the reproduction pipeline additionally pins the
//! wired-up result end-to-end with a golden-run byte-compare of every CSV.
//!
//! (Subtree sums are accumulated in tree order, so after incremental
//! updates the rounding of intermediate sums may differ from a fresh
//! left-to-right scan by an ulp. A draw would have to land within that
//! ulp of a category boundary to decide differently — the golden-run
//! byte-compare is the end-to-end guard that the committed grids never
//! do.)

use crate::rng::Xoshiro256StarStar;

/// A weighted sampler over a fixed-size category set, supporting
/// O(log m) draws and O(log m) single-category weight updates.
///
/// Weights must be non-negative and finite with a positive total; the
/// category count is fixed at (re)build time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FenwickSampler {
    /// One-based Fenwick tree: `tree[i]` holds the sum of the weight
    /// range `(i - lowbit(i), i]`.
    tree: Vec<f64>,
    /// The raw weights, kept for rebuilds, zero-weight fallbacks and
    /// debug verification.
    weights: Vec<f64>,
    /// Maintained total weight (root prefix sum).
    total: f64,
    /// Largest power of two ≤ `len`, cached for the descent.
    top_bit: usize,
}

impl FenwickSampler {
    /// Builds a sampler over `weights`.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// entry, or sums to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Self {
        let mut s = Self::default();
        s.rebuild(weights);
        s
    }

    /// Rebuilds the sampler in place over a new weight vector, reusing
    /// the existing allocations.
    ///
    /// # Panics
    /// Panics under the same conditions as [`new`](Self::new).
    pub fn rebuild(&mut self, weights: &[f64]) {
        assert!(!weights.is_empty(), "sampler needs at least one weight");
        let n = weights.len();
        self.weights.clear();
        self.weights.extend_from_slice(weights);
        self.tree.clear();
        self.tree.resize(n + 1, 0.0);
        // Total by left-to-right accumulation — the same order the linear
        // scan sums, so a freshly built sampler scales draws identically.
        let mut total = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            assert!(
                w.is_finite() && w >= 0.0,
                "weight[{i}] must be finite and non-negative, got {w}"
            );
            total += w;
            // O(m) tree build: add each leaf into its parent chain lazily
            // via the classic in-place pass below.
            self.tree[i + 1] += w;
        }
        assert!(total > 0.0, "weights must not all be zero");
        self.total = total;
        for i in 1..=n {
            let parent = i + (i & i.wrapping_neg());
            if parent <= n {
                self.tree[parent] += self.tree[i];
            }
        }
        self.top_bit = if n.is_power_of_two() {
            n
        } else {
            n.next_power_of_two() / 2
        };
    }

    /// Number of categories.
    #[must_use]
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the sampler holds no categories (never true after a
    /// successful build).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// The maintained total weight.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The current weight of category `i`.
    #[must_use]
    pub fn weight(&self, i: usize) -> f64 {
        self.weights[i]
    }

    /// Adds `delta` to category `i`'s weight in O(log m).
    ///
    /// # Panics
    /// Panics if `i` is out of range or the resulting weight would be
    /// negative or non-finite.
    pub fn add(&mut self, i: usize, delta: f64) {
        let w = self.weights[i] + delta;
        debug_assert!(
            w.is_finite() && w >= 0.0,
            "weight[{i}] would become invalid: {w}"
        );
        self.weights[i] = w;
        self.total += delta;
        let n = self.tree.len() - 1;
        let mut idx = i + 1;
        while idx <= n {
            self.tree[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
    }

    /// Draws a category index from one uniform variate `u ∈ [0, 1)`:
    /// inverts the prefix-sum at the point `u · total` by tree descent.
    ///
    /// Zero-weight categories are never selected; a point at or past the
    /// total (floating-point slack) falls back to the last positively
    /// weighted category, mirroring the linear scan's fallback.
    ///
    /// Two categories with both weights positive (a two-miner lottery)
    /// skip the loop: the descent probes `tree[2]` and then `tree[1]`,
    /// and either probe passed means category 1 (past `tree[2]`, which
    /// tracks the total, it falls back to the last positive category,
    /// which is 1). So the draw is `rem ≥ tree[1] or rem ≥ tree[2]` in
    /// closed form; while only non-negative deltas were
    /// [`add`](Self::add)ed, `tree[2]` never falls below `tree[1]` and the
    /// second test never decides. Zero weights take the descent.
    #[must_use]
    pub fn sample_at(&self, u: f64) -> usize {
        if self.tree.len() == 3 && self.weights[0] > 0.0 && self.weights[1] > 0.0 {
            let rem = u * self.total;
            return usize::from((rem >= self.tree[1]) | (rem >= self.tree[2]));
        }
        self.descend(u)
    }

    /// [`sample_at`](Self::sample_at) by tree descent, for any category
    /// count and weights.
    fn descend(&self, u: f64) -> usize {
        let n = self.tree.len() - 1;
        let mut rem = u * self.total;
        let mut pos = 0usize;
        let mut bit = self.top_bit;
        while bit != 0 {
            let next = pos + bit;
            if next <= n && rem >= self.tree[next] {
                pos = next;
                rem -= self.tree[next];
            }
            bit >>= 1;
        }
        if pos < n && self.weights[pos] > 0.0 {
            return pos;
        }
        if pos < n {
            // Ulp-edge landing on an empty interval: the exact inverse is
            // the next positively weighted category, like the scan moving
            // past zero-weight entries.
            if let Some(off) = self.weights[pos..].iter().position(|&w| w > 0.0) {
                return pos + off;
            }
        }
        // Run-off-the-end slack: mirror the linear scan's fallback to the
        // last positively weighted category.
        self.weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("positive total weight")
    }

    /// Draws a category using the generator's next `f64` — consumes
    /// exactly the one uniform draw the linear scan consumes.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        self.sample_at(rng.next_f64())
    }
}

/// Unnormalized Zipf weights over `n` ranks: `weight[i] = (i + 1)^-s`.
///
/// Rank 0 is the heaviest. `s = 0` degenerates to uniform weights; larger
/// exponents concentrate mass on the first ranks. This is the standard
/// model for skewed stake distributions in large miner populations
/// (Sakurai & Shudo study exactly this regime), and the generator behind
/// the scenario format's `shares = zipf(count, exponent)`.
///
/// # Panics
/// Panics if `n == 0` or `exponent` is negative or non-finite.
#[must_use]
pub fn zipf_weights(n: usize, exponent: f64) -> Vec<f64> {
    assert!(n > 0, "zipf needs at least one rank");
    assert!(
        exponent.is_finite() && exponent >= 0.0,
        "zipf exponent must be finite and non-negative, got {exponent}"
    );
    (1..=n).map(|k| (k as f64).powf(-exponent)).collect()
}

/// A sampler over the Zipf(`n`, `s`) law: rank `i ∈ 0..n` is drawn with
/// probability `(i + 1)^-s / H_{n,s}` in O(log n) per draw.
///
/// Thin wrapper over a [`FenwickSampler`] built from [`zipf_weights`], so
/// draw arithmetic is covered by the Fenwick/linear-scan equivalence
/// tests; the analytic [`pmf`](Self::pmf) is what the statistical tests in
/// `tests/proptests.rs` check empirical frequencies against.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    fenwick: FenwickSampler,
    exponent: f64,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics under the same conditions as [`zipf_weights`].
    #[must_use]
    pub fn new(n: usize, exponent: f64) -> Self {
        Self {
            fenwick: FenwickSampler::new(&zipf_weights(n, exponent)),
            exponent,
        }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fenwick.len()
    }

    /// Whether the sampler holds no ranks (never true after a successful
    /// build).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fenwick.is_empty()
    }

    /// The exponent `s`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// The analytic probability of rank `i`:
    /// `(i + 1)^-s / Σ_k (k + 1)^-s`.
    #[must_use]
    pub fn pmf(&self, i: usize) -> f64 {
        self.fenwick.weight(i) / self.fenwick.total()
    }

    /// Draws a rank from one uniform variate `u ∈ [0, 1)`.
    #[must_use]
    pub fn sample_at(&self, u: f64) -> usize {
        self.fenwick.sample_at(u)
    }

    /// Draws a rank using the generator's next `f64`.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        self.fenwick.sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear scan the sampler must agree with (a copy of
    /// `fairness_core::miner::sample_categorical`'s arithmetic, kept here
    /// so the equivalence is testable without a dependency cycle).
    fn linear_scan(weights: &[f64], u: f64) -> usize {
        let total: f64 = weights.iter().sum();
        let mut point = u * total;
        for (i, &w) in weights.iter().enumerate() {
            if point < w {
                return i;
            }
            point -= w;
        }
        weights
            .iter()
            .rposition(|&w| w > 0.0)
            .expect("positive total weight")
    }

    #[test]
    fn matches_linear_scan_on_grids() {
        let cases: &[&[f64]] = &[
            &[1.0],
            &[0.2, 0.8],
            &[0.5, 0.5],
            &[0.1, 0.3, 0.6],
            &[0.0, 1.0],
            &[1.0, 0.0],
            &[0.0, 0.5, 0.0, 0.5, 0.0],
            &[1e-9, 1.0, 1e-9],
            &[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
        ];
        for weights in cases {
            let s = FenwickSampler::new(weights);
            for k in 0..2000 {
                let u = k as f64 / 2000.0;
                assert_eq!(
                    s.sample_at(u),
                    linear_scan(weights, u),
                    "weights {weights:?} u={u}"
                );
            }
        }
    }

    #[test]
    fn two_categories_match_the_descent() {
        let mut rng = Xoshiro256StarStar::new(5);
        let edges = [0.0, 0.5, 1.0 - f64::EPSILON / 2.0];
        let agree = |s: &FenwickSampler, u: f64, what: &str| {
            assert_eq!(s.sample_at(u), s.descend(u), "{what}: u={u}");
        };
        for case in 0..500 {
            // Weights across scales, one of them tiny now and then.
            let scale = |rng: &mut Xoshiro256StarStar| {
                let w = rng.next_f64() + f64::MIN_POSITIVE;
                w * 10f64.powi((rng.next_f64() * 30.0) as i32 - 15)
            };
            let weights = [scale(&mut rng), scale(&mut rng)];
            let mut s = FenwickSampler::new(&weights);
            let what = format!("case {case}, weights {weights:?}");
            for _ in 0..200 {
                agree(&s, rng.next_f64(), &what);
            }
            for u in edges {
                agree(&s, u, &what);
            }
            // After many increments, as a game's stake sampler sees them.
            for _ in 0..1000 {
                let i = usize::from(rng.next_f64() < 0.5);
                s.add(i, scale(&mut rng));
            }
            for _ in 0..200 {
                agree(&s, rng.next_f64(), &format!("{what} after adds"));
            }
            for u in edges {
                agree(&s, u, &format!("{what} after adds"));
            }
        }
        // A negative delta can leave `tree[2]` one ulp below `tree[1]`:
        // the closed form still follows the descent's fallback there.
        let mut s = FenwickSampler::new(&[1.0, f64::EPSILON / 2.0]);
        s.add(1, -0.375 * f64::EPSILON);
        assert!(s.tree[2] < s.tree[1] && s.weight(1) > 0.0);
        for u in [0.0, 0.5, 1.0 - f64::EPSILON / 2.0, 1.0] {
            agree(&s, u, "tree[2] below tree[1]");
        }
        assert_eq!(s.sample_at(1.0), 1);
        // Zero weights take the descent, which never picks them.
        for weights in [[0.0, 1.0], [1.0, 0.0]] {
            let s = FenwickSampler::new(&weights);
            let positive = usize::from(weights[0] == 0.0);
            for u in edges.into_iter().chain([1.0]) {
                assert_eq!(s.sample_at(u), positive, "weights {weights:?}, u={u}");
            }
        }
    }

    #[test]
    fn incremental_updates_track_weights() {
        let mut s = FenwickSampler::new(&[0.2, 0.3, 0.5]);
        s.add(1, 0.7);
        assert_eq!(s.weight(1), 1.0);
        assert!((s.total() - 1.7).abs() < 1e-12);
        // After updates the sampler agrees with a fresh linear scan on the
        // updated weights for all but boundary-ulp draws; probe a dense
        // off-boundary grid.
        let weights = [0.2, 1.0, 0.5];
        for k in 0..1000 {
            let u = (k as f64 + 0.5) / 1000.0;
            assert_eq!(s.sample_at(u), linear_scan(&weights, u), "u={u}");
        }
    }

    #[test]
    fn empirical_proportions_match() {
        let mut s = FenwickSampler::new(&[0.2, 0.3, 0.5]);
        let mut rng = Xoshiro256StarStar::new(1);
        let n = 100_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[s.sample(&mut rng)] += 1;
        }
        for (i, &w) in [0.2, 0.3, 0.5].iter().enumerate() {
            let frac = counts[i] as f64 / n as f64;
            assert!((frac - w).abs() < 0.006, "i={i}: {frac} vs {w}");
        }
        // Evolve and re-check: the rich category gets richer.
        s.add(2, 4.5); // weights now 0.2, 0.3, 5.0 (total 5.5)
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[s.sample(&mut rng)] += 1;
        }
        let frac2 = counts[2] as f64 / n as f64;
        assert!((frac2 - 5.0 / 5.5).abs() < 0.006, "{frac2}");
    }

    #[test]
    fn zero_weight_never_selected() {
        let mut s = FenwickSampler::new(&[0.0, 1.0, 0.0]);
        let mut rng = Xoshiro256StarStar::new(2);
        for _ in 0..2000 {
            assert_eq!(s.sample(&mut rng), 1);
        }
        // Drive a weight to zero incrementally; it must drop out.
        s.rebuild(&[0.5, 0.5]);
        s.add(0, -0.5);
        for _ in 0..2000 {
            assert_eq!(s.sample(&mut rng), 1);
        }
    }

    #[test]
    fn point_at_total_falls_back_to_last_positive() {
        let s = FenwickSampler::new(&[0.3, 0.7, 0.0]);
        assert_eq!(s.sample_at(1.0), 1, "u=1 (never drawn) stays in range");
    }

    #[test]
    fn rebuild_reuses_allocations_for_same_len() {
        let mut s = FenwickSampler::new(&[0.2, 0.8]);
        let tree_ptr = s.tree.as_ptr();
        s.rebuild(&[0.6, 0.4]);
        assert_eq!(s.tree.as_ptr(), tree_ptr, "no reallocation on rebuild");
        assert!((s.total() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in 1..=33usize {
            let weights: Vec<f64> = (0..n).map(|i| (i % 3) as f64 + 0.25).collect();
            let s = FenwickSampler::new(&weights);
            for k in 0..500 {
                let u = k as f64 / 500.0;
                assert_eq!(s.sample_at(u), linear_scan(&weights, u), "n={n} u={u}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn all_zero_rejected() {
        let _ = FenwickSampler::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn empty_rejected() {
        let _ = FenwickSampler::new(&[]);
    }

    #[test]
    fn zipf_weights_survive_extreme_exponents_at_scale() {
        // Million-rank populations at the full supported exponent range:
        // deep tails underflow powf toward (but never past) zero, and the
        // vector must stay finite and sum-normalizable throughout.
        let n = 1_000_000;
        for s in [0.0, 1.0, 25.0, 50.0] {
            let w = zipf_weights(n, s);
            assert_eq!(w.len(), n);
            assert_eq!(w[0], 1.0, "rank 1 weighs exactly 1 at s={s}");
            assert!(
                w.iter().all(|x| x.is_finite() && *x >= 0.0),
                "non-finite weight at s={s}"
            );
            let total: f64 = w.iter().sum();
            assert!(total.is_finite() && total >= 1.0, "total {total} at s={s}");
            let normalized: f64 = w.iter().map(|x| x / total).sum();
            assert!((normalized - 1.0).abs() < 1e-9, "s={s}: {normalized}");
            // Weights are non-increasing in rank even deep in the
            // underflow regime.
            assert!(w.windows(2).all(|p| p[1] <= p[0]), "s={s}");
        }
        // s = 50 is effectively single-winner over a million ranks — the
        // collapse the satellite guards: still normalizable, not NaN.
        let w = zipf_weights(n, 50.0);
        let total: f64 = w.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "collapsed total {total}");
    }
}

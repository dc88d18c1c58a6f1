//! Descriptive statistics: streaming moments and quantiles.
//!
//! The paper's figures report, at each checkpoint `n`, the sample mean of
//! `λ_A` (orange line) and the 5th/95th percentiles (blue band edges). These
//! helpers compute exactly those summaries over Monte-Carlo ensembles.

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long streams; merging two accumulators is
/// supported so per-thread results can be combined.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Population variance (0 when empty).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.variance() / self.count as f64).sqrt()
        }
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// combination).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
    }
}

/// Computes the `q`-quantile (`0 <= q <= 1`) of `data` using linear
/// interpolation between order statistics (R type-7, the default of most
/// statistics packages).
///
/// `data` does not need to be sorted; a sorted copy is made internally.
///
/// # Panics
/// Panics if `data` is empty or `q` is outside `[0, 1]`.
#[must_use]
pub fn quantile(data: &[f64], q: f64) -> f64 {
    assert!(!data.is_empty(), "quantile of empty data");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile requires q in [0,1], got {q}"
    );
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    quantile_sorted(&sorted, q)
}

/// Same as [`quantile`] but assumes `data` is already sorted ascending.
#[must_use]
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty data");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = h - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Five-number summary plus mean: the exact statistics plotted per
/// checkpoint in the paper's figures (mean, 5th and 95th percentiles) with
/// min/median/max added for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiveNumber {
    /// Smallest observation.
    pub min: f64,
    /// 5th percentile (bottom of the paper's blue band).
    pub p05: f64,
    /// Median.
    pub median: f64,
    /// 95th percentile (top of the paper's blue band).
    pub p95: f64,
    /// Largest observation.
    pub max: f64,
    /// Sample mean (the paper's orange line).
    pub mean: f64,
}

impl FiveNumber {
    /// Computes the summary of `data`.
    ///
    /// # Panics
    /// Panics if `data` is empty.
    #[must_use]
    pub fn from_samples(data: &[f64]) -> Self {
        assert!(!data.is_empty(), "FiveNumber of empty data");
        let mut sorted = data.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        Self {
            min: sorted[0],
            p05: quantile_sorted(&sorted, 0.05),
            median: quantile_sorted(&sorted, 0.5),
            p95: quantile_sorted(&sorted, 0.95),
            max: *sorted.last().expect("non-empty"),
            mean,
        }
    }
}

/// Settles the verdict "the mean of `total` samples in `[0, 1]` exceeds
/// 1/2" from a prefix of the samples, as soon as the rest cannot change
/// it — the stopping rule of a monopolization-threshold probe.
///
/// Feed the samples in index order with [`push`](Self::push). After `k`
/// of `R` samples with sum `S_k`, the full sum lies in
/// `[S_k, S_k + (R − k)]`, since every sample still to come lies in
/// `[0, 1]`. Widened by `2·(R + 1)²·ε` (`ε` = [`f64::EPSILON`]), once that
/// interval lies strictly above or strictly below `R/2` the verdict is
/// settled. The widening bounds every floating-point error involved, in
/// any summation order: summing `n` values in `[0, 1]` one after another
/// errs by less than `n²·ε`, both for this rule's index-order running sum
/// and for the final mean, whether that sums the sorted column
/// ([`FiveNumber`]) or the samples in index order; the final division by
/// `R` and this rule's own comparisons add less than `2R·ε`. So a settled
/// verdict equals `fl(Σ / R) > 0.5` computed over all `R` samples, in
/// either order. It also equals the same test over the settled prefix
/// alone, `fl(Σ_k / k) > 0.5`: settled above means `S_k > R/2 ≥ k/2`,
/// settled below means `S_k < k − R/2 ≤ k/2`, each with the margin to
/// spare. A prefix that never settles runs to `k = R`, where the two
/// tests are the same computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanAboveHalf {
    total: usize,
    seen: usize,
    sum: f64,
    /// `2·(R + 1)²·ε`: the floating-point widening described above.
    slack: f64,
}

impl MeanAboveHalf {
    /// A rule for `total` samples.
    #[must_use]
    pub fn new(total: usize) -> Self {
        let r = total as f64 + 1.0;
        Self {
            total,
            seen: 0,
            sum: 0.0,
            slack: 2.0 * r * r * f64::EPSILON,
        }
    }

    /// Feeds the next sample (in index order); returns whether the
    /// verdict is settled — always so once all `total` samples are in.
    ///
    /// # Panics
    /// Panics (debug) if `x` lies outside `[0, 1]` or more than `total`
    /// samples are fed.
    pub fn push(&mut self, x: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&x), "sample {x} outside [0, 1]");
        debug_assert!(self.seen < self.total, "more than {} samples", self.total);
        self.sum += x;
        self.seen += 1;
        let half = self.total as f64 / 2.0;
        let rest = (self.total - self.seen) as f64;
        self.seen == self.total
            || self.sum - self.slack > half
            || self.sum + rest + self.slack < half
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 2.0)
            .collect();
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-10);
        assert_eq!(w.count(), 1000);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let mut all = Welford::new();
        for &x in &data {
            all.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &data[..200] {
            left.push(x);
        }
        for &x in &data[200..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-12);
        assert!((left.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_empty_and_single() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        let mut w1 = Welford::new();
        w1.push(7.0);
        assert_eq!(w1.mean(), 7.0);
        assert_eq!(w1.variance(), 0.0);
        let mut merged = Welford::new();
        merged.merge(&w1);
        assert_eq!(merged.mean(), 7.0);
    }

    #[test]
    fn quantile_interpolation() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&data, 0.0), 1.0);
        assert_eq!(quantile(&data, 1.0), 4.0);
        assert_eq!(quantile(&data, 0.5), 2.5);
        assert!((quantile(&data, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let data = [9.0, 1.0, 5.0, 3.0, 7.0];
        assert_eq!(quantile(&data, 0.5), 5.0);
    }

    #[test]
    fn five_number_summary() {
        let data: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = FiveNumber::from_samples(&data);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-12);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert!((s.p05 - 5.95).abs() < 1e-9, "{}", s.p05);
        assert!((s.p95 - 95.05).abs() < 1e-9, "{}", s.p95);
    }

    /// Feeds `data` to [`MeanAboveHalf`] and returns the settled prefix
    /// length.
    fn settle_point(data: &[f64]) -> usize {
        let mut rule = MeanAboveHalf::new(data.len());
        data.iter()
            .position(|&x| rule.push(x))
            .map_or(data.len(), |k| k + 1)
    }

    /// The settled prefix decides `mean > 1/2` exactly as the full column
    /// does, whether the mean sums the sorted column ([`FiveNumber`]) or
    /// the samples in index order. (The two orders may disagree with each
    /// other within rounding of the threshold; such a column never
    /// settles early.)
    fn assert_settles_like_the_full_mean(data: &[f64]) {
        let k = settle_point(data);
        let prefix = &data[..k];
        assert_eq!(
            FiveNumber::from_samples(prefix).mean > 0.5,
            FiveNumber::from_samples(data).mean > 0.5,
            "sorted sum, settled after {k} of {}: {data:?}",
            data.len()
        );
        assert_eq!(
            prefix.iter().sum::<f64>() / k as f64 > 0.5,
            data.iter().sum::<f64>() / data.len() as f64 > 0.5,
            "index-order sum, settled after {k} of {}: {data:?}",
            data.len()
        );
    }

    #[test]
    fn mean_above_half_settles_boundary_columns_like_the_full_mean() {
        let up = f64::from_bits(0.5f64.to_bits() + 1);
        let down = f64::from_bits(0.5f64.to_bits() - 1);
        let mut cases: Vec<Vec<f64>> = Vec::new();
        for r in [1usize, 2, 3, 10, 11, 200] {
            cases.push(vec![0.0; r]);
            cases.push(vec![1.0; r]);
            cases.push(vec![0.5; r]);
            cases.push(vec![up; r]);
            cases.push(vec![down; r]);
            // Exactly R/2 in total, in both arrangements.
            let ones = (0..r).map(|i| if i < r / 2 { 1.0 } else { 0.0 });
            let mut front: Vec<f64> = ones.collect();
            if r % 2 == 1 {
                front[r - 1] = 0.5;
            }
            let mut back = front.clone();
            back.reverse();
            cases.push(front);
            cases.push(back);
            // One ulp either side of the exact half sum.
            let mut over = vec![0.5; r];
            over[r - 1] = up;
            let mut under = vec![0.5; r];
            under[r - 1] = down;
            cases.push(over);
            cases.push(under);
            // Settles early above, early below, or only at the end.
            let mut early_above = vec![1.0; r];
            early_above[r - 1] = 0.0;
            let mut early_below = vec![0.0; r];
            early_below[r - 1] = 1.0;
            cases.push(early_above);
            cases.push(early_below);
        }
        // The index-order running sum passes R/2 by one ulp, while the
        // sorted sum of the full column rounds back to exactly R/2: only
        // the widening keeps these from settling on the wrong side.
        cases.push(vec![
            1.0,
            1.0,
            2.5333167093193277e-16,
            4.833338106917973e-17,
        ]);
        cases.push(vec![
            1.0,
            0.5,
            1.0,
            2.22079759655079e-16,
            2.849766383206498e-17,
        ]);
        for data in &cases {
            assert_settles_like_the_full_mean(data);
        }
        // Settled prefixes are short where the verdict is clear.
        assert_eq!(settle_point(&[1.0; 10]), 6);
        assert_eq!(settle_point(&[0.0; 10]), 6);
        assert_eq!(settle_point(&[0.5; 10]), 10);
        assert_eq!(settle_point(&[up; 10]), 10);
    }

    #[test]
    fn mean_above_half_agrees_at_its_settle_boundary() {
        // Prefixes that pass R/2 (or fall short of it) by about the
        // rule's own widening: settled or not, the verdict must match.
        for r in [10usize, 11, 200] {
            let slack = 2.0 * (r as f64 + 1.0).powi(2) * f64::EPSILON;
            for margin in [f64::EPSILON, slack / 2.0, slack, 2.0 * slack, 1e-9] {
                // Half the column at 1, then a value just above 0 (or
                // just below 1), then the rest at the other extreme.
                let mut above = vec![1.0; r / 2];
                above.push(margin);
                above.resize(r, 0.0);
                let mut below = vec![0.0; r - r / 2 - 1];
                below.push(1.0 - margin);
                below.resize(r, 1.0);
                for data in [above, below] {
                    assert_settles_like_the_full_mean(&data);
                }
            }
        }
        // Columns summing to within a few ulps of R/2, in random order.
        let mut rng = crate::rng::Xoshiro256StarStar::new(11);
        for r in [2usize, 5, 10, 40, 200] {
            for _ in 0..100 {
                let mut data: Vec<f64> = (0..r).map(|_| rng.next_f64()).collect();
                let shift = 0.5 - data.iter().sum::<f64>() / r as f64;
                for x in &mut data {
                    *x = (*x + shift).clamp(0.0, 1.0);
                }
                let nudge = (rng.next_f64() - 0.5) * 8.0 * f64::EPSILON;
                data[0] = (data[0] + nudge).clamp(0.0, 1.0);
                assert_settles_like_the_full_mean(&data);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_rejects_empty() {
        let _ = quantile(&[], 0.5);
    }
}

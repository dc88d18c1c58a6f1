//! Miner resource shares and normalization helpers (Assumption 2).

use fairness_stats::rng::Xoshiro256StarStar;

/// Validates and normalizes a share vector so it sums to exactly 1.
///
/// # Panics
/// Panics if `shares` is empty, contains a non-finite or negative entry, or
/// sums to zero or past `f64::MAX`.
#[must_use]
pub fn normalize_shares(shares: &[f64]) -> Vec<f64> {
    assert!(!shares.is_empty(), "share vector must be non-empty");
    for (i, &s) in shares.iter().enumerate() {
        assert!(
            s.is_finite() && s >= 0.0,
            "share[{i}] must be finite and non-negative, got {s}"
        );
    }
    let total: f64 = shares.iter().sum();
    assert!(total > 0.0, "shares must not all be zero");
    assert!(total.is_finite(), "shares must sum to a finite total");
    shares.iter().map(|&s| s / total).collect()
}

/// The paper's two-miner setup: miner A holds `a`, miner B holds `1 − a`.
///
/// # Panics
/// Panics unless `0 < a < 1`.
#[must_use]
pub fn two_miner(a: f64) -> Vec<f64> {
    assert!(
        a > 0.0 && a < 1.0,
        "two-miner share must be in (0,1), got {a}"
    );
    vec![a, 1.0 - a]
}

/// `m` miners with equal shares.
///
/// # Panics
/// Panics if `m == 0`.
#[must_use]
pub fn equal_shares(m: usize) -> Vec<f64> {
    assert!(m > 0, "need at least one miner");
    vec![1.0 / m as f64; m]
}

/// Table 1's multi-miner setup: miner A holds `a`, the remaining `m − 1`
/// miners split `1 − a` equally.
///
/// # Panics
/// Panics unless `m ≥ 2` and `0 < a < 1`.
#[must_use]
pub fn paper_multi_miner(m: usize, a: f64) -> Vec<f64> {
    assert!(m >= 2, "need at least two miners, got {m}");
    assert!(a > 0.0 && a < 1.0, "share must be in (0,1), got {a}");
    let rest = (1.0 - a) / (m - 1) as f64;
    let mut shares = vec![rest; m];
    shares[0] = a;
    shares
}

/// Zipf-distributed shares: miner `i` (0-indexed) holds weight
/// `(i + 1)^(−exponent)`, normalized to sum to 1. The skewed stake
/// distributions of Sakurai & Shudo's scale study; `exponent = 0` recovers
/// [`equal_shares`].
///
/// # Panics
/// Panics if `m == 0` or the exponent is negative or non-finite.
#[must_use]
pub fn zipf_shares(m: usize, exponent: f64) -> Vec<f64> {
    normalize_shares(&fairness_stats::sampling::zipf_weights(m, exponent))
}

/// Samples an index from a categorical distribution given non-negative
/// weights (not necessarily normalized).
///
/// # Panics
/// Panics if `weights` is empty or sums to zero.
pub fn sample_categorical(weights: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
    assert!(!weights.is_empty(), "categorical needs weights");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "categorical weights must not all be zero");
    let mut point = rng.next_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        if point < w {
            return i;
        }
        point -= w;
    }
    // Floating-point slack: return the last positively weighted index.
    weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("positive total weight")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_basics() {
        let n = normalize_shares(&[2.0, 8.0]);
        assert!((n[0] - 0.2).abs() < 1e-15);
        assert!((n[1] - 0.8).abs() < 1e-15);
        let sum: f64 = normalize_shares(&[0.3, 0.3, 0.3]).iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_miner_shares() {
        assert_eq!(two_miner(0.2), vec![0.2, 0.8]);
    }

    #[test]
    fn paper_multi_miner_table1() {
        // 5 miners: all hold 0.2.
        let s5 = paper_multi_miner(5, 0.2);
        assert!(s5.iter().all(|&x| (x - 0.2).abs() < 1e-12));
        // 10 miners: A holds 0.2, others 0.8/9 ≈ 0.0889 < 0.2.
        let s10 = paper_multi_miner(10, 0.2);
        assert!((s10[0] - 0.2).abs() < 1e-12);
        assert!((s10[1] - 0.8 / 9.0).abs() < 1e-12);
        assert!((s10.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn equal_shares_sum_to_one() {
        let s = equal_shares(7);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn categorical_sampling_proportions() {
        let mut rng = Xoshiro256StarStar::new(1);
        let weights = [0.2, 0.3, 0.5];
        let n = 100_000;
        let mut counts = [0u64; 3];
        for _ in 0..n {
            counts[sample_categorical(&weights, &mut rng)] += 1;
        }
        for (i, &w) in weights.iter().enumerate() {
            let frac = counts[i] as f64 / n as f64;
            assert!((frac - w).abs() < 0.006, "i={i}: {frac} vs {w}");
        }
    }

    #[test]
    fn categorical_zero_weight_never_chosen() {
        let mut rng = Xoshiro256StarStar::new(2);
        for _ in 0..1000 {
            assert_eq!(sample_categorical(&[0.0, 1.0, 0.0], &mut rng), 1);
        }
    }

    #[test]
    fn zipf_shares_skewed_and_normalized() {
        let s = zipf_shares(5, 1.0);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // Harmonic weights 1, 1/2, ..., 1/5 over H_5.
        let h5: f64 = (1..=5).map(|k| 1.0 / k as f64).sum();
        assert!((s[0] - 1.0 / h5).abs() < 1e-12);
        assert!((s[4] - 0.2 / h5).abs() < 1e-12);
        assert!(s.windows(2).all(|w| w[0] >= w[1]), "non-increasing");
        // Exponent 0 is uniform.
        let flat = zipf_shares(4, 0.0);
        assert!(flat.iter().all(|&x| (x - 0.25).abs() < 1e-15));
    }

    #[test]
    fn zipf_shares_survive_extreme_exponents() {
        // The share-vector counterpart of the stats-layer underflow guard:
        // even when powf collapses the tail to a single winner, the
        // normalized shares stay finite, non-negative, and sum to 1.
        for (m, exponent) in [(1_000_000, 50.0), (1_000_000, 0.0), (10, 50.0), (1, 25.0)] {
            let s = zipf_shares(m, exponent);
            assert_eq!(s.len(), m);
            assert!(
                s.iter().all(|x| x.is_finite() && *x >= 0.0),
                "m={m} s={exponent}"
            );
            assert!(
                (s.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "m={m} s={exponent}"
            );
        }
        // The collapsed regime really is single-winner.
        let s = zipf_shares(100, 50.0);
        assert!(s[0] > 1.0 - 1e-12 && s[1] < 1e-12);
    }

    #[test]
    #[should_panic(expected = "in (0,1)")]
    fn two_miner_rejects_one() {
        let _ = two_miner(1.0);
    }

    #[test]
    #[should_panic(expected = "must not all be zero")]
    fn normalize_rejects_zeros() {
        let _ = normalize_shares(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite total")]
    fn normalize_rejects_an_overflowing_total() {
        let _ = normalize_shares(&[1e308, 1e308]);
    }
}

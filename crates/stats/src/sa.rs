//! Stochastic approximation toolkit (Definition 4.4, Lemmas 4.5–4.8).
//!
//! The SL-PoS stake-fraction process `Z_n` is a stochastic-approximation
//! algorithm
//!
//! ```text
//! Z_{n+1} − Z_n = γ_{n+1} ( f(Z_n) + U_{n+1} )
//! ```
//!
//! with step size `γ_{n+1} = w/(1 + (n+1)w)` and drift
//! `f(z) = E[X_{n+1} | Z_n = z] − z`. Renlund (2010) shows `Z_n` converges
//! a.s. to a zero of `f`, stable zeros are reached with positive
//! probability, and unstable zeros with probability zero. For SL-PoS the
//! zeros are {0, ½, 1} with ½ unstable — hence monopolization (Theorem 4.9).
//!
//! This module provides generic zero-finding/stability classification over
//! any drift function plus a simulator for SA recursions, so the SL-PoS
//! analysis in `fairness-core` is a thin instantiation.

use crate::rng::Xoshiro256StarStar;

/// Stability classification of a zero point `q` of a drift function `f`
/// (Lemmas 4.7 and 4.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// `f(x)(x−q) < 0` on both sides near `q`: the process is attracted and
    /// converges to `q` with positive probability.
    Stable,
    /// `f(x)(x−q) ≥ 0` locally: the process escapes; with non-degenerate
    /// noise it converges to `q` with probability zero.
    Unstable,
    /// Mixed signs (attracting on one side, repelling on the other).
    SemiStable,
}

/// Finds zeros of `f` on `[0, 1]` by scanning `grid_points` intervals for
/// sign changes and bisecting each to `tol`. Grid points where `|f|` is
/// below `tol` are also reported (plateau zeros).
///
/// Endpoints 0 and 1 are checked explicitly since boundary zeros are common
/// for absorbing processes.
pub fn find_zeros<F: Fn(f64) -> f64>(f: &F, grid_points: usize, tol: f64) -> Vec<f64> {
    assert!(grid_points >= 2, "need at least 2 grid points");
    let mut zeros: Vec<f64> = Vec::new();
    let push_unique = |zeros: &mut Vec<f64>, z: f64| {
        if !zeros.iter().any(|&q| (q - z).abs() < 10.0 * tol) {
            zeros.push(z);
        }
    };
    let h = 1.0 / grid_points as f64;
    // Endpoint zeros.
    if f(0.0).abs() <= tol {
        push_unique(&mut zeros, 0.0);
    }
    let mut prev_x = 0.0;
    let mut prev_f = f(0.0);
    for i in 1..=grid_points {
        let x = i as f64 * h;
        let fx = f(x);
        if fx.abs() <= tol {
            push_unique(&mut zeros, x);
        } else if prev_f != 0.0 && prev_f.signum() != fx.signum() {
            // Bisect [prev_x, x].
            let (mut lo, mut hi) = (prev_x, x);
            let mut flo = prev_f;
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                let fm = f(mid);
                if fm.abs() <= tol || (hi - lo) < tol {
                    break;
                }
                if flo.signum() != fm.signum() {
                    hi = mid;
                } else {
                    lo = mid;
                    flo = fm;
                }
            }
            push_unique(&mut zeros, 0.5 * (lo + hi));
        }
        prev_x = x;
        prev_f = fx;
    }
    zeros.sort_by(|a, b| a.partial_cmp(b).expect("no NaN zeros"));
    zeros
}

/// Classifies a zero `q` of `f` by probing the drift at distance `probe` on
/// each side (Lemma 4.7 / 4.8 conditions).
pub fn classify_zero<F: Fn(f64) -> f64>(f: &F, q: f64, probe: f64) -> Stability {
    let left_x = (q - probe).max(0.0);
    let right_x = (q + probe).min(1.0);
    // At a boundary zero, only the interior side is informative.
    let left_attracts = if left_x < q { f(left_x) > 0.0 } else { true };
    let right_attracts = if right_x > q { f(right_x) < 0.0 } else { true };
    match (left_attracts, right_attracts) {
        (true, true) => Stability::Stable,
        (false, false) => Stability::Unstable,
        _ => Stability::SemiStable,
    }
}

/// Simulates an SA recursion `Z_{n+1} = Z_n + γ_{n+1}(f(Z_n) + U_{n+1})`
/// where the noisy increment is supplied by `step`, which must return the
/// realized `f(Z_n) + U_{n+1}` given the current state.
///
/// Returns the trajectory `[Z_0, Z_1, ..., Z_n]` clamped to `[0, 1]`.
pub fn simulate_sa<FStep, FGamma>(
    z0: f64,
    n: usize,
    mut gamma: FGamma,
    mut step: FStep,
    rng: &mut Xoshiro256StarStar,
) -> Vec<f64>
where
    FStep: FnMut(f64, &mut Xoshiro256StarStar) -> f64,
    FGamma: FnMut(usize) -> f64,
{
    assert!((0.0..=1.0).contains(&z0), "z0 must be in [0,1], got {z0}");
    let mut traj = Vec::with_capacity(n + 1);
    let mut z = z0;
    traj.push(z);
    for i in 1..=n {
        let g = gamma(i);
        z = (z + g * step(z, rng)).clamp(0.0, 1.0);
        traj.push(z);
    }
    traj
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SL-PoS drift of Eq. (2) in the paper.
    fn slpos_drift(z: f64) -> f64 {
        if z <= 0.0 || z >= 1.0 {
            return 0.0;
        }
        let win = if z <= 0.5 {
            z / (2.0 * (1.0 - z))
        } else {
            1.0 - (1.0 - z) / (2.0 * z)
        };
        win - z
    }

    #[test]
    fn slpos_zeros_are_0_half_1() {
        let zeros = find_zeros(&slpos_drift, 1000, 1e-10);
        assert_eq!(zeros.len(), 3, "zeros: {zeros:?}");
        assert!((zeros[0] - 0.0).abs() < 1e-6);
        assert!((zeros[1] - 0.5).abs() < 1e-6);
        assert!((zeros[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn slpos_stability_classification() {
        // Theorem 4.9: 0 and 1 stable, 1/2 unstable.
        assert_eq!(classify_zero(&slpos_drift, 0.0, 0.01), Stability::Stable);
        assert_eq!(classify_zero(&slpos_drift, 1.0, 0.01), Stability::Stable);
        assert_eq!(classify_zero(&slpos_drift, 0.5, 0.01), Stability::Unstable);
    }

    #[test]
    fn linear_drift_single_stable_zero() {
        // f(z) = 0.3 - z has a unique stable zero at 0.3.
        let f = |z: f64| 0.3 - z;
        let zeros = find_zeros(&f, 100, 1e-10);
        assert_eq!(zeros.len(), 1);
        assert!((zeros[0] - 0.3).abs() < 1e-6);
        assert_eq!(classify_zero(&f, 0.3, 0.01), Stability::Stable);
    }

    #[test]
    fn repelling_drift_classified_unstable() {
        // f(z) = z - 0.5 pushes away from 0.5.
        let f = |z: f64| z - 0.5;
        assert_eq!(classify_zero(&f, 0.5, 0.01), Stability::Unstable);
    }

    #[test]
    fn sa_simulation_converges_to_stable_zero() {
        // Robbins–Monro with drift toward 0.3 and bounded noise converges.
        let mut rng = Xoshiro256StarStar::new(33);
        let traj = simulate_sa(
            0.9,
            50_000,
            |i| 1.0 / i as f64,
            |z, rng| (0.3 - z) + (rng.next_f64() - 0.5) * 0.2,
            &mut rng,
        );
        let z_final = *traj.last().expect("non-empty");
        assert!((z_final - 0.3).abs() < 0.02, "final {z_final}");
    }

    #[test]
    fn sa_trajectory_stays_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(35);
        let traj = simulate_sa(
            0.5,
            10_000,
            |i| 2.0 / i as f64,
            |_z, rng| (rng.next_f64() - 0.5) * 4.0,
            &mut rng,
        );
        assert!(traj.iter().all(|&z| (0.0..=1.0).contains(&z)));
    }

    #[test]
    fn sa_slpos_monopolizes() {
        // Simulating the SL-PoS recursion directly: starting from 0.2 with
        // Bernoulli noise, the process should be absorbed near 0 or 1, and
        // from 0.2 it should usually die (drift is negative below 1/2).
        let reps = 200;
        let mut to_zero = 0;
        let mut rng = Xoshiro256StarStar::new(37);
        for _ in 0..reps {
            let w = 0.01;
            let traj = simulate_sa(
                0.2,
                200_000,
                |i| w / (1.0 + i as f64 * w),
                |z, rng| {
                    let win = if z <= 0.5 {
                        z / (2.0 * (1.0 - z))
                    } else {
                        1.0 - (1.0 - z) / (2.0 * z)
                    };
                    let x: f64 = if rng.next_f64() < win { 1.0 } else { 0.0 };
                    x - z
                },
                &mut rng,
            );
            let z = *traj.last().expect("non-empty");
            assert!(
                !(0.15..=0.85).contains(&z),
                "process not near absorption: {z}"
            );
            if z < 0.15 {
                to_zero += 1;
            }
        }
        // From 0.2 the vast majority of runs should sink to 0.
        assert!(to_zero > reps * 8 / 10, "only {to_zero}/{reps} sank to 0");
    }
}

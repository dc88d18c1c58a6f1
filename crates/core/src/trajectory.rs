//! Checkpoint grids and λ-trajectories.

/// A recorded trajectory: `λ_A` (or any per-miner metric) sampled at fixed
/// checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// The checkpoints (step counts), strictly ascending.
    pub checkpoints: Vec<u64>,
    /// Metric value at each checkpoint.
    pub values: Vec<f64>,
}

impl Trajectory {
    /// The final value.
    ///
    /// # Panics
    /// Panics if the trajectory is empty.
    #[must_use]
    pub fn last(&self) -> f64 {
        *self.values.last().expect("non-empty trajectory")
    }
}

/// `count` evenly spaced checkpoints from `horizon/count` to `horizon`.
///
/// # Panics
/// Panics if `horizon == 0` or `count == 0`.
#[must_use]
pub fn linear_checkpoints(horizon: u64, count: usize) -> Vec<u64> {
    assert!(horizon > 0, "horizon must be positive");
    assert!(count > 0, "need at least one checkpoint");
    let count = count.min(horizon as usize);
    let mut pts: Vec<u64> = (1..=count)
        .map(|i| (horizon as u128 * i as u128 / count as u128) as u64)
        .collect();
    pts.dedup();
    pts
}

/// Roughly log-spaced checkpoints from 1 to `horizon` (useful for Figure 4's
/// 10⁵-block horizons).
///
/// # Panics
/// Panics if `horizon == 0` or `per_decade == 0`.
#[must_use]
pub fn log_checkpoints(horizon: u64, per_decade: usize) -> Vec<u64> {
    assert!(horizon > 0, "horizon must be positive");
    assert!(per_decade > 0, "need at least one checkpoint per decade");
    let mut pts = vec![];
    let decades = (horizon as f64).log10();
    let total = (decades * per_decade as f64).ceil() as usize;
    for i in 0..=total {
        let v = 10f64.powf(i as f64 / per_decade as f64).round() as u64;
        pts.push(v.clamp(1, horizon));
    }
    pts.push(horizon);
    pts.sort_unstable();
    pts.dedup();
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_grid() {
        let pts = linear_checkpoints(1000, 10);
        assert_eq!(pts, vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]);
    }

    #[test]
    fn linear_grid_small_horizon() {
        let pts = linear_checkpoints(3, 10);
        assert_eq!(pts, vec![1, 2, 3]);
    }

    #[test]
    fn log_grid_shape() {
        let pts = log_checkpoints(100_000, 4);
        assert_eq!(*pts.first().expect("non-empty"), 1);
        assert_eq!(*pts.last().expect("non-empty"), 100_000);
        assert!(pts.windows(2).all(|w| w[0] < w[1]));
        // Log spacing: early gaps small, late gaps large.
        assert!(pts[1] - pts[0] < pts[pts.len() - 1] - pts[pts.len() - 2]);
    }

    #[test]
    fn trajectory_last() {
        let t = Trajectory {
            checkpoints: vec![1, 2],
            values: vec![0.5, 0.25],
        };
        assert_eq!(t.last(), 0.25);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let _ = linear_checkpoints(0, 5);
    }
}

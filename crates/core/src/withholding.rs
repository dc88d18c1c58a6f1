//! Reward withholding (Section 6.3).
//!
//! Rewards are *issued* to the proposer immediately (they count toward her
//! income `λ`) but only *take effect* as staking power at periodic
//! checkpoints — the paper's example: a reward issued at block 1,024 takes
//! effect at block 2,000 when the period is 1,000. Between checkpoints the
//! staking-power distribution is frozen, so the per-period win counts
//! concentrate by the law of large numbers and robust fairness improves
//! (Figure 6b).

/// A reward-withholding schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WithholdingSchedule {
    /// Rewards take effect at step counts that are multiples of `period`.
    pub period: u64,
}

impl WithholdingSchedule {
    /// Creates a schedule with the given period.
    ///
    /// # Panics
    /// Panics if `period == 0`.
    #[must_use]
    pub fn every(period: u64) -> Self {
        assert!(period > 0, "withholding period must be positive");
        Self { period }
    }

    /// Whether rewards take effect after step `step_index` completes
    /// (1-based step count).
    #[must_use]
    pub fn takes_effect_after(&self, completed_steps: u64) -> bool {
        completed_steps.is_multiple_of(self.period)
    }

    /// The step at which a reward issued at `issued_at` (1-based) becomes
    /// effective — the paper's "next effective time point".
    #[must_use]
    pub fn effective_at(&self, issued_at: u64) -> u64 {
        issued_at.div_ceil(self.period) * self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effect_points() {
        let s = WithholdingSchedule::every(1000);
        assert!(s.takes_effect_after(1000));
        assert!(s.takes_effect_after(2000));
        assert!(!s.takes_effect_after(1024));
        assert!(!s.takes_effect_after(1));
    }

    #[test]
    fn paper_example() {
        // "issued at the 1,024-th block but takes effect at the 2,000-th"
        // with the example's effective points every 1,000 blocks.
        let s = WithholdingSchedule::every(1000);
        assert_eq!(s.effective_at(1024), 2000);
        assert_eq!(s.effective_at(1000), 1000);
        assert_eq!(s.effective_at(1), 1000);
        assert_eq!(s.effective_at(2001), 3000);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_period_rejected() {
        let _ = WithholdingSchedule::every(0);
    }
}

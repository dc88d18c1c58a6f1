//! Struct-of-arrays stake ledger — the scalable hot state of the mining
//! game.
//!
//! A [`StakeLedger`] owns the per-miner columns of the game (effective
//! stakes, withheld-but-issued rewards, cumulative income) as flat `f64`
//! vectors, applies reward allocations in batch, and maintains *running*
//! totals so the model invariants (income ≡ issuance, staking power ≡
//! `1 + n·w`) are checkable in O(1) instead of the O(m) re-summations the
//! engine previously performed per step. At the paper's scale (m ≤ 10)
//! that re-summation was noise; at the 10⁶-miner sweeps of `repro scale`
//! it would dominate every step.
//!
//! Normalization is epoch-deferred: initial shares are normalized once at
//! construction, and from then on the ledger only ever *adds* rewards —
//! the running `power_total` stands in for any per-step renormalization,
//! so λ and win probabilities read off ratios without a second pass.
//!
//! Every mutator performs bit-for-bit the same per-element arithmetic, in
//! the same order, as the loops it replaced in `game.rs` — pinned by the
//! golden fixtures and property tests in `tests/ledger_equivalence.rs`.
//!
//! The module also provides [`AggregatedTailGame`]: an analytic
//! "aggregated tail" representation folding `k` exchangeable small miners
//! into a single pseudo-miner, which turns O(m)-per-step protocols into
//! O(1) for the tracked-miner questions (monopolization thresholds) that
//! `repro scale` asks at m = 10⁶.

use fairness_stats::rng::Xoshiro256StarStar;

/// Flat per-miner game state with batched reward application and running
/// totals.
#[derive(Debug, Clone)]
pub struct StakeLedger {
    /// Effective staking power per miner.
    stakes: Vec<f64>,
    /// Issued-but-not-yet-effective rewards per miner (withholding only).
    pending: Vec<f64>,
    /// Cumulative income per miner.
    earned: Vec<f64>,
    /// Running Σ earned — O(1) invariant checks.
    earned_total: f64,
    /// Running Σ (stakes + pending).
    power_total: f64,
}

impl StakeLedger {
    /// Builds a ledger from (unnormalized) initial shares.
    ///
    /// # Panics
    /// Panics if `initial_shares` is invalid (empty, negative entries,
    /// zero sum).
    #[must_use]
    pub fn new(initial_shares: &[f64]) -> Self {
        let stakes = crate::miner::normalize_shares(initial_shares);
        let m = stakes.len();
        let power_total = stakes.iter().sum();
        Self {
            stakes,
            pending: vec![0.0; m],
            earned: vec![0.0; m],
            earned_total: 0.0,
            power_total,
        }
    }

    /// Number of miners.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stakes.len()
    }

    /// Whether the ledger holds no miners (never true after construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stakes.is_empty()
    }

    /// The full stake column (what protocols draw winners from).
    #[must_use]
    pub fn stakes(&self) -> &[f64] {
        &self.stakes
    }

    /// The full income column.
    #[must_use]
    pub fn earned_column(&self) -> &[f64] {
        &self.earned
    }

    /// Effective staking power of miner `i`.
    #[must_use]
    pub fn stake(&self, i: usize) -> f64 {
        self.stakes[i]
    }

    /// Cumulative income of miner `i`.
    #[must_use]
    pub fn earned(&self, i: usize) -> f64 {
        self.earned[i]
    }

    /// Running total income (≈ total issuance).
    #[must_use]
    pub fn earned_total(&self) -> f64 {
        self.earned_total
    }

    /// Running total staking power including withheld rewards
    /// (≈ `1 + issued` for compounding protocols).
    #[must_use]
    pub fn power_total(&self) -> f64 {
        self.power_total
    }

    /// Credits income `r` to miner `w` (λ numerator only).
    #[inline]
    pub fn credit_income(&mut self, w: usize, r: f64) {
        self.earned[w] += r;
        self.earned_total += r;
    }

    /// Compounds reward `r` into miner `w`'s effective stake.
    #[inline]
    pub fn compound(&mut self, w: usize, r: f64) {
        self.stakes[w] += r;
        self.power_total += r;
        debug_assert!(self.stakes[w] >= 0.0);
    }

    /// Parks reward `r` as pending for miner `w` (withholding schedules).
    #[inline]
    pub fn pend(&mut self, w: usize, r: f64) {
        self.pending[w] += r;
        self.power_total += r;
    }

    /// Applies a full reward allocation in one batched pass: each miner's
    /// income grows by their entry and, for compounding protocols, the
    /// entry restakes (into `pending` under withholding). Identical
    /// element order and arithmetic to crediting one miner at a time.
    #[inline]
    pub fn apply_split(&mut self, alloc: &[f64], compounds: bool, withholding: bool) {
        debug_assert_eq!(alloc.len(), self.stakes.len());
        let mut total = 0.0;
        for (i, &r) in alloc.iter().enumerate() {
            total += r;
            self.earned[i] += r;
            if compounds {
                if withholding {
                    self.pending[i] += r;
                } else {
                    self.stakes[i] += r;
                }
            }
        }
        self.earned_total += total;
        if compounds {
            self.power_total += total;
        }
    }

    /// Lands every pending reward in the effective stakes (a withholding
    /// period boundary). Total power is unchanged — the rewards were
    /// already counted when parked.
    #[inline]
    pub fn settle_pending(&mut self) {
        for (s, p) in self.stakes.iter_mut().zip(&mut self.pending) {
            *s += std::mem::take(p);
        }
    }

    /// Bulk state update for fused stepping kernels: hands `kernel` the
    /// stake and income columns to update in place, then accounts the
    /// `issued` reward total in one shot (the kernel owns the per-miner
    /// arithmetic; the running totals only back the invariant checks).
    #[inline]
    pub fn fused_update(&mut self, issued: f64, kernel: impl FnOnce(&mut [f64], &mut [f64])) {
        kernel(&mut self.stakes, &mut self.earned);
        self.earned_total += issued;
        self.power_total += issued;
    }

    /// Bulk income update for a non-compounding segment kernel: hands
    /// `kernel` the stake column to read and the income column to credit
    /// in place and, if it reports that it ran, accounts the `issued`
    /// reward total in one shot. Staking power does not change.
    #[inline]
    pub fn income_update(
        &mut self,
        issued: f64,
        kernel: impl FnOnce(&[f64], &mut [f64]) -> bool,
    ) -> bool {
        let ran = kernel(&self.stakes, &mut self.earned);
        if ran {
            self.earned_total += issued;
        }
        ran
    }
}

/// Which winner-selection law an [`AggregatedTailGame`] folds its tail
/// under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailKernel {
    /// Winner drawn proportionally to stake (the ML-PoS lottery). Folding
    /// the tail is **exact in law** for the tracked miner's trajectory:
    /// her win probability depends on the tail only through its total
    /// stake, and the total evolves deterministically (`+w` per step)
    /// whoever wins.
    Proportional,
    /// The SL-PoS uniform-ticket waiting-time race. The tail's minimum
    /// waiting time is sampled *exactly* via the order statistic of `k`
    /// uniforms at equal stakes (one draw: `min of k U(0,1)` has CDF
    /// `1 − (1 − x)^k`); rewards won by the tail are spread evenly across
    /// it. That even spread is the exchangeable mean-field approximation —
    /// exact at step 0 and standard for large `k`, where no individual
    /// tail miner compounds fast enough to matter on the horizons probed.
    SlPosRace,
}

/// A two-entity game: the tracked miner A versus `k` exchangeable
/// opponents folded into one pseudo-miner. O(1) state and O(1) RNG draws
/// per step regardless of `k`, which is what makes million-miner
/// monopolization-threshold sweeps interactive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedTailGame {
    kernel: TailKernel,
    reward: f64,
    stake_a: f64,
    tail_total: f64,
    tail_count: f64,
    earned_a: f64,
    steps: u64,
}

impl AggregatedTailGame {
    /// Starts a game where A holds `a` of the stake and `tail_count`
    /// exchangeable opponents split `1 − a` equally.
    ///
    /// # Panics
    /// Panics if `a ∉ (0, 1)`, `tail_count == 0`, or the reward is not
    /// positive.
    #[must_use]
    pub fn new(kernel: TailKernel, a: f64, tail_count: usize, reward: f64) -> Self {
        assert!(
            a > 0.0 && a < 1.0,
            "tracked share must be in (0,1), got {a}"
        );
        assert!(tail_count > 0, "tail needs at least one miner");
        assert!(
            reward.is_finite() && reward > 0.0,
            "block reward must be positive, got {reward}"
        );
        Self {
            kernel,
            reward,
            stake_a: a,
            tail_total: 1.0 - a,
            tail_count: tail_count as f64,
            earned_a: 0.0,
            steps: 0,
        }
    }

    /// A's current effective stake.
    #[must_use]
    pub fn stake_a(&self) -> f64 {
        self.stake_a
    }

    /// Completed steps.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// A's fraction of all issued rewards (0 before the first step).
    #[must_use]
    pub fn lambda_a(&self) -> f64 {
        let issued = self.steps as f64 * self.reward;
        if issued == 0.0 {
            0.0
        } else {
            (self.earned_a / issued).clamp(0.0, 1.0)
        }
    }

    /// Advances one block: draws the winner under the kernel's law and
    /// compounds the reward (into A's stake or evenly across the tail).
    #[inline]
    pub fn step(&mut self, rng: &mut Xoshiro256StarStar) {
        let a_wins = match self.kernel {
            TailKernel::Proportional => {
                let total = self.stake_a + self.tail_total;
                rng.next_f64() * total < self.stake_a
            }
            TailKernel::SlPosRace => {
                // A's ticket, then one order-statistic draw standing in for
                // the whole tail: min of k U(0,1) inverted from a single
                // uniform.
                let t_a = rng.next_f64() / self.stake_a;
                let per_miner = self.tail_total / self.tail_count;
                let min_u = 1.0 - (1.0 - rng.next_f64()).powf(1.0 / self.tail_count);
                t_a < min_u / per_miner
            }
        };
        if a_wins {
            self.earned_a += self.reward;
            self.stake_a += self.reward;
        } else {
            self.tail_total += self.reward;
        }
        self.steps += 1;
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64, rng: &mut Xoshiro256StarStar) {
        for _ in 0..n {
            self.step(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::MiningGame;
    use crate::miner::paper_multi_miner;
    use crate::protocols::{MlPos, SlPos};

    #[test]
    fn ledger_tracks_running_totals() {
        let mut ledger = StakeLedger::new(&[0.2, 0.3, 0.5]);
        assert_eq!(ledger.len(), 3);
        assert!((ledger.power_total() - 1.0).abs() < 1e-12);
        ledger.credit_income(1, 0.01);
        ledger.compound(1, 0.01);
        assert!((ledger.earned_total() - 0.01).abs() < 1e-15);
        assert!((ledger.power_total() - 1.01).abs() < 1e-12);
        assert!((ledger.stake(1) - 0.31).abs() < 1e-12);
        ledger.pend(0, 0.02);
        assert!((ledger.power_total() - 1.03).abs() < 1e-12);
        assert!((ledger.stake(0) - 0.2).abs() < 1e-12, "pending not staked");
        ledger.settle_pending();
        assert!((ledger.stake(0) - 0.22).abs() < 1e-12);
        assert!((ledger.power_total() - 1.03).abs() < 1e-12, "unchanged");
    }

    #[test]
    fn split_batches_like_single_credits() {
        let alloc = [0.004, 0.001, 0.005];
        let mut batched = StakeLedger::new(&[0.2, 0.3, 0.5]);
        batched.apply_split(&alloc, true, false);
        let mut single = StakeLedger::new(&[0.2, 0.3, 0.5]);
        for (i, &r) in alloc.iter().enumerate() {
            single.credit_income(i, r);
            single.compound(i, r);
        }
        for i in 0..3 {
            assert_eq!(batched.stake(i).to_bits(), single.stake(i).to_bits());
            assert_eq!(batched.earned(i).to_bits(), single.earned(i).to_bits());
        }
    }

    /// The proportional kernel's aggregation is exact in law: the mean
    /// final λ_A of the folded game matches the full m-miner ML-PoS game.
    #[test]
    fn proportional_tail_matches_full_game_in_distribution() {
        let (m, a, w, horizon, reps) = (15usize, 0.2, 0.05, 400u64, 600usize);
        let shares = paper_multi_miner(m, a);
        let mut full_sum = 0.0;
        let mut folded_sum = 0.0;
        for rep in 0..reps {
            let mut rng = Xoshiro256StarStar::new(1000 + rep as u64);
            let mut game = MiningGame::new(MlPos::new(w), &shares);
            game.run(horizon, &mut rng);
            full_sum += game.lambda(0);
            let mut rng = Xoshiro256StarStar::new(50_000 + rep as u64);
            let mut folded = AggregatedTailGame::new(TailKernel::Proportional, a, m - 1, w);
            folded.run(horizon, &mut rng);
            folded_sum += folded.lambda_a();
        }
        let full = full_sum / reps as f64;
        let folded = folded_sum / reps as f64;
        // Expectational fairness pins both means at a; agreement well
        // inside Monte-Carlo noise.
        assert!(
            (full - folded).abs() < 0.03,
            "full {full} vs folded {folded}"
        );
    }

    /// The SL-PoS race kernel's order-statistic draw reproduces the full
    /// race's first-step win probability for A (where aggregation is
    /// exact — every tail miner still holds the same stake).
    #[test]
    fn slpos_tail_matches_first_step_win_probability() {
        let (m, a) = (10usize, 0.2);
        let shares = paper_multi_miner(m, a);
        let n = 120_000;
        let mut rng = Xoshiro256StarStar::new(7);
        let mut full_wins = 0u64;
        for _ in 0..n {
            if SlPos::sample_winner(&shares, &mut rng) == 0 {
                full_wins += 1;
            }
        }
        let mut rng = Xoshiro256StarStar::new(8);
        let mut folded_wins = 0u64;
        for _ in 0..n {
            let mut g = AggregatedTailGame::new(TailKernel::SlPosRace, a, m - 1, 0.01);
            g.step(&mut rng);
            if g.lambda_a() > 0.5 {
                folded_wins += 1;
            }
        }
        let full = full_wins as f64 / n as f64;
        let folded = folded_wins as f64 / n as f64;
        assert!(
            (full - folded).abs() < 0.01,
            "full {full} vs folded {folded}"
        );
    }

    /// The same tracked share fares better against many small opponents
    /// than against a few large ones — the SL-PoS scale-dependence the
    /// aggregated game exists to expose (the uniform-ticket race handicaps
    /// a miner by their largest rival, not by total opposing stake).
    #[test]
    fn fragmented_opposition_helps_fixed_share() {
        let mean_lambda = |k: usize| {
            let reps = 200;
            let mut sum = 0.0;
            for rep in 0..reps {
                let mut rng = Xoshiro256StarStar::new(42 + rep);
                let mut g = AggregatedTailGame::new(TailKernel::SlPosRace, 0.05, k, 0.01);
                g.run(20_000, &mut rng);
                sum += g.lambda_a();
            }
            sum / reps as f64
        };
        let few = mean_lambda(4); // A (0.05) vs 4 × 0.2375 each
        let many = mean_lambda(200); // A vs 200 × 0.00475 each
        assert!(
            many > 2.0 * few && many > few + 0.03,
            "a 5% miner must fare much better against 200 tiny opponents \
             ({many}) than against 4 large ones ({few})"
        );
    }

    #[test]
    #[should_panic(expected = "tracked share")]
    fn degenerate_share_rejected() {
        let _ = AggregatedTailGame::new(TailKernel::Proportional, 1.0, 5, 0.01);
    }
}

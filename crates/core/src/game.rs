//! The mining game engine (Section 3.1's model, executable).
//!
//! A [`MiningGame`] holds the per-miner staking powers and cumulative
//! earnings, steps a protocol forward one block/epoch at a time, and
//! maintains the invariants of the paper's model:
//!
//! * initial stakes sum to 1 (Assumption 2);
//! * each step issues exactly `reward_per_step` (Assumption 3);
//! * miners take no actions (Assumption 4) — the only state change is the
//!   protocol's reward allocation;
//! * for compounding protocols, total staking power after `n` steps is
//!   `1 + n·w` (checked in debug builds);
//! * with a withholding schedule, rewards count toward income immediately
//!   but join staking power only at period boundaries (Section 6.3).

use crate::ledger::StakeLedger;
use crate::protocol::{IncentiveProtocol, StepLaw, StepOutcome, StepRewardsView};
use crate::trajectory::Trajectory;
use crate::withholding::WithholdingSchedule;
use fairness_stats::rng::Xoshiro256StarStar;

mod lanes;

pub use lanes::LANES;

/// A running mining game.
#[derive(Debug, Clone)]
pub struct MiningGame<P: IncentiveProtocol> {
    protocol: P,
    /// Struct-of-arrays per-miner state: effective stakes, pending
    /// (withheld) rewards, and cumulative income as flat columns, with
    /// running totals so the model invariants cost O(1) per step instead
    /// of an O(m) re-summation.
    ledger: StakeLedger,
    /// Completed steps.
    steps: u64,
    /// Optional reward-withholding schedule.
    withholding: Option<WithholdingSchedule>,
    /// Reusable step output + protocol scratch: the reason the stepping
    /// loop performs zero steady-state heap allocations.
    outcome: StepOutcome,
    /// [`IncentiveProtocol::reward_per_step`], cached at construction so
    /// type-erased protocols cost no virtual call per step.
    reward_per_step: f64,
    /// [`IncentiveProtocol::rewards_compound`], cached likewise.
    compounds: bool,
}

impl<P: IncentiveProtocol> MiningGame<P> {
    /// Starts a game from normalized initial shares.
    ///
    /// # Panics
    /// Panics if `initial_shares` is invalid (empty, negative entries, zero
    /// sum).
    #[must_use]
    pub fn new(protocol: P, initial_shares: &[f64]) -> Self {
        let ledger = StakeLedger::new(initial_shares);
        let reward_per_step = protocol.reward_per_step();
        let compounds = protocol.rewards_compound();
        Self {
            protocol,
            ledger,
            steps: 0,
            withholding: None,
            outcome: StepOutcome::new(),
            reward_per_step,
            compounds,
        }
    }

    /// Enables reward withholding.
    #[must_use]
    pub fn with_withholding(mut self, schedule: WithholdingSchedule) -> Self {
        self.withholding = Some(schedule);
        self
    }

    /// The protocol under test.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Number of miners.
    #[must_use]
    pub fn miner_count(&self) -> usize {
        self.ledger.len()
    }

    /// Completed steps.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Effective staking power of miner `i`.
    #[must_use]
    pub fn stake(&self, i: usize) -> f64 {
        self.ledger.stake(i)
    }

    /// Cumulative income of miner `i`.
    #[must_use]
    pub fn earned(&self, i: usize) -> f64 {
        self.ledger.earned(i)
    }

    /// The full stake column — borrow instead of `m` calls to
    /// [`stake`](Self::stake) when computing decentralization metrics over
    /// large populations.
    #[must_use]
    pub fn stakes(&self) -> &[f64] {
        self.ledger.stakes()
    }

    /// The full income column, likewise.
    #[must_use]
    pub fn earned_column(&self) -> &[f64] {
        self.ledger.earned_column()
    }

    /// Total reward issued so far.
    #[must_use]
    pub fn total_issued(&self) -> f64 {
        self.steps as f64 * self.reward_per_step
    }

    /// The paper's `λ_i`: miner `i`'s fraction of all issued rewards.
    /// Zero before the first step.
    ///
    /// Clamped to `[0, 1]`: summing per-step rewards can land one ulp above
    /// the product `n·w`, and downstream fairness checks rely on λ being a
    /// genuine fraction.
    #[must_use]
    pub fn lambda(&self, i: usize) -> f64 {
        let issued = self.total_issued();
        if issued == 0.0 {
            0.0
        } else {
            (self.ledger.earned(i) / issued).clamp(0.0, 1.0)
        }
    }

    /// Advances one step.
    ///
    /// The hot path: the protocol writes its allocation into the game's
    /// reusable [`StepOutcome`], so a steady-state step allocates nothing
    /// on the heap (pinned by `tests/alloc_count.rs` for every base
    /// protocol).
    #[inline]
    pub fn step(&mut self, rng: &mut Xoshiro256StarStar) {
        self.protocol
            .step_into(self.ledger.stakes(), self.steps, rng, &mut self.outcome);
        let total = self.reward_per_step;
        let is_split = match self.outcome.view() {
            StepRewardsView::Winner(w) => {
                self.ledger.credit_income(w, total);
                if self.compounds {
                    if self.withholding.is_some() {
                        self.ledger.pend(w, total);
                    } else {
                        self.ledger.compound(w, total);
                        // Keep the incremental stake sampler (if the
                        // protocol draws through one) in sync.
                        self.outcome
                            .note_weight_increment(self.ledger.stakes(), w, total);
                    }
                }
                false
            }
            StepRewardsView::Split(alloc) => {
                assert_eq!(
                    alloc.len(),
                    self.ledger.len(),
                    "protocol returned wrong allocation length"
                );
                // A sum check alone is not enough: entries like
                // `[w + 1, -1]` cancel to the right total while crediting
                // impossible (negative) income, which silently corrupts λ
                // and staking power. Reject entry-wise first.
                debug_assert!(
                    alloc.iter().all(|r| r.is_finite() && *r >= 0.0),
                    "allocation entries must be finite and non-negative: {alloc:?}"
                );
                debug_assert!(
                    (alloc.iter().sum::<f64>() - total).abs() < 1e-9,
                    "allocation must sum to the step reward"
                );
                self.ledger
                    .apply_split(alloc, self.compounds, self.withholding.is_some());
                true
            }
        };
        // A compounding split restakes every entry at once — a bulk stake
        // change, so a live stake sampler (from an earlier winner-style
        // draw) would be stale. Done after the match so the allocation
        // view is released first.
        if is_split && self.compounds && self.withholding.is_none() {
            self.outcome.invalidate_weights();
        }
        self.steps += 1;
        if let Some(schedule) = self.withholding {
            if schedule.takes_effect_after(self.steps) {
                self.ledger.settle_pending();
                // Pending rewards just landed in bulk.
                self.outcome.invalidate_weights();
            }
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Runs `n` steps.
    ///
    /// Bare SL-PoS segments (the dominant cost of the paper's sweeps)
    /// with every stake positive and no withholding take a fused kernel
    /// over the ledger's columns: the software-pipelined
    /// `run_slpos_two_miner` at two miners, `run_slpos_race` at three or
    /// more. A game that does not compound and withholds nothing offers
    /// the segment to [`IncentiveProtocol::run_segment`] (the adversary
    /// adapter over PoW or NEO settles it in one loop). Outcomes are
    /// bit-identical to stepping one at a time.
    #[inline]
    pub fn run(&mut self, n: u64, rng: &mut Xoshiro256StarStar) {
        if let Some(reward) = self.fused_slpos_reward() {
            debug_assert_eq!(reward, self.reward_per_step);
            match self.ledger.len() {
                2 if n >= 2 => return self.run_slpos_two_miner(n, reward, rng),
                m if m >= 3 && n >= 1 => return self.run_slpos_race(n, reward, rng),
                _ => {}
            }
        } else if n > 0 && !self.compounds && self.withholding.is_none() {
            let (protocol, first) = (&mut self.protocol, self.steps);
            let issued = n as f64 * self.reward_per_step;
            if self.ledger.income_update(issued, |stakes, earned| {
                protocol.run_segment(stakes, first, n, rng, earned)
            }) {
                return self.finish_fused(n);
            }
        }
        for _ in 0..n {
            self.step(rng);
        }
    }

    /// The block reward, when the fused SL-PoS kernels may run this game:
    /// the bare SL-PoS step law, no withholding, and every stake positive
    /// (so every miner draws a ticket, and stays positive under
    /// compounding).
    fn fused_slpos_reward(&self) -> Option<f64> {
        if self.withholding.is_some() {
            return None;
        }
        let Some(StepLaw::SlPosRace { reward }) = self.protocol.step_law() else {
            return None;
        };
        self.ledger
            .stakes()
            .iter()
            .all(|&s| s > 0.0)
            .then_some(reward)
    }

    /// The fused two-miner SL-PoS stepping kernel.
    ///
    /// The naive step chain is latency-bound: the winner's compounded
    /// stake is the divisor of their next waiting time, so every step
    /// serializes draw → divide → compare → add. This kernel draws the
    /// *next* step's uniforms one step early and divides them by **both**
    /// candidate divisors (`s` and `s + w`) while the current comparison
    /// resolves — four divisions per step instead of two, but off the
    /// critical path, cutting per-step latency roughly in half.
    ///
    /// Bit-identical to repeated [`step`](Self::step): the uniforms are
    /// drawn in the same global order (two per step, outcome-independent),
    /// the selected quotient is the same `fl(u / fl(s [+ w]))` the naive
    /// path computes, the strict `t_b < t_a` comparison is unchanged, and
    /// adding `0.0` to the loser's positive earnings/stake is exact.
    /// Pinned by the `fused_kernel_matches_single_steps` test.
    fn run_slpos_two_miner(&mut self, n: u64, w: f64, rng: &mut Xoshiro256StarStar) {
        self.ledger.fused_update(n as f64 * w, |stakes, earned| {
            let (mut s0, mut s1) = (stakes[0], stakes[1]);
            let (mut e0, mut e1) = (earned[0], earned[1]);
            // Prologue: this step's waiting times.
            let mut ta = rng.next_f64() / s0;
            let mut tb = rng.next_f64() / s1;
            for _ in 0..n - 1 {
                // Speculate the next step's quotients for both possible
                // winners before resolving the current comparison.
                let v0 = rng.next_f64();
                let v1 = rng.next_f64();
                let c0_keep = v0 / s0;
                let c0_grow = v0 / (s0 + w);
                let c1_keep = v1 / s1;
                let c1_grow = v1 / (s1 + w);
                let win1 = tb < ta;
                let (add0, add1) = if win1 { (0.0, w) } else { (w, 0.0) };
                e0 += add0;
                e1 += add1;
                s0 += add0;
                s1 += add1;
                ta = if win1 { c0_keep } else { c0_grow };
                tb = if win1 { c1_grow } else { c1_keep };
            }
            // Epilogue: resolve the last step.
            let win1 = tb < ta;
            let (add0, add1) = if win1 { (0.0, w) } else { (w, 0.0) };
            [stakes[0], stakes[1]] = [s0 + add0, s1 + add1];
            [earned[0], earned[1]] = [e0 + add0, e1 + add1];
        });
        self.finish_fused(n);
    }

    /// The fused m-miner SL-PoS stepping kernel (m ≥ 3).
    ///
    /// Each step draws the m tickets in miner order, divides each by its
    /// miner's stake, and takes the strict first-index argmin with
    /// selects instead of branches, so an unpredictable winner costs no
    /// mispredicted jump; then it compounds the winner in place. No
    /// protocol dispatch, [`StepOutcome`] or per-step ledger bookkeeping.
    ///
    /// Bit-identical to repeated [`step`](Self::step): with every stake
    /// positive the generic race draws the same m uniforms in the same
    /// order, computes the same `fl(u / s)` quotients, and keeps the
    /// earlier miner on ties (`t < best` strictly), and the winner's stake
    /// and income grow by the same `+ w`. Pinned by the
    /// `race_kernel_matches_single_steps` test. (Seeding miner 0 outside
    /// the loop measured about a quarter slower at m = 3: LLVM then loads
    /// the first two stakes as one 16-byte vector, which the previous
    /// step's 8-byte stake store cannot forward to.)
    fn run_slpos_race(&mut self, n: u64, w: f64, rng: &mut Xoshiro256StarStar) {
        self.ledger.fused_update(n as f64 * w, |stakes, earned| {
            for _ in 0..n {
                // Seeding with +∞ under the strict `<` picks miner 0's
                // quotient exactly as the generic race's unconditional
                // seed does, and keeps all m draws in one loop body.
                let mut best_t = f64::INFINITY;
                let mut best_i = 0;
                for (i, &s) in stakes.iter().enumerate() {
                    let t = rng.next_f64() / s;
                    let better = t < best_t;
                    best_t = if better { t } else { best_t };
                    best_i = if better { i } else { best_i };
                }
                stakes[best_i] += w;
                earned[best_i] += w;
            }
        });
        self.finish_fused(n);
    }

    /// How many games like this one [`run_batch`](Self::run_batch) steps
    /// at once: [`LANES`] when it would step them in the lane kernel
    /// (see there), 1 otherwise. A Monte-Carlo runner sizes its chunks of
    /// repetitions by this.
    #[must_use]
    pub fn batch_width(&self) -> usize {
        if self.lane_reward().is_some() && lanes::available() {
            LANES
        } else {
            1
        }
    }

    /// Runs every game `n` steps, game `k` drawing from `rngs[k]`: bit for
    /// bit what `games[k].run(n, &mut rngs[k])` does for each `k`. Returns
    /// how many of the games the lane kernel stepped.
    ///
    /// On an AVX-512F+DQ host, games the fused SL-PoS kernels may run
    /// (bare SL-PoS, no withholding, every stake positive) with 2 to 64
    /// miners step [`LANES`] at a time in lockstep, one game per vector
    /// lane, when they all share one miner count and one step count and
    /// stay in the kernel's range for `n` steps (every stake at least
    /// 2⁻⁵⁰⁰, and at most 2⁵⁰⁰ once `n` rewards are added). Each lane
    /// keeps its own generator and picks the scalar race's winner, so
    /// stakes, incomes, step counts and generators end bit-identical to
    /// per-game `run`. A group of one game (the tail of a batch) runs per
    /// game, and so does a group of two outside m = 3 to 5: one game
    /// always steps faster alone than a full vector does, and two step
    /// faster in lanes only where the scalar race is slowest and the
    /// kernel keeps their columns in registers. Other batches, and every
    /// batch on another host, run per game too.
    ///
    /// # Panics
    /// Panics if `games` and `rngs` differ in length.
    pub fn run_batch(games: &mut [Self], n: u64, rngs: &mut [Xoshiro256StarStar]) -> usize {
        assert_eq!(games.len(), rngs.len(), "one generator per game");
        let fit = n > 0 && lanes::available() && Self::lanes_fit(games, n);
        let mut in_lanes = 0;
        for (games, rngs) in games.chunks_mut(LANES).zip(rngs.chunks_mut(LANES)) {
            if fit && games.len() >= lanes::fewest_games(games[0].ledger.len()) {
                Self::run_lanes(games, n, rngs);
                in_lanes += games.len();
            } else {
                for (game, rng) in games.iter_mut().zip(rngs) {
                    game.run(n, rng);
                }
            }
        }
        in_lanes
    }

    /// The block reward, when the lane kernel may step this game: the
    /// fused kernels may, and it has 2 to 64 miners.
    fn lane_reward(&self) -> Option<f64> {
        if (2..=lanes::MAX_MINERS).contains(&self.ledger.len()) {
            self.fused_slpos_reward()
        } else {
            None
        }
    }

    /// Whether a non-empty batch may take `n` steps in lanes: every game
    /// may and stays in the kernel's range, and all share the first one's
    /// miner count and step count.
    fn lanes_fit(games: &[Self], n: u64) -> bool {
        let Some(first) = games.first() else {
            return false;
        };
        games.iter().all(|g| {
            g.lane_reward()
                .is_some_and(|w| lanes::in_range(g.stakes().iter().copied(), w, n))
                && g.ledger.len() == first.ledger.len()
                && g.steps == first.steps
        })
    }

    /// The lane kernel over up to [`LANES`] games that [`lanes_fit`](Self::lanes_fit):
    /// loads each game's generator, stakes and incomes into its lane,
    /// steps all lanes `n` times, and stores them back, accounting the
    /// issued rewards as the fused kernels do.
    fn run_lanes(games: &mut [Self], n: u64, rngs: &mut [Xoshiro256StarStar]) {
        debug_assert!(!games.is_empty() && games.len() <= LANES);
        let mut batch = lanes::Batch::new(games[0].ledger.len());
        for lane in 0..LANES {
            // Lanes past the games step copies of game 0, never stored.
            let k = if lane < games.len() { lane } else { 0 };
            let game = &games[k];
            for (word, w) in batch.rng.iter_mut().zip(rngs[k].state()) {
                word[lane] = w;
            }
            batch.reward[lane] = game.lane_reward().expect("checked by lanes_fit");
            for (i, (&s, &e)) in game.stakes().iter().zip(game.earned_column()).enumerate() {
                batch.stakes[i][lane] = s;
                batch.earned[i][lane] = e;
            }
        }
        batch.run(n);
        for (lane, (game, rng)) in games.iter_mut().zip(rngs).enumerate() {
            *rng = Xoshiro256StarStar::from_state(batch.rng.map(|word| word[lane]));
            let issued = n as f64 * batch.reward[lane];
            game.ledger.fused_update(issued, |stakes, earned| {
                for (i, (s, e)) in stakes.iter_mut().zip(earned).enumerate() {
                    *s = batch.stakes[i][lane];
                    *e = batch.earned[i][lane];
                }
            });
            game.finish_fused(n);
        }
    }

    /// Bookkeeping after a fused or segment kernel has advanced `n`
    /// steps.
    fn finish_fused(&mut self, n: u64) {
        self.steps += n;
        // Bulk stake change relative to anything a live sampler mirrors.
        self.outcome.invalidate_weights();
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Runs to `horizon` steps, recording miner 0's λ at each checkpoint.
    ///
    /// # Panics
    /// Panics if checkpoints are not strictly ascending or exceed the
    /// horizon, or the game has already advanced beyond the first
    /// checkpoint.
    pub fn run_with_checkpoints(
        &mut self,
        checkpoints: &[u64],
        rng: &mut Xoshiro256StarStar,
    ) -> Trajectory {
        // Track only miner 0: O(1) work per checkpoint rather than the
        // O(m) column materialization of
        // [`run_with_checkpoints_all`](Self::run_with_checkpoints_all),
        // which at m = 10⁶ would dwarf the stepping itself.
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoints must be strictly ascending"
        );
        let mut values = Vec::with_capacity(checkpoints.len());
        for &cp in checkpoints {
            assert!(
                cp >= self.steps,
                "checkpoint {cp} is before current step {}",
                self.steps
            );
            self.run(cp - self.steps, rng);
            values.push(self.lambda(0));
        }
        Trajectory {
            checkpoints: checkpoints.to_vec(),
            values,
        }
    }

    /// Runs to the last checkpoint, recording **every** miner's λ at each
    /// checkpoint; returns one trajectory per miner.
    ///
    /// # Panics
    /// Panics under the same conditions as
    /// [`run_with_checkpoints`](Self::run_with_checkpoints).
    pub fn run_with_checkpoints_all(
        &mut self,
        checkpoints: &[u64],
        rng: &mut Xoshiro256StarStar,
    ) -> Vec<Trajectory> {
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoints must be strictly ascending"
        );
        let m = self.miner_count();
        let mut values: Vec<Vec<f64>> = vec![Vec::with_capacity(checkpoints.len()); m];
        for &cp in checkpoints {
            assert!(
                cp >= self.steps,
                "checkpoint {cp} is before current step {}",
                self.steps
            );
            self.run(cp - self.steps, rng);
            for (i, column) in values.iter_mut().enumerate() {
                column.push(self.lambda(i));
            }
        }
        values
            .into_iter()
            .map(|v| Trajectory {
                checkpoints: checkpoints.to_vec(),
                values: v,
            })
            .collect()
    }

    #[cfg(debug_assertions)]
    fn check_invariants(&self) {
        // O(1) per step via the ledger's running totals — the previous
        // O(m) re-summation made debug builds quadratic in miner count
        // per horizon, unusable at the populations `repro scale` probes.
        let issued = self.total_issued();
        let earned = self.ledger.earned_total();
        debug_assert!(
            (earned - issued).abs() < 1e-6 * (1.0 + issued),
            "earned {earned} != issued {issued}"
        );
        if self.compounds {
            let power = self.ledger.power_total();
            debug_assert!(
                (power - (1.0 + issued)).abs() < 1e-6 * (1.0 + issued),
                "staking power {power} != 1 + issued {issued}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{CPos, MlPos, Pow, SlPos};

    #[test]
    fn stake_conservation_mlpos() {
        let mut game = MiningGame::new(MlPos::new(0.01), &[0.2, 0.8]);
        let mut rng = Xoshiro256StarStar::new(1);
        game.run(500, &mut rng);
        let total: f64 = (0..2).map(|i| game.stake(i)).sum();
        assert!((total - (1.0 + 500.0 * 0.01)).abs() < 1e-9, "{total}");
        assert_eq!(game.steps(), 500);
    }

    #[test]
    fn lambda_sums_to_one() {
        let mut game = MiningGame::new(CPos::paper_default(), &[0.2, 0.3, 0.5]);
        let mut rng = Xoshiro256StarStar::new(2);
        game.run(100, &mut rng);
        let total: f64 = (0..3).map(|i| game.lambda(i)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn pow_stakes_never_change() {
        let mut game = MiningGame::new(Pow::new(&[0.2, 0.8], 0.01), &[0.2, 0.8]);
        let mut rng = Xoshiro256StarStar::new(3);
        game.run(200, &mut rng);
        assert!((game.stake(0) - 0.2).abs() < 1e-15);
        assert!((game.stake(1) - 0.8).abs() < 1e-15);
        assert!(game.earned(0) + game.earned(1) > 0.0);
    }

    #[test]
    fn lambda_zero_before_start() {
        let game = MiningGame::new(MlPos::new(0.01), &[0.5, 0.5]);
        assert_eq!(game.lambda(0), 0.0);
    }

    #[test]
    fn withholding_freezes_stakes_between_checkpoints() {
        let schedule = WithholdingSchedule::every(100);
        let mut game = MiningGame::new(MlPos::new(0.01), &[0.2, 0.8]).with_withholding(schedule);
        let mut rng = Xoshiro256StarStar::new(4);
        game.run(99, &mut rng);
        // Nothing effective yet: stakes still at initial values.
        assert!((game.stake(0) - 0.2).abs() < 1e-12);
        assert!((game.stake(1) - 0.8).abs() < 1e-12);
        // Income nonetheless accrued.
        assert!(game.earned(0) + game.earned(1) > 0.98 * 0.01 * 99.0);
        game.run(1, &mut rng);
        // At step 100 the pending rewards land.
        let total: f64 = (0..2).map(|i| game.stake(i)).sum();
        assert!((total - 2.0).abs() < 1e-9, "{total}"); // 1 + 100*0.01
    }

    #[test]
    fn checkpoint_trajectory() {
        let mut game = MiningGame::new(MlPos::new(0.01), &[0.2, 0.8]);
        let mut rng = Xoshiro256StarStar::new(5);
        let traj = game.run_with_checkpoints(&[10, 50, 100], &mut rng);
        assert_eq!(traj.checkpoints, vec![10, 50, 100]);
        assert_eq!(traj.values.len(), 3);
        assert!(traj.values.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(game.steps(), 100);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| {
            let mut game = MiningGame::new(SlPos::new(0.01), &[0.2, 0.8]);
            let mut rng = Xoshiro256StarStar::new(seed);
            game.run(200, &mut rng);
            (game.earned(0), game.stake(0))
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// A broken protocol whose `Split` cancels to the right total through
    /// a negative entry — regression guard for the invariant check.
    #[derive(Debug, Clone)]
    struct NegativeSplit;

    impl IncentiveProtocol for NegativeSplit {
        fn name(&self) -> &'static str {
            "negative-split"
        }

        fn reward_per_step(&self) -> f64 {
            0.01
        }

        fn params(&self) -> Vec<f64> {
            Vec::new()
        }

        fn step_into(
            &mut self,
            _: &[f64],
            _: u64,
            _: &mut Xoshiro256StarStar,
            out: &mut StepOutcome,
        ) {
            // Sums to exactly 0.01 — only the entry-wise check catches it.
            out.split_slots(2).copy_from_slice(&[1.01, -1.0]);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn split_with_negative_entries_rejected_in_debug() {
        let mut game = MiningGame::new(NegativeSplit, &[0.5, 0.5]);
        let mut rng = Xoshiro256StarStar::new(1);
        game.step(&mut rng);
    }

    /// A broken protocol that skims reward: entries are valid but do not
    /// sum to the step reward.
    #[derive(Debug, Clone)]
    struct ShortSplit;

    impl IncentiveProtocol for ShortSplit {
        fn name(&self) -> &'static str {
            "short-split"
        }

        fn reward_per_step(&self) -> f64 {
            0.01
        }

        fn params(&self) -> Vec<f64> {
            Vec::new()
        }

        fn step_into(
            &mut self,
            _: &[f64],
            _: u64,
            _: &mut Xoshiro256StarStar,
            out: &mut StepOutcome,
        ) {
            out.split_slots(2).copy_from_slice(&[0.004, 0.004]);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sum to the step reward")]
    fn split_that_skims_reward_rejected_in_debug() {
        let mut game = MiningGame::new(ShortSplit, &[0.5, 0.5]);
        let mut rng = Xoshiro256StarStar::new(1);
        game.step(&mut rng);
    }

    #[test]
    fn fused_kernel_matches_single_steps() {
        // The software-pipelined SL-PoS kernel must be bit-identical to
        // stepping one block at a time, for any segment length and
        // across segment boundaries.
        for n in [1u64, 2, 3, 7, 64, 1000] {
            assert_run_matches_steps(
                || MiningGame::new(SlPos::new(0.01), &[0.2, 0.8]),
                &[n, n / 2 + 1],
                "m=2",
            );
        }
    }

    /// Runs `segments` through [`MiningGame::run`] and the same total one
    /// [`MiningGame::step`] at a time from the same seed, and asserts
    /// bit-equal stakes and incomes and aligned RNG streams.
    fn assert_run_matches_steps(
        make: impl Fn() -> MiningGame<SlPos>,
        segments: &[u64],
        what: &str,
    ) {
        let mut fused = make();
        let mut fused_rng = Xoshiro256StarStar::new(97);
        for &n in segments {
            fused.run(n, &mut fused_rng);
        }
        let mut stepped = make();
        let mut step_rng = Xoshiro256StarStar::new(97);
        for _ in 0..segments.iter().sum::<u64>() {
            stepped.step(&mut step_rng);
        }
        assert_same_state(&fused, &stepped, &format!("{what}, segments {segments:?}"));
        assert_eq!(fused_rng, step_rng, "{what}: RNG streams must stay aligned");
    }

    #[test]
    fn race_kernel_matches_single_steps() {
        // The m-miner SL-PoS kernel must be bit-identical to stepping one
        // block at a time, for any miner count, any segment length and
        // across segment boundaries.
        for m in [3usize, 4, 5, 10, 40] {
            let shares = crate::miner::paper_multi_miner(m, 0.2);
            for segments in [&[1u64][..], &[2, 1, 3], &[7, 64], &[1000, 1, 999]] {
                assert_run_matches_steps(
                    || MiningGame::new(SlPos::new(0.01), &shares),
                    segments,
                    &format!("m={m}"),
                );
            }
        }
    }

    #[test]
    fn fused_kernel_not_used_with_withholding_or_zero_stakes() {
        // Withholding and zero-stake games must keep the generic path and
        // stay correct (the fused gate rejects them): a kernel would
        // compound at once, or draw a ticket for the zero-stake miner and
        // shift the RNG stream, so bit-equality with single steps shows
        // the generic path ran.
        for shares in [vec![0.2, 0.8], vec![0.2, 0.3, 0.5], vec![0.1; 10]] {
            let m = shares.len();
            let schedule = WithholdingSchedule::every(10);
            let mut game = MiningGame::new(SlPos::new(0.01), &shares).with_withholding(schedule);
            let mut rng = Xoshiro256StarStar::new(5);
            game.run(9, &mut rng);
            assert!(
                (game.stake(0) - shares[0]).abs() < 1e-12,
                "withholding pends"
            );
            assert_run_matches_steps(
                || MiningGame::new(SlPos::new(0.01), &shares).with_withholding(schedule),
                &[9, 30, 1],
                &format!("withholding, m={m}"),
            );

            let mut zero_first = shares.clone();
            zero_first[0] = 0.0;
            let mut game = MiningGame::new(SlPos::new(0.01), &zero_first);
            let mut rng = Xoshiro256StarStar::new(5);
            game.run(50, &mut rng);
            assert_eq!(game.earned(0), 0.0, "zero-stake miner never wins");
            assert_run_matches_steps(
                || MiningGame::new(SlPos::new(0.01), &zero_first),
                &[50, 2, 20],
                &format!("zero stake, m={m}"),
            );
        }
    }

    /// Asserts bit-equal stakes and incomes and equal step counts.
    fn assert_same_state<P: IncentiveProtocol>(a: &MiningGame<P>, b: &MiningGame<P>, what: &str) {
        assert_eq!(a.miner_count(), b.miner_count(), "{what}: miner count");
        for i in 0..a.miner_count() {
            assert_eq!(
                a.stake(i).to_bits(),
                b.stake(i).to_bits(),
                "{what}: stake[{i}] diverged"
            );
            assert_eq!(
                a.earned(i).to_bits(),
                b.earned(i).to_bits(),
                "{what}: earned[{i}] diverged"
            );
        }
        assert_eq!(a.steps(), b.steps(), "{what}: step count");
    }

    /// Runs `segments` through [`MiningGame::run_batch`] over `games`,
    /// game `k` on seed `97 + k`, and each game through its own `run`
    /// from the same seed; asserts the same state and generator per game
    /// and returns how many games the lane kernel stepped per segment
    /// (the same count for every segment).
    fn assert_batch_matches_runs<P: IncentiveProtocol + Clone>(
        games: &[MiningGame<P>],
        segments: &[u64],
        what: &str,
    ) -> usize {
        let mut batch = games.to_vec();
        let mut rngs: Vec<_> = (0..games.len())
            .map(|k| Xoshiro256StarStar::new(97 + k as u64))
            .collect();
        let counts: Vec<usize> = segments
            .iter()
            .map(|&n| MiningGame::run_batch(&mut batch, n, &mut rngs))
            .collect();
        let in_lanes = counts[0];
        assert!(counts.iter().all(|&c| c == in_lanes), "{what}: {counts:?}");
        for (k, (game, rng)) in batch.iter().zip(&rngs).enumerate() {
            let mut single = games[k].clone();
            let mut single_rng = Xoshiro256StarStar::new(97 + k as u64);
            for &n in segments {
                single.run(n, &mut single_rng);
            }
            let what = format!("{what}, game {k}, segments {segments:?}");
            assert_same_state(game, &single, &what);
            assert_eq!(rng, &single_rng, "{what}: generator diverged");
        }
        in_lanes
    }

    #[test]
    fn lane_kernel_matches_per_game_runs() {
        // Every batch size from one game to a full vector, across the
        // segment lists of `race_kernel_matches_single_steps`: each lane
        // must end where its game's own `run` does.
        let available = lanes::available();
        for m in [2usize, 3, 4, 5, 10, 40] {
            let shares = crate::miner::paper_multi_miner(m, 0.2);
            for count in 1..=LANES {
                let games = vec![MiningGame::new(SlPos::new(0.01), &shares); count];
                assert_eq!(games[0].batch_width(), if available { LANES } else { 1 });
                for segments in [&[1u64][..], &[2, 1, 3], &[7, 64], &[1000, 1, 999]] {
                    let in_lanes = assert_batch_matches_runs(
                        &games,
                        segments,
                        &format!("m={m}, {count} games"),
                    );
                    let fewest = if (3..=5).contains(&m) { 2 } else { 3 };
                    let want = if available && count >= fewest {
                        count
                    } else {
                        0
                    };
                    assert_eq!(in_lanes, want, "m={m}, {count} games");
                }
            }
        }
        let path = if available {
            "the lane kernel from two games up at m = 3 to 5 and three elsewhere, per-game runs below"
        } else {
            "per-game runs (no AVX-512F+DQ on this host)"
        };
        println!("eligible SL-PoS batches stepped through {path}");
    }

    #[test]
    fn lane_batches_wider_than_a_vector_step_in_chunks() {
        let available = lanes::available();
        let shares = [0.2, 0.3, 0.5];
        // 19 = 8 + 8 + 3 and, at m = 3, 18 = 8 + 8 + 2 games all step in
        // lanes; 17 = 8 + 8 + 1 leaves the last game to its own `run`.
        for (count, want) in [(19, 19), (18, 18), (17, 16)] {
            let games = vec![MiningGame::new(SlPos::new(0.01), &shares); count];
            let in_lanes = assert_batch_matches_runs(&games, &[5, 40], &format!("{count} games"));
            assert_eq!(in_lanes, if available { want } else { 0 });
        }
    }

    #[test]
    fn ineligible_batches_take_the_per_game_path() {
        let sl = |shares: &[f64]| MiningGame::new(SlPos::new(0.01), shares);
        let five = crate::miner::paper_multi_miner(5, 0.2);
        let mut zero_first = five.clone();
        zero_first[0] = 0.0;
        let mut behind = sl(&five);
        behind.run(3, &mut Xoshiro256StarStar::new(1));
        let cases = [
            (
                "withholding",
                vec![sl(&five).with_withholding(WithholdingSchedule::every(10)); 4],
            ),
            ("a zero stake", vec![sl(&five), sl(&zero_first), sl(&five)]),
            ("m = 65", vec![sl(&crate::miner::equal_shares(65)); 8]),
            (
                "mixed miner counts",
                vec![sl(&five), sl(&five), sl(&five), sl(&[0.2, 0.3, 0.5])],
            ),
            (
                "mixed step counts",
                vec![sl(&five), sl(&five), sl(&five), behind],
            ),
        ];
        for (what, games) in &cases {
            let in_lanes = assert_batch_matches_runs(games, &[7, 64], what);
            assert_eq!(in_lanes, 0, "{what}: took the lane kernel");
            println!("{what}: per-game runs");
        }
        assert_eq!(cases[0].1[0].batch_width(), 1);
        assert_eq!(cases[2].1[0].batch_width(), 1);
        // Other protocols never take it.
        let mlpos = vec![MiningGame::new(MlPos::new(0.01), &five); 8];
        assert_eq!(assert_batch_matches_runs(&mlpos, &[7, 64], "ml-pos"), 0);
        // Nor does a zero-step segment.
        let mut games = vec![sl(&five); 8];
        let mut rngs = vec![Xoshiro256StarStar::new(3); 8];
        assert_eq!(MiningGame::run_batch(&mut games, 0, &mut rngs), 0);
    }

    #[test]
    fn lane_range_guard_sends_extreme_stakes_per_game() {
        let tiny = f64::from_bits((1023 - 500) << 52); // 2⁻⁵⁰⁰
        let huge = f64::from_bits((1023 + 490) << 52); // 2⁴⁹⁰
        let in_lanes = if lanes::available() { 8 } else { 0 };
        let cases = [
            // The smallest stake admitted, and one just below it.
            ("a stake of 2⁻⁵⁰⁰", 0.01, tiny, &[7u64, 64][..], in_lanes),
            ("a stake below 2⁻⁵⁰⁰", 0.01, tiny / 2.0, &[7, 64], 0),
            // A reward of 2⁴⁹⁰ keeps every stake at most 2⁵⁰⁰ for 1000
            // steps, not for 2000.
            ("stakes below 2⁵⁰⁰", huge, 0.25, &[7, 993], in_lanes),
            ("stakes past 2⁵⁰⁰", huge, 0.25, &[2000], 0),
        ];
        for (what, w, first, segments, want) in cases {
            let shares = [first, 0.5, 0.5 - first];
            let games = vec![MiningGame::new(SlPos::new(w), &shares); 8];
            assert_eq!(games[0].stake(0), first, "{what}");
            let got = assert_batch_matches_runs(&games, segments, what);
            assert_eq!(got, want, "{what}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bad_checkpoints_rejected() {
        let mut game = MiningGame::new(MlPos::new(0.01), &[0.5, 0.5]);
        let mut rng = Xoshiro256StarStar::new(6);
        let _ = game.run_with_checkpoints(&[10, 10], &mut rng);
    }
}

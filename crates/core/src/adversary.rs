//! Adversarial mining strategies — fork-aware block withholding and
//! stake grinding, fully outside Assumption 4.
//!
//! The paper's fairness theorems assume passive miners; [`crate::strategies`]
//! relaxes that for cash-out and pooling, which still publish every block
//! immediately. This module drops the last passivity assumption: a
//! strategic miner may *withhold* blocks on a private branch and release
//! them to orphan honest work (Eyal–Sirer selfish mining), or *grind* the
//! lottery seed she controls after authoring a block (stake grinding on
//! single-lottery PoS).
//!
//! Three layers, each validated against the one below:
//!
//! 1. [`Strategy`] — the decision interface (extend-private / publish /
//!    adopt) with [`Honest`], [`SelfishMining`] and [`StakeGrinding`]
//!    implementations, and [`ForkAction::resolve`], the one statement of
//!    what an action does to the fork;
//! 2. [`ForkMachine`] — both branches since the fork point, settled by
//!    `resolve`. It is generic over what a branch holds: owner indices in
//!    [`run_fork_game`], a model-level driver over abstract
//!    block-discovery events validated against the Eyal–Sirer closed form
//!    in [`fairness_stats::dist::selfish_mining_relative_revenue`], and
//!    real blocks in the `chain-sim` crate's hash-level `ForkNetSim`;
//! 3. [`Adversary`] — an [`IncentiveProtocol`] adapter so adversarial
//!    configurations flow through the existing ensemble/`SweepCache`
//!    machinery unchanged.
//!
//! The fork MDP ([`crate::mdp::fork`]) builds its transition table from
//! the same `resolve`, so the optimal-withholding policy is solved for
//! exactly the rules the drivers play.

use crate::protocol::{protocol_tag, IncentiveProtocol, StepOutcome, StepRewardsView};
use fairness_stats::rng::Xoshiro256StarStar;
use std::collections::VecDeque;

/// What a strategic miner just observed (the triggering block is already
/// recorded in the [`ForkState`] handed alongside).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkEvent {
    /// The strategic miner found a block on her own branch.
    SelfBlock,
    /// An honest miner extended the public branch.
    PublicBlock,
}

/// A strategic miner's response to a [`ForkEvent`]. What it does to the
/// fork is [`resolve`](Self::resolve)'s to say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkAction {
    /// Keep the private branch hidden and keep mining on it.
    ExtendPrivate,
    /// Reveal the private branch: if longer than the public branch the
    /// network reorgs onto it (orphaning honest work); at equal length it
    /// opens a tip race in which a fraction γ of honest power mines on the
    /// attacker's tip; a shorter branch forfeits (same as adopting).
    Publish,
    /// Abandon the private branch and mine on the public tip.
    Adopt,
}

/// What a [`ForkAction`] does to the fork it acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// Nothing settles: the attacker keeps withholding, or has nothing to
    /// publish.
    Hold,
    /// Both branches are public at equal length: the tip race opens, or
    /// goes on.
    Race,
    /// The private branch settles and the public one is orphaned.
    Private,
    /// The public branch settles and the private one is orphaned.
    Public,
}

impl ForkAction {
    /// The fork rule: what this action does in `state`. [`ForkMachine`],
    /// chain-sim's fork network and the fork MDP all settle forks through
    /// it, so it is the one statement of what publishing and adopting do.
    #[must_use]
    pub fn resolve(self, state: ForkState) -> Resolution {
        match self {
            ForkAction::ExtendPrivate => Resolution::Hold,
            ForkAction::Adopt => Resolution::Public,
            ForkAction::Publish if state.private > state.public => Resolution::Private,
            ForkAction::Publish if state.private < state.public => Resolution::Public,
            ForkAction::Publish if state.private > 0 => Resolution::Race,
            ForkAction::Publish => Resolution::Hold,
        }
    }
}

/// Fork state visible to a [`Strategy`] when deciding, *after* the
/// triggering block has been appended to its branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkState {
    /// Attacker blocks on the private branch since the fork point.
    pub private: u64,
    /// Honest blocks on the public branch since the fork point.
    pub public: u64,
    /// Whether the attacker's branch is published at equal length — an
    /// active tip race.
    pub published: bool,
}

/// A strategic block-release policy for one miner (the paper's "actions",
/// forbidden by Assumption 4).
///
/// Implementations must be pure functions of the handed state so that
/// simulations stay deterministic per seed.
pub trait Strategy: Send + Sync {
    /// Strategy name for reports and cache keys.
    fn name(&self) -> &'static str;

    /// Decides the response to `event` given the current fork state.
    fn decide(&self, state: ForkState, event: ForkEvent) -> ForkAction;

    /// Fraction of honest mining power that works on the attacker's tip
    /// during a published equal-length race (Eyal–Sirer's γ).
    fn gamma(&self) -> f64 {
        0.0
    }

    /// Number of lottery-seed candidates the miner evaluates when she
    /// authored the tip she mines on (`1` = no grinding).
    fn grinding_tries(&self) -> u32 {
        1
    }

    /// Number of Sybil identities the miner splits her stake across
    /// (`1` = a single identity, no splitting). Consumed by the
    /// [`crate::redistribution::Sybil`] adapter, which expands the stake
    /// vector accordingly; the fork-level drivers ignore it — a
    /// UTXO-splitting attacker still publishes honestly.
    fn sybil_identities(&self) -> u32 {
        1
    }

    /// Stable parameter fingerprint, mirroring
    /// [`IncentiveProtocol::params`].
    fn params(&self) -> Vec<f64>;
}

/// The null strategy: publish every block immediately, always mine on the
/// public tip. Under it the fork machinery degenerates to ordinary mining.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Honest;

impl Strategy for Honest {
    fn name(&self) -> &'static str {
        "honest"
    }

    fn decide(&self, _state: ForkState, event: ForkEvent) -> ForkAction {
        match event {
            ForkEvent::SelfBlock => ForkAction::Publish,
            ForkEvent::PublicBlock => ForkAction::Adopt,
        }
    }

    fn params(&self) -> Vec<f64> {
        Vec::new()
    }
}

/// Eyal–Sirer selfish mining: withhold found blocks, match the public tip
/// when caught up to it, override it when one ahead.
///
/// Relative revenue follows the closed form
/// [`fairness_stats::dist::selfish_mining_relative_revenue`]; the strategy
/// beats honest mining exactly above
/// [`fairness_stats::dist::selfish_mining_threshold`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfishMining {
    gamma: f64,
}

impl SelfishMining {
    /// Creates the strategy with tie-break parameter `gamma ∈ [0, 1]`.
    ///
    /// # Panics
    /// Panics if `gamma` is outside `[0, 1]`.
    #[must_use]
    pub fn new(gamma: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&gamma),
            "gamma must be in [0, 1], got {gamma}"
        );
        Self { gamma }
    }
}

impl Strategy for SelfishMining {
    fn name(&self) -> &'static str {
        "selfish-mining"
    }

    fn decide(&self, state: ForkState, event: ForkEvent) -> ForkAction {
        match event {
            ForkEvent::SelfBlock => {
                if state.published && state.private == state.public + 1 {
                    // Won the tip race: reveal and take both blocks.
                    ForkAction::Publish
                } else {
                    ForkAction::ExtendPrivate
                }
            }
            ForkEvent::PublicBlock => {
                if state.private == 0 {
                    ForkAction::Adopt
                } else if state.private == state.public {
                    // Caught up from one ahead: match the tip (opens the
                    // γ race).
                    ForkAction::Publish
                } else if state.private == state.public + 1 {
                    // Still one ahead: override, orphaning honest work.
                    ForkAction::Publish
                } else if state.private > state.public + 1 {
                    ForkAction::ExtendPrivate
                } else {
                    // Fell behind (unreachable under these rules).
                    ForkAction::Adopt
                }
            }
        }
    }

    fn gamma(&self) -> f64 {
        self.gamma
    }

    fn params(&self) -> Vec<f64> {
        vec![self.gamma]
    }
}

/// Stake grinding: mine and publish honestly, but whenever the miner
/// authored the tip she mines on, evaluate `tries` candidate lottery seeds
/// and keep the first winning one (falling back to the last candidate).
///
/// At `tries = 1` this is bit-identical to [`Honest`]. The stationary win
/// rate at frozen stakes follows
/// [`fairness_stats::dist::stake_grinding_win_probability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StakeGrinding {
    tries: u32,
}

impl StakeGrinding {
    /// Creates the strategy with `tries ≥ 1` seed candidates per
    /// controlled block.
    ///
    /// # Panics
    /// Panics if `tries` is zero.
    #[must_use]
    pub fn new(tries: u32) -> Self {
        assert!(tries >= 1, "grinding needs at least one candidate");
        Self { tries }
    }
}

impl Strategy for StakeGrinding {
    fn name(&self) -> &'static str {
        "stake-grinding"
    }

    fn decide(&self, _state: ForkState, event: ForkEvent) -> ForkAction {
        match event {
            ForkEvent::SelfBlock => ForkAction::Publish,
            ForkEvent::PublicBlock => ForkAction::Adopt,
        }
    }

    fn grinding_tries(&self) -> u32 {
        self.tries
    }

    fn params(&self) -> Vec<f64> {
        vec![f64::from(self.tries)]
    }
}

/// Fork-aware bookkeeping: it holds both branches since the fork point,
/// settles them by [`ForkAction::resolve`] as a strategy acts, and emits
/// settled main-chain blocks in chain order (orphaned blocks are never
/// emitted — exactly the Eyal–Sirer revenue convention).
///
/// A branch holds whatever the caller calls a block: the owner's index in
/// [`run_fork_game`] and the [`Adversary`] adapter, a real block in
/// chain-sim's fork network. The caller says whether the strategic miner
/// found each block.
#[derive(Debug, Clone)]
pub struct ForkMachine<B = usize> {
    private: Vec<B>,
    public: Vec<B>,
    published: bool,
    tip_is_attacker: bool,
    settled: VecDeque<B>,
}

impl<B> Default for ForkMachine<B> {
    /// A machine with no fork open.
    fn default() -> Self {
        Self {
            private: Vec::new(),
            public: Vec::new(),
            published: false,
            tip_is_attacker: false,
            settled: VecDeque::new(),
        }
    }
}

impl<B> ForkMachine<B> {
    /// The fork state as seen by strategies.
    #[must_use]
    pub fn state(&self) -> ForkState {
        ForkState {
            private: self.private.len() as u64,
            public: self.public.len() as u64,
            published: self.published,
        }
    }

    /// The attacker's branch since the fork point, oldest first.
    #[must_use]
    pub fn private_branch(&self) -> &[B] {
        &self.private
    }

    /// The honest branch since the fork point, oldest first.
    #[must_use]
    pub fn public_branch(&self) -> &[B] {
        &self.public
    }

    /// Whether an equal-length published tip race is in progress (honest
    /// power splits by γ).
    #[must_use]
    pub fn tie_race(&self) -> bool {
        self.published && !self.private.is_empty() && self.private.len() == self.public.len()
    }

    /// Whether the attacker authored the tip she currently mines on — the
    /// precondition for grinding the next lottery seed.
    #[must_use]
    pub fn attacker_controls_tip(&self) -> bool {
        !self.private.is_empty() || self.tip_is_attacker
    }

    /// Number of settled-but-unconsumed main-chain blocks.
    #[must_use]
    pub fn settled_len(&self) -> usize {
        self.settled.len()
    }

    /// Pops the next settled main-chain block, oldest first.
    pub fn pop_settled(&mut self) -> Option<B> {
        self.settled.pop_front()
    }

    /// Feeds one found block into the machine: `by_attacker` says the
    /// strategic miner found it; `on_private_branch` says an honest block
    /// extends the attacker's published tip (only meaningful during a
    /// [`tie_race`](Self::tie_race)). The strategy is consulted and its
    /// action applied.
    pub fn on_block<S: Strategy + ?Sized>(
        &mut self,
        strategy: &S,
        block: B,
        by_attacker: bool,
        on_private_branch: bool,
    ) {
        let event = if by_attacker {
            self.private.push(block);
            ForkEvent::SelfBlock
        } else if self.tie_race() && on_private_branch {
            // Honest power extended the attacker's published branch: her
            // blocks settle under the new honest tip, the public branch
            // since the fork point is orphaned.
            self.settled.extend(self.private.drain(..));
            self.settled.push_back(block);
            self.reset(false);
            return;
        } else {
            self.public.push(block);
            ForkEvent::PublicBlock
        };
        let state = self.state();
        self.apply(strategy.decide(state, event).resolve(state));
    }

    /// [`on_block`](Self::on_block), then [`pop_settled`](Self::pop_settled),
    /// without the queue's round trip in the common case: when no fork
    /// is open and nothing waits, the strategy decides on the state the
    /// block would leave, and a lone block that settles goes straight to
    /// the caller without touching a branch. The adversarial golden
    /// digests (`tests/adversary_ensemble_golden.rs`), recorded when every
    /// block went through the queue, pin the two paths alike.
    pub(crate) fn on_block_pop<S: Strategy + ?Sized>(
        &mut self,
        strategy: &S,
        block: B,
        by_attacker: bool,
        on_private: bool,
    ) -> Option<B> {
        if !self.private.is_empty() || !self.public.is_empty() || !self.settled.is_empty() {
            self.on_block(strategy, block, by_attacker, on_private);
            return self.pop_settled();
        }
        // No fork is open, so no tie race either: `on_block`'s first or
        // last branch, decided on the one-block branch it would leave.
        let state = ForkState {
            private: u64::from(by_attacker),
            public: u64::from(!by_attacker),
            published: false,
        };
        let (event, settles) = if by_attacker {
            (ForkEvent::SelfBlock, Resolution::Private)
        } else {
            (ForkEvent::PublicBlock, Resolution::Public)
        };
        let resolution = strategy.decide(state, event).resolve(state);
        if resolution == settles {
            self.tip_is_attacker = by_attacker;
            return Some(block);
        }
        if by_attacker {
            self.private.push(block);
        } else {
            self.public.push(block);
        }
        self.apply(resolution);
        self.pop_settled()
    }

    fn apply(&mut self, resolution: Resolution) {
        match resolution {
            Resolution::Hold => {}
            Resolution::Race => self.published = true,
            Resolution::Private => {
                self.settled.extend(self.private.drain(..));
                self.reset(true);
            }
            Resolution::Public => {
                // Public blocks are honest: the tip is hers only if none
                // came.
                let tip_is_attacker = self.tip_is_attacker && self.public.is_empty();
                self.settled.extend(self.public.drain(..));
                self.reset(tip_is_attacker);
            }
        }
    }

    fn reset(&mut self, tip_is_attacker: bool) {
        self.private.clear();
        self.public.clear();
        self.published = false;
        self.tip_is_attacker = tip_is_attacker;
    }

    /// Ends the game as if the attacker published: the strictly longer
    /// branch settles; an unresolved equal-length race orphans both sides.
    pub fn finalize(&mut self) {
        match ForkAction::Publish.resolve(self.state()) {
            Resolution::Hold | Resolution::Race => self.reset(self.tip_is_attacker),
            settled => self.apply(settled),
        }
    }
}

/// Settled main-chain block counts of a fork game.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RevenueTally {
    /// Settled blocks authored by the strategic miner.
    pub attacker: u64,
    /// Settled blocks authored by honest miners.
    pub honest: u64,
}

impl RevenueTally {
    /// The attacker's share of the settled main chain — Eyal–Sirer's
    /// "relative revenue". Zero if nothing settled.
    #[must_use]
    pub fn relative_revenue(&self) -> f64 {
        let total = self.attacker + self.honest;
        if total == 0 {
            0.0
        } else {
            self.attacker as f64 / total as f64
        }
    }
}

/// Model-level fork driver: runs `rounds` block-discovery events in which
/// the strategic miner (index 0) finds each block with probability `alpha`
/// and the aggregated honest network (index 1) otherwise; during a tip
/// race an honest block lands on the attacker's branch with probability
/// `strategy.gamma()`. Returns the settled-revenue tally.
///
/// With [`Honest`] the relative revenue estimates `alpha`; with
/// [`SelfishMining`] it converges to the Eyal–Sirer closed form (enforced
/// by property tests).
///
/// # Panics
/// Panics unless `alpha ∈ [0, 1]`.
#[must_use]
pub fn run_fork_game<S: Strategy + ?Sized>(
    strategy: &S,
    alpha: f64,
    rounds: u64,
    rng: &mut Xoshiro256StarStar,
) -> RevenueTally {
    assert!(
        (0.0..=1.0).contains(&alpha),
        "attacker share must be in [0, 1], got {alpha}"
    );
    let mut machine = ForkMachine::default();
    let mut tally = RevenueTally::default();
    let drain = |machine: &mut ForkMachine, tally: &mut RevenueTally| {
        while let Some(owner) = machine.pop_settled() {
            if owner == 0 {
                tally.attacker += 1;
            } else {
                tally.honest += 1;
            }
        }
    };
    for _ in 0..rounds {
        let attacker_found = rng.next_f64() < alpha;
        let on_private = if attacker_found {
            true
        } else if machine.tie_race() {
            rng.next_f64() < strategy.gamma()
        } else {
            false
        };
        machine.on_block(
            strategy,
            usize::from(!attacker_found),
            attacker_found,
            on_private,
        );
        drain(&mut machine, &mut tally);
    }
    machine.finalize();
    drain(&mut machine, &mut tally);
    tally
}

/// Wraps a single-winner protocol so that miner 0 plays `strategy` while
/// everyone else mines honestly. Each [`step`](IncentiveProtocol::step)
/// settles exactly one main-chain block: the inner protocol's lottery
/// supplies block-discovery events (with grinding redraws when the
/// attacker controls her tip), the [`ForkMachine`] applies the strategy,
/// and settled owners are paid out oldest-first.
///
/// The fork machine and the outcome the inner protocol draws into are
/// plain fields: per-game state, owned by the game that owns the adapter
/// (see [`IncentiveProtocol`]'s per-game state). A new adapter starts
/// unforked, and a clone continues from the original's fork state.
///
/// Because the adapter is a plain [`IncentiveProtocol`], adversarial
/// configurations flow through `run_ensemble` and the content-addressed
/// sweep cache unchanged. Two caveats, both documented invariants of the
/// model: orphaned blocks consume no issuance (each settled block pays the
/// full step reward), and for *compounding* inner protocols a withholding
/// burst settles several blocks at the stake vector current when each
/// settles (exact for non-compounding PoW, the selfish-mining target; the
/// grinding strategies never burst).
#[derive(Debug, Clone)]
pub struct Adversary<P, S> {
    inner: P,
    strategy: S,
    machine: ForkMachine,
    /// Where the inner protocol's draws land, reused across steps so
    /// adversarial stepping allocates nothing in steady state either.
    inner_out: StepOutcome,
    /// [`IncentiveProtocol::rewards_compound`] of the inner protocol,
    /// cached at construction: whether the stakes can change between
    /// steps, so that `inner_out`'s sampler must be rebuilt.
    inner_compounds: bool,
}

impl<P: IncentiveProtocol, S: Strategy> Adversary<P, S> {
    /// Wraps `inner` with miner 0 playing `strategy`, from an unforked
    /// chain.
    #[must_use]
    pub fn new(inner: P, strategy: S) -> Self {
        Self {
            machine: ForkMachine::default(),
            inner_out: StepOutcome::new(),
            inner_compounds: inner.rewards_compound(),
            inner,
            strategy,
        }
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The attacker's strategy.
    #[must_use]
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// One block-discovery event: the inner lottery's winner.
    #[inline]
    fn draw(&mut self, stakes: &[f64], step: u64, rng: &mut Xoshiro256StarStar) -> usize {
        self.inner.step_into(stakes, step, rng, &mut self.inner_out);
        match self.inner_out.view() {
            StepRewardsView::Winner(w) => w,
            StepRewardsView::Split(_) => panic!(
                "adversarial strategies need a single-winner protocol; {} splits rewards",
                self.inner.name()
            ),
        }
    }
}

impl<P: IncentiveProtocol, S: Strategy> IncentiveProtocol for Adversary<P, S> {
    fn name(&self) -> &'static str {
        self.strategy.name()
    }

    fn label(&self) -> String {
        format!("{}({})", self.strategy.name(), self.inner.label())
    }

    fn reward_per_step(&self) -> f64 {
        self.inner.reward_per_step()
    }

    fn rewards_compound(&self) -> bool {
        self.inner.rewards_compound()
    }

    fn params(&self) -> Vec<f64> {
        let mut p = vec![protocol_tag(&self.inner)];
        p.extend(self.inner.params());
        p.extend(self.strategy.params());
        p
    }

    fn step_into(
        &mut self,
        stakes: &[f64],
        step: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    ) {
        // The game credits rewards between steps without reporting them
        // to the inner outcome, so a compounding inner protocol's sampler
        // would be stale. A non-compounding one keeps its sampler warm:
        // its stakes never change (PoW and NEO even draw over their own
        // fixed shares). Within this step the stakes are fixed, so
        // grinding redraws reuse one rebuild either way.
        if self.inner_compounds {
            self.inner_out.invalidate_weights();
        }
        if let Some(owner) = self.machine.pop_settled() {
            return out.set_winner(owner);
        }
        let mut safety = 0u32;
        loop {
            safety += 1;
            assert!(
                safety < 1_000_000,
                "fork never settled after 1M events — runaway strategy"
            );
            // Grinding: when the attacker authored her tip she redraws the
            // lottery up to `tries` times and keeps the first winning draw
            // (falling back to the last). `tries = 1` draws exactly once,
            // making the adapter bit-identical to the honest stream.
            let tries = if self.machine.attacker_controls_tip() {
                self.strategy.grinding_tries()
            } else {
                1
            };
            let mut winner = self.draw(stakes, step, rng);
            let mut attempt = 1;
            while winner != 0 && attempt < tries {
                winner = self.draw(stakes, step, rng);
                attempt += 1;
            }
            let on_private = if winner == 0 {
                true
            } else if self.machine.tie_race() {
                rng.next_f64() < self.strategy.gamma()
            } else {
                false
            };
            if let Some(owner) =
                self.machine
                    .on_block_pop(&self.strategy, winner, winner == 0, on_private)
            {
                return out.set_winner(owner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::{run_ensemble, EnsembleConfig};
    use crate::protocol::StepRewards;
    use crate::protocols::{CPos, MlPos, Pow, SlPos};
    use fairness_stats::dist::{
        selfish_mining_relative_revenue, selfish_mining_threshold, stake_grinding_win_probability,
    };

    /// Replays a scripted event sequence and returns the settled owners.
    fn replay<S: Strategy>(strategy: &S, events: &[(usize, bool)]) -> Vec<usize> {
        let mut m = ForkMachine::default();
        let mut settled = Vec::new();
        for &(winner, on_private) in events {
            m.on_block(strategy, winner, winner == 0, on_private);
            while let Some(o) = m.pop_settled() {
                settled.push(o);
            }
        }
        m.finalize();
        while let Some(o) = m.pop_settled() {
            settled.push(o);
        }
        settled
    }

    #[test]
    fn honest_strategy_settles_every_block_immediately() {
        let events = [(0, true), (1, false), (1, false), (0, true)];
        assert_eq!(replay(&Honest, &events), vec![0, 1, 1, 0]);
    }

    #[test]
    fn selfish_override_orphans_honest_block() {
        // Attacker mines two ahead, honest finds one: override settles the
        // two attacker blocks and orphans the honest one.
        let s = SelfishMining::new(0.0);
        assert_eq!(replay(&s, &[(0, true), (0, true), (1, false)]), vec![0, 0]);
    }

    #[test]
    fn selfish_tie_race_outcomes() {
        let s = SelfishMining::new(0.5);
        // Attacker wins the race: both settled blocks are hers.
        assert_eq!(replay(&s, &[(0, true), (1, false), (0, true)]), vec![0, 0]);
        // Honest block lands on her branch: one each, public side orphaned.
        assert_eq!(replay(&s, &[(0, true), (1, false), (1, true)]), vec![0, 1]);
        // Honest block extends the public branch: attacker forfeits.
        assert_eq!(replay(&s, &[(0, true), (1, false), (1, false)]), vec![1, 1]);
    }

    #[test]
    fn selfish_long_lead_holds_until_override() {
        // Lead 3, honest chips away twice, then override settles all 3.
        let s = SelfishMining::new(0.0);
        let events = [(0, true), (0, true), (0, true), (1, false), (1, false)];
        assert_eq!(replay(&s, &events), vec![0, 0, 0]);
    }

    #[test]
    fn honest_fork_game_revenue_is_alpha() {
        let mut rng = Xoshiro256StarStar::new(11);
        let tally = run_fork_game(&Honest, 0.3, 200_000, &mut rng);
        let r = tally.relative_revenue();
        assert!((r - 0.3).abs() < 0.005, "{r}");
        assert_eq!(tally.attacker + tally.honest, 200_000);
    }

    #[test]
    fn selfish_fork_game_matches_closed_form() {
        // Spot-check the MC driver against Eyal–Sirer at a profitable
        // point (the property tests cover the full α×γ grid).
        for (alpha, gamma) in [(0.35, 0.0), (0.4, 0.5), (0.3, 1.0)] {
            let mut rng = Xoshiro256StarStar::new(13);
            let r = run_fork_game(&SelfishMining::new(gamma), alpha, 400_000, &mut rng)
                .relative_revenue();
            let exact = selfish_mining_relative_revenue(alpha, gamma);
            assert!(
                (r - exact).abs() < 0.01,
                "α={alpha} γ={gamma}: mc {r} vs closed form {exact}"
            );
        }
    }

    #[test]
    fn selfish_below_threshold_loses_to_honest() {
        let gamma = 0.0;
        let alpha = selfish_mining_threshold(gamma) - 0.08;
        let mut rng = Xoshiro256StarStar::new(17);
        let r =
            run_fork_game(&SelfishMining::new(gamma), alpha, 400_000, &mut rng).relative_revenue();
        assert!(
            r < alpha,
            "below threshold selfish ({r}) must not beat {alpha}"
        );
    }

    #[test]
    fn adversary_ensemble_matches_closed_form() {
        // The protocol adapter path (through MiningGame / run_ensemble)
        // must agree with the closed form too.
        let (alpha, gamma) = (0.4, 0.5);
        let shares = crate::miner::two_miner(alpha);
        let adapter = Adversary::new(Pow::new(&shares, 0.01), SelfishMining::new(gamma));
        let config = EnsembleConfig {
            checkpoints: vec![3000],
            ..EnsembleConfig::paper_default(alpha, 3000, 400, 23)
        };
        let mean = run_ensemble(&adapter, &config).final_point().mean;
        let exact = selfish_mining_relative_revenue(alpha, gamma);
        assert!((mean - exact).abs() < 0.01, "mc {mean} vs closed {exact}");
        assert!(mean > alpha, "selfish mining above threshold must pay");
    }

    #[test]
    fn grinding_one_try_is_bit_identical_to_honest() {
        let shares = vec![0.2, 0.8];
        let run = |adapter: Adversary<SlPos, StakeGrinding>| {
            let mut game = crate::game::MiningGame::new(adapter, &shares);
            let mut rng = Xoshiro256StarStar::new(31);
            game.run_with_checkpoints(&[100, 500, 1000], &mut rng)
                .values
        };
        let honest = {
            let mut game =
                crate::game::MiningGame::new(Adversary::new(SlPos::new(0.01), Honest), &shares);
            let mut rng = Xoshiro256StarStar::new(31);
            game.run_with_checkpoints(&[100, 500, 1000], &mut rng)
                .values
        };
        let plain = {
            let mut game = crate::game::MiningGame::new(SlPos::new(0.01), &shares);
            let mut rng = Xoshiro256StarStar::new(31);
            game.run_with_checkpoints(&[100, 500, 1000], &mut rng)
                .values
        };
        let ground = run(Adversary::new(SlPos::new(0.01), StakeGrinding::new(1)));
        assert_eq!(ground, honest, "tries=1 must equal honest bit-for-bit");
        assert_eq!(ground, plain, "honest adapter must equal the bare protocol");
    }

    #[test]
    fn grinding_stationary_rate_matches_closed_form() {
        // Frozen stakes isolate the grinding Markov chain from SL-PoS
        // compounding drift.
        let a = 0.2;
        let stakes = vec![a, 1.0 - a];
        let p = crate::theory::slpos::win_probability_two_miner(a);
        for tries in [2u32, 4, 8] {
            let mut adapter = Adversary::new(SlPos::new(0.01), StakeGrinding::new(tries));
            let mut rng = Xoshiro256StarStar::new(41 + u64::from(tries));
            let n = 200_000u64;
            let mut wins = 0u64;
            for i in 0..n {
                if let StepRewards::Winner(0) = adapter.step(&stakes, i, &mut rng) {
                    wins += 1;
                }
            }
            let frac = wins as f64 / n as f64;
            let exact = stake_grinding_win_probability(p, tries);
            assert!(
                (frac - exact).abs() < 0.005,
                "tries={tries}: mc {frac} vs closed {exact}"
            );
        }
    }

    #[test]
    fn adversary_params_distinguish_configurations() {
        let a = Adversary::new(SlPos::new(0.01), StakeGrinding::new(2)).params();
        let b = Adversary::new(SlPos::new(0.01), StakeGrinding::new(3)).params();
        let c = Adversary::new(MlPos::new(0.01), StakeGrinding::new(2)).params();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            Adversary::new(SlPos::new(0.01), StakeGrinding::new(2)).params()
        );
        let d = Adversary::new(Pow::new(&[0.3, 0.7], 0.01), SelfishMining::new(0.0)).params();
        let e = Adversary::new(Pow::new(&[0.3, 0.7], 0.01), SelfishMining::new(1.0)).params();
        assert_ne!(d, e);
    }

    #[test]
    fn adversary_labels_name_the_inner_protocol() {
        let a = Adversary::new(Pow::new(&[0.3, 0.7], 0.01), SelfishMining::new(0.5));
        assert_eq!(a.name(), "selfish-mining");
        assert_eq!(a.label(), "selfish-mining(PoW)");
        let g = Adversary::new(SlPos::new(0.01), StakeGrinding::new(4));
        assert_eq!(g.label(), "stake-grinding(SL-PoS)");
    }

    #[test]
    #[should_panic(expected = "single-winner protocol")]
    fn adversary_rejects_split_protocols() {
        let mut adapter = Adversary::new(CPos::new(0.01, 0.1, 1), Honest);
        let mut rng = Xoshiro256StarStar::new(1);
        let _ = adapter.step(&[0.2, 0.8], 0, &mut rng);
    }

    #[test]
    fn game_cloned_mid_fork_continues_like_the_original() {
        // The fork machine is per-game state. A step returns as soon as
        // one block settles, so after a withholding burst the machine
        // still holds settled blocks that later steps pay out. A clone
        // taken then must carry them on, and step on bit-identically to
        // the original.
        let adapter = Adversary::new(Pow::new(&[0.4, 0.6], 0.01), SelfishMining::new(0.5));
        let mut game = crate::game::MiningGame::new(adapter, &[0.4, 0.6]);
        let mut rng = Xoshiro256StarStar::new(7);
        while game.protocol().machine.settled_len() == 0 {
            game.step(&mut rng);
            assert!(game.steps() < 10_000, "no withholding burst");
        }
        let mut clone = game.clone();
        let mut clone_rng = rng.clone();
        assert_eq!(
            clone.protocol().machine.settled,
            game.protocol().machine.settled
        );
        game.run(2_000, &mut rng);
        clone.run(2_000, &mut clone_rng);
        let bits = |g: &crate::game::MiningGame<_>| -> Vec<u64> {
            g.earned_column().iter().map(|e| e.to_bits()).collect()
        };
        assert_eq!(clone.steps(), game.steps());
        assert_eq!(bits(&clone), bits(&game));
        assert_eq!(clone_rng, rng);
    }

    #[test]
    fn zero_attacker_fork_game_stays_finite() {
        // Degenerate-α regression: with no attacker wins every derived
        // quantity must be exactly 0.0 — never NaN from a 0/0 — so CSV
        // sweeps that include α = 0 stay well-formed.
        assert_eq!(RevenueTally::default().relative_revenue(), 0.0);

        let mut rng = Xoshiro256StarStar::new(7);
        let tally = run_fork_game(&SelfishMining::new(0.5), 0.0, 10_000, &mut rng);
        assert_eq!(tally.attacker, 0);
        assert_eq!(tally.relative_revenue(), 0.0);
        assert!(tally.relative_revenue().is_finite());
    }

    #[test]
    fn near_zero_alpha_fork_game_stays_finite() {
        // α small enough that most runs see zero attacker blocks: the
        // revenue must stay finite and near zero, and a run of length zero
        // must not divide by its empty chain.
        let mut rng = Xoshiro256StarStar::new(8);
        let tally = run_fork_game(&SelfishMining::new(0.5), 1e-9, 10_000, &mut rng);
        assert!(tally.relative_revenue().is_finite());
        assert!(tally.relative_revenue() <= 1e-3);

        let mut rng = Xoshiro256StarStar::new(9);
        let empty = run_fork_game(&SelfishMining::new(0.5), 0.25, 0, &mut rng);
        assert_eq!(empty.relative_revenue(), 0.0);
    }
}

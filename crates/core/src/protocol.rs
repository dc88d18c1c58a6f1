//! The abstract incentive-protocol interface.
//!
//! A protocol is a rule mapping the current staking-power vector to a
//! (random) reward allocation for one step. The [`crate::game::MiningGame`]
//! applies the allocation to the state — crediting earnings and, for PoS
//! protocols, compounding them into staking power (immediately, or on a
//! withholding schedule per Section 6.3).

use fairness_stats::rng::Xoshiro256StarStar;
use fairness_stats::sampling::FenwickSampler;

/// Reward allocation of one step (block or epoch).
#[derive(Debug, Clone, PartialEq)]
pub enum StepRewards {
    /// A single proposer takes the whole step reward.
    Winner(usize),
    /// The step reward is split across miners (entries sum to the step
    /// reward) — C-PoS epochs, inflation-only protocols, etc.
    Split(Vec<f64>),
}

/// A borrowed view of one step's allocation, read out of a
/// [`StepOutcome`] without moving any buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepRewardsView<'a> {
    /// A single proposer takes the whole step reward.
    Winner(usize),
    /// The step reward is split across miners.
    Split(&'a [f64]),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum OutcomeKind {
    Winner(usize),
    Split,
}

/// Output and scratch state of [`IncentiveProtocol::step_into`].
///
/// One `StepOutcome` lives for the whole of a game (the
/// [`crate::game::MiningGame`] owns one) and is written anew every step,
/// so the steady-state stepping loop performs **zero heap allocations**:
/// the `Split` buffer keeps its capacity across steps, adapters borrow
/// scratch vectors from small internal pools instead of allocating, and
/// the incremental stake sampler persists between draws. A fresh outcome
/// per step (what [`IncentiveProtocol::step`] uses) draws the same
/// allocation, only with a rebuild of every buffer and sampler.
///
/// # The weighted-draw contract
///
/// [`weighted_winner`](Self::weighted_winner) keeps a [`FenwickSampler`]
/// keyed to the *identity* (address and length) of the weight slice it
/// was last built over. Reusing the live sampler is sound only while the
/// weights behind that slice are unchanged except through
/// [`note_weight_increment`](Self::note_weight_increment); any caller
/// that mutates a weight buffer it previously sampled (adapters passing
/// modified stake vectors, bulk stake changes like a withholding merge)
/// must call [`invalidate_weights`](Self::invalidate_weights) first.
/// Debug builds verify the stored weights against the slice on every
/// reuse.
///
/// The game reports its stake credits only to the outcome it owns. An
/// adapter that keeps a second outcome for its inner protocol's draws
/// (the [`crate::adversary::Adversary`] fork machine does) is that
/// outcome's caller: it must invalidate it whenever the stakes it passes
/// may have changed since the previous draw — every step, when the
/// inner protocol compounds — and may keep it warm when they cannot.
/// PoW and NEO draw over their own fixed shares, so their samplers build
/// once per game.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    kind: OutcomeKind,
    split: Vec<f64>,
    /// Scratch-vector pools for adapters (cash-out's effective stakes,
    /// a pool's aggregated slots, …). `take`/`give` discipline keeps
    /// nesting (adapters wrapping adapters) allocation-free after the
    /// first step.
    f64_pool: Vec<Vec<f64>>,
    u64_pool: Vec<Vec<u64>>,
    idx_pool: Vec<Vec<usize>>,
    /// The incremental stake sampler plus the identity of the weight
    /// slice it mirrors.
    sampler: Option<FenwickSampler>,
    sampler_key: (usize, usize),
    sampler_live: bool,
}

impl Default for StepOutcome {
    fn default() -> Self {
        Self::new()
    }
}

impl StepOutcome {
    /// Creates an empty outcome (no step recorded yet).
    #[must_use]
    pub fn new() -> Self {
        Self {
            kind: OutcomeKind::Winner(0),
            split: Vec::new(),
            f64_pool: Vec::new(),
            u64_pool: Vec::new(),
            idx_pool: Vec::new(),
            sampler: None,
            sampler_key: (0, 0),
            sampler_live: false,
        }
    }

    /// Records a winner-take-all step.
    #[inline(always)]
    pub fn set_winner(&mut self, winner: usize) {
        self.kind = OutcomeKind::Winner(winner);
    }

    /// Starts a split step over `m` miners: returns the zeroed allocation
    /// slots, reusing the buffer's capacity.
    #[inline]
    pub fn split_slots(&mut self, m: usize) -> &mut [f64] {
        self.kind = OutcomeKind::Split;
        self.split.clear();
        self.split.resize(m, 0.0);
        &mut self.split
    }

    /// Reads the recorded step without copying.
    #[inline(always)]
    #[must_use]
    pub fn view(&self) -> StepRewardsView<'_> {
        match self.kind {
            OutcomeKind::Winner(w) => StepRewardsView::Winner(w),
            OutcomeKind::Split => StepRewardsView::Split(&self.split),
        }
    }

    /// Copies the recorded step out as an owned [`StepRewards`] (what
    /// [`IncentiveProtocol::step`] returns).
    #[must_use]
    pub fn to_rewards(&self) -> StepRewards {
        match self.kind {
            OutcomeKind::Winner(w) => StepRewards::Winner(w),
            OutcomeKind::Split => StepRewards::Split(self.split.clone()),
        }
    }

    /// Installs `split` as the recorded allocation by swap, recycling the
    /// previous split buffer — lets adapters assemble an allocation in a
    /// scratch vector (while reading the current view) and commit it
    /// without copying.
    pub fn commit_split(&mut self, mut split: Vec<f64>) {
        std::mem::swap(&mut self.split, &mut split);
        self.kind = OutcomeKind::Split;
        self.give_f64(split);
    }

    /// Retained scratch vectors per pool. Balanced take/give pairs (the
    /// in-crate protocols and adapters) never exceed a handful even when
    /// nested; the cap exists so a give-only caller — e.g. a downstream
    /// protocol that builds each allocation in a fresh vector and hands
    /// it to [`commit_split`](Self::commit_split), which pools the
    /// previous buffer every step — recycles a bounded set instead of
    /// hoarding one vector per step.
    const POOL_CAP: usize = 8;

    /// Borrows a cleared `f64` scratch vector from the pool (allocates
    /// only the first time a nesting depth is reached).
    #[must_use]
    pub fn take_f64(&mut self) -> Vec<f64> {
        self.f64_pool.pop().unwrap_or_default()
    }

    /// Returns a scratch vector to the pool (dropped if the pool is at
    /// capacity).
    pub fn give_f64(&mut self, mut v: Vec<f64>) {
        if self.f64_pool.len() < Self::POOL_CAP {
            v.clear();
            self.f64_pool.push(v);
        }
    }

    /// Borrows a cleared `u64` scratch vector from the pool.
    #[must_use]
    pub fn take_u64(&mut self) -> Vec<u64> {
        self.u64_pool.pop().unwrap_or_default()
    }

    /// Returns a `u64` scratch vector to the pool (dropped if the pool
    /// is at capacity).
    pub fn give_u64(&mut self, mut v: Vec<u64>) {
        if self.u64_pool.len() < Self::POOL_CAP {
            v.clear();
            self.u64_pool.push(v);
        }
    }

    /// Borrows a cleared index scratch vector from the pool.
    #[must_use]
    pub fn take_idx(&mut self) -> Vec<usize> {
        self.idx_pool.pop().unwrap_or_default()
    }

    /// Returns an index scratch vector to the pool (dropped if the pool
    /// is at capacity).
    pub fn give_idx(&mut self, mut v: Vec<usize>) {
        if self.idx_pool.len() < Self::POOL_CAP {
            v.clear();
            self.idx_pool.push(v);
        }
    }

    /// Draws a winner proportional to `weights` through the incremental
    /// sampler: O(log m) when the live sampler still mirrors `weights`,
    /// one O(m) rebuild otherwise. Consumes exactly one uniform draw and
    /// picks the same winner as
    /// [`crate::miner::sample_categorical`] (the tree descent inverts the
    /// same prefix-sum — see [`FenwickSampler`]).
    ///
    /// See the type-level docs for the mutation/invalidation contract.
    ///
    /// # Panics
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// entry, or sums to zero (on rebuild).
    pub fn weighted_winner(&mut self, weights: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
        let key = (weights.as_ptr() as usize, weights.len());
        if !(self.sampler_live && self.sampler_key == key) {
            match &mut self.sampler {
                Some(s) => s.rebuild(weights),
                None => self.sampler = Some(FenwickSampler::new(weights)),
            }
            self.sampler_key = key;
            self.sampler_live = true;
        }
        let sampler = self.sampler.as_ref().expect("sampler just ensured");
        debug_assert!(
            sampler.len() == weights.len()
                && (0..weights.len()).all(|i| sampler.weight(i).to_bits() == weights[i].to_bits()),
            "live sampler out of sync with its weights — a caller mutated a \
             sampled buffer without invalidate_weights/note_weight_increment"
        );
        sampler.sample(rng)
    }

    /// Propagates a single-category weight increase into the live sampler
    /// in O(log m). A no-op unless the sampler is live over exactly this
    /// `weights` slice — callers (the game loop) report every stake
    /// credit and the sampler picks up only the ones that concern it.
    #[inline]
    pub fn note_weight_increment(&mut self, weights: &[f64], i: usize, delta: f64) {
        if self.sampler_live && self.sampler_key == (weights.as_ptr() as usize, weights.len()) {
            if let Some(s) = &mut self.sampler {
                s.add(i, delta);
            }
        }
    }

    /// Drops the live sampler binding; the next
    /// [`weighted_winner`](Self::weighted_winner) rebuilds. Must be
    /// called after any bulk or unreported weight mutation.
    #[inline]
    pub fn invalidate_weights(&mut self) {
        self.sampler_live = false;
    }
}

/// An incentive protocol, in the paper's normalized units: initial stakes
/// sum to 1 and rewards are fractions thereof (Assumptions 2–3).
///
/// # Per-game state
///
/// A protocol value is the per-game state of its step law, which is why
/// the stepping methods take `&mut self`. A [`crate::game::MiningGame`]
/// owns its protocol, and every ensemble clones the template it borrows
/// as `&P` into each game, so a template is never stepped and every game
/// starts from the template's state. A stateful adapter (the
/// [`crate::adversary::Adversary`] fork machine) keeps that state in
/// plain fields and needs no lock. `Clone` copies the state like any
/// other value, so a game cloned mid-run continues exactly as the
/// original would. The configuration methods (`name`, `label`,
/// `reward_per_step`, `params`, …) take `&self` and must not depend on
/// the state.
pub trait IncentiveProtocol: Send + Sync {
    /// Protocol name as used in the paper.
    fn name(&self) -> &'static str;

    /// Human-readable label for reports and CSV columns. Defaults to
    /// [`name`](Self::name); adapters that wrap another protocol
    /// (cash-out, pools, adversarial strategies) override this to include
    /// the inner protocol, so output rows stay unambiguous when the same
    /// adapter wraps different protocols.
    fn label(&self) -> String {
        self.name().to_owned()
    }

    /// Total reward issued per step (the paper's `w`, or `w + v` for
    /// C-PoS epochs).
    fn reward_per_step(&self) -> f64;

    /// Whether earned rewards compound into future staking power. `false`
    /// for PoW/NEO-style protocols whose lottery resource is external to
    /// the reward asset.
    fn rewards_compound(&self) -> bool {
        true
    }

    /// Stable parameter fingerprint: together with [`name`](Self::name) and
    /// [`rewards_compound`](Self::rewards_compound) it must uniquely
    /// determine the step distribution, so two protocol values with equal
    /// fingerprints are interchangeable. Memoizing sweep harnesses key
    /// their caches (and derive ensemble seeds) from it.
    fn params(&self) -> Vec<f64>;

    /// The protocol's step law: draws one step's allocation given the
    /// current staking powers (`stakes` need not be normalized; protocols
    /// use relative weights) and writes it into `out`.
    ///
    /// This is the only stepping method a protocol implements, and the
    /// one every game runs. It may advance the protocol's own per-game
    /// state (see the trait docs). A stepping loop that holds one
    /// [`StepOutcome`] performs no steady-state heap allocations. A fresh
    /// or a reused `out` yields the same draw from the same RNG stream:
    /// pooled buffers and the incremental sampler only save work (up to
    /// the sampler's ulp-level caveat, see [`FenwickSampler`]). The hot
    /// path trusts the caller to maintain the game invariants — a
    /// non-empty stake vector with a positive finite total (checked in
    /// debug builds).
    fn step_into(
        &mut self,
        stakes: &[f64],
        step_index: u64,
        rng: &mut Xoshiro256StarStar,
        out: &mut StepOutcome,
    );

    /// One step as an owned [`StepRewards`], for callers outside a game
    /// loop: checks that `stakes` is non-empty with a positive finite
    /// total, then runs [`step_into`](Self::step_into) on a fresh
    /// [`StepOutcome`], so it draws exactly what `step_into` draws and
    /// only adds the fresh outcome's allocations. Not meant to be
    /// overridden.
    ///
    /// # Panics
    /// Panics if `stakes` is empty or its total is not positive and
    /// finite.
    fn step(
        &mut self,
        stakes: &[f64],
        step_index: u64,
        rng: &mut Xoshiro256StarStar,
    ) -> StepRewards {
        let _ = crate::protocols::total_stake(stakes);
        let mut out = StepOutcome::new();
        self.step_into(stakes, step_index, rng, &mut out);
        out.to_rewards()
    }

    /// This protocol's step law as data, when it is one a kernel knows
    /// (see [`StepLaw`]); `None` (the default) keeps the generic stepping
    /// path.
    ///
    /// This is a performance hook, not a semantic one: whoever matches on
    /// the law must draw exactly what [`step_into`](Self::step_into)
    /// draws. **Adapters must not forward it**: their step law differs
    /// from the inner protocol's.
    fn step_law(&self) -> Option<StepLaw<'_>> {
        None
    }

    /// Settles `n` steps in one call, the first at `first_step`, if the
    /// protocol has a segment kernel; returns whether it did.
    ///
    /// A [`crate::game::MiningGame`] that does not compound and withholds
    /// nothing offers every segment [`run`](crate::game::MiningGame::run)
    /// asks for, so `stakes` stays fixed for the whole segment. A kernel
    /// that accepts credits each step's
    /// [`reward_per_step`](Self::reward_per_step) to that step's winner
    /// in `earned`, in step order (`earned[w] += reward`), and must leave
    /// the income column, its own state and `rng` exactly as `n` calls of
    /// [`step_into`](Self::step_into) followed by the game's credits
    /// would. The default declines, and the game steps one at a time.
    /// **Adapters must not forward it** either.
    fn run_segment(
        &mut self,
        stakes: &[f64],
        first_step: u64,
        n: u64,
        rng: &mut Xoshiro256StarStar,
        earned: &mut [f64],
    ) -> bool {
        let _ = (stakes, first_step, n, rng, earned);
        false
    }
}

/// A closed step law, as [`IncentiveProtocol::step_law`] reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepLaw<'a> {
    /// Exactly the bare SL-PoS `U_i/s_i` waiting-time race over the
    /// current stakes, paying `reward` per block, with no step-index
    /// dependence.
    ///
    /// SL-PoS sweeps (Figure 4, Table 1's SL-PoS cells and its
    /// monopolization bisection) dominate the reproduction's wall-clock.
    /// Knowing this law, [`crate::game::MiningGame::run`] steps any miner
    /// count with every stake positive through a fused kernel over the
    /// ledger's columns: at two miners it software-pipelines the
    /// division-feedback chain (the winner's compounded stake is the next
    /// step's divisor) with speculative candidate quotients, and at three
    /// or more it runs the race as one branch-free loop with no protocol
    /// dispatch; `run_batch` steps such games in vector lanes.
    SlPosRace {
        /// The block reward.
        reward: f64,
    },
    /// One winner per step drawn through
    /// [`StepOutcome::weighted_winner`] over `weights`, a slice the
    /// protocol never changes (PoW's hash power, NEO's base-asset
    /// shares), regardless of the stakes and the step index.
    ///
    /// Such a draw builds one [`FenwickSampler`] over `weights` and never
    /// updates it, so a caller that builds its own sampler from the same
    /// slice draws bit-identical winners without calling the protocol;
    /// the [`crate::adversary::Adversary`] adapter does.
    FixedLottery {
        /// The fixed lottery weights.
        weights: &'a [f64],
    },
}

/// Folds a wrapped protocol's *name* into an adapter's parameter
/// fingerprint. Adapters report their own `name()`, so without this two
/// different inner protocols with equal numeric parameters (say
/// `CashOut<MlPos>` and `CashOut<SlPos>` at the same `w`) would be
/// indistinguishable to memoizing harnesses.
#[must_use]
pub fn protocol_tag<P: IncentiveProtocol + ?Sized>(inner: &P) -> f64 {
    let mut h = fairness_stats::cache::StableHasher::new();
    h.write_str(inner.name());
    f64::from_bits(h.finish())
}

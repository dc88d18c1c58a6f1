//! Fork-aware adversarial network simulation — the hash-level counterpart
//! of `fairness_core::adversary`.
//!
//! [`super::network::NetworkSim`] never withholds a block: every lottery
//! winner immediately extends the single public chain. [`ForkNetSim`]
//! drops that assumption for one strategic miner (index 0): she maintains
//! a *private branch*, the consensus engine races public and private tips
//! on equal terms ([`Engine::run_on_tips`]), and her
//! [`Strategy`] decides after every block whether to keep withholding,
//! publish (reorging the network onto a longer branch, or opening an
//! equal-length tip race in which a fraction γ of honest power mines on
//! her tip), or adopt the public chain.
//!
//! Stake grinding is implemented mechanically: when the attacker assembles
//! a block on an SL-PoS chain she tries up to `tries` candidate nonces —
//! each changes the block hash and therefore every miner's next hit — and
//! keeps the first candidate under which she wins the next lottery (hits
//! are public, so this is computable by any node). At `tries = 1` the sim
//! is bit-identical to honest mining, and at frozen stakes the win rate
//! follows `fairness_stats::dist::stake_grinding_win_probability`
//! (enforced by tests below).
//!
//! Blocks are real [`Block`]s (header-hash-linked, carrying their coinbase)
//! but branches settle into win/stake counters rather than a
//! [`crate::chain::Chain`] — the fairness metrics need settled ownership,
//! and reorg-capable ledger replay is out of scope for this harness.

use crate::block::Block;
use crate::consensus::MinerProfile;
use crate::hash::Hash256;
use crate::sim::network::Engine;
use crate::transaction::Transaction;
use crate::u256::U256;
use fairness_core::adversary::{ForkAction, ForkEvent, ForkState, Strategy};
use fairness_stats::rng::Xoshiro256StarStar;

/// Configuration of a fork-aware adversarial network. Miner 0 is the
/// strategic miner; everyone else follows the longest published chain.
#[derive(Debug, Clone)]
pub struct ForkNetConfig {
    /// Consensus engine (PoW or SL-PoS — the per-block race engines).
    pub engine: Engine,
    /// Initial stake per miner, in atoms (PoS lottery weight).
    pub initial_stakes: Vec<u64>,
    /// Hash rate per miner (PoW lottery weight).
    pub hash_rates: Vec<u64>,
    /// Reward per settled block, in atoms (may be zero to freeze stakes).
    pub block_reward: u64,
    /// Salt folded into the genesis nonce. SL-PoS lotteries draw all
    /// randomness from the chain itself, so without a distinct salt every
    /// repetition of a zero-reward SL-PoS simulation replays the identical
    /// block sequence; Monte-Carlo harnesses pass the repetition index.
    pub genesis_salt: u64,
}

impl ForkNetConfig {
    fn miner_count(&self) -> usize {
        self.initial_stakes.len().max(self.hash_rates.len())
    }
}

/// A running fork-aware network: one strategic miner racing the honest
/// majority. See the module docs for the model.
#[derive(Debug)]
pub struct ForkNetSim<S: Strategy> {
    engine: Engine,
    strategy: S,
    block_reward: u64,
    miners: Vec<MinerProfile>,
    /// Settled staking power per miner (initial stake + settled rewards).
    stakes: Vec<u64>,
    /// Settled main-chain blocks per miner (excluding genesis).
    wins: Vec<u64>,
    /// The settled main chain, genesis first.
    settled: Vec<Block>,
    /// The attacker's withheld branch since the fork point.
    private: Vec<Block>,
    /// The honest branch since the fork point.
    public_fork: Vec<Block>,
    /// Whether the attacker's branch is published at equal length.
    published: bool,
    /// Orphaned blocks (never counted as revenue).
    orphaned: u64,
    clock: u64,
}

impl<S: Strategy> ForkNetSim<S> {
    /// Builds the network at genesis.
    ///
    /// # Panics
    /// Panics if no miners are configured.
    #[must_use]
    pub fn new(config: ForkNetConfig, strategy: S) -> Self {
        let m = config.miner_count();
        assert!(m > 0, "fork network needs at least one miner");
        let miners: Vec<MinerProfile> = (0..m)
            .map(|i| MinerProfile::new(i, config.hash_rates.get(i).copied().unwrap_or(0)))
            .collect();
        let mut stakes = config.initial_stakes.clone();
        stakes.resize(m, 0);
        let genesis = Block::assemble(
            0,
            Hash256::ZERO,
            0,
            U256::MAX,
            config.genesis_salt,
            miners[0].address,
            vec![],
        );
        Self {
            engine: config.engine,
            strategy,
            block_reward: config.block_reward,
            wins: vec![0; m],
            stakes,
            miners,
            settled: vec![genesis],
            private: Vec::new(),
            public_fork: Vec::new(),
            published: false,
            orphaned: 0,
            clock: 0,
        }
    }

    /// The fork state as a [`Strategy`] sees it.
    #[must_use]
    pub fn fork_state(&self) -> ForkState {
        ForkState {
            private: self.private.len() as u64,
            public: self.public_fork.len() as u64,
            published: self.published,
        }
    }

    fn tie_race(&self) -> bool {
        self.published && !self.private.is_empty() && self.private.len() == self.public_fork.len()
    }

    fn settled_tip(&self) -> Hash256 {
        self.settled.last().expect("genesis always present").hash()
    }

    fn private_tip(&self) -> Hash256 {
        self.private
            .last()
            .map_or_else(|| self.settled_tip(), Block::hash)
    }

    fn public_tip(&self) -> Hash256 {
        self.public_fork
            .last()
            .map_or_else(|| self.settled_tip(), Block::hash)
    }

    fn target(&self) -> U256 {
        match &self.engine {
            Engine::Pow(e) => e.target(),
            _ => U256::MAX,
        }
    }

    fn settle(&mut self, block: Block) {
        let proposer = block.header.proposer;
        let idx = self
            .miners
            .iter()
            .position(|m| m.address == proposer)
            .expect("settled block from a known miner");
        self.wins[idx] += 1;
        self.stakes[idx] += self.block_reward;
        self.settled.push(block);
    }

    fn publish_private(&mut self) {
        self.orphaned += self.public_fork.len() as u64;
        self.public_fork.clear();
        for block in std::mem::take(&mut self.private) {
            self.settle(block);
        }
        self.published = false;
    }

    fn adopt_public(&mut self) {
        self.orphaned += self.private.len() as u64;
        self.private.clear();
        for block in std::mem::take(&mut self.public_fork) {
            self.settle(block);
        }
        self.published = false;
    }

    // The transition rules below deliberately mirror
    // `fairness_core::adversary::ForkMachine` on a different substrate
    // (real blocks settling into counters, vs owner indices): the shared
    // closed-form tests pin both to the same laws, so a rule change on one
    // side without the other fails loudly rather than drifting silently.
    fn apply(&mut self, action: ForkAction) {
        match action {
            ForkAction::ExtendPrivate => {}
            ForkAction::Adopt => self.adopt_public(),
            ForkAction::Publish => {
                if self.private.len() > self.public_fork.len() {
                    self.publish_private();
                } else if self.private.len() == self.public_fork.len() && !self.private.is_empty() {
                    self.published = true;
                } else if self.private.len() < self.public_fork.len() {
                    self.adopt_public();
                }
            }
        }
    }

    /// Assembles the attacker's block, grinding candidate nonces on SL-PoS
    /// when her strategy asks for it: the first candidate under which she
    /// wins the *next* lottery is kept (evaluated at post-settlement
    /// stakes), falling back to the last candidate.
    fn assemble_attacker_block(&self, height: u64, prev: Hash256, base_nonce: u64) -> Block {
        let assemble = |nonce: u64| {
            let coinbase = Transaction::coinbase(self.miners[0].address, self.block_reward, height);
            Block::assemble(
                height,
                prev,
                self.clock,
                self.target(),
                nonce,
                self.miners[0].address,
                vec![coinbase],
            )
        };
        let tries = self.strategy.grinding_tries();
        let engine = match &self.engine {
            Engine::SlPos(engine) if tries > 1 => engine,
            _ => return assemble(base_nonce),
        };
        let mut next_stakes = self.stakes.clone();
        next_stakes[0] += self.block_reward;
        let mut candidate = assemble(0);
        for nonce in 1..u64::from(tries) {
            let next = engine.run_on_tips(
                &vec![candidate.hash(); self.miners.len()],
                &self.miners,
                &next_stakes,
            );
            if next.winner == 0 {
                break;
            }
            candidate = assemble(nonce);
        }
        candidate
    }

    /// Runs one network-wide block race and applies the strategy's
    /// response. Returns the index of the miner who found the block.
    pub fn step_block(&mut self, rng: &mut Xoshiro256StarStar) -> usize {
        let m = self.miners.len();
        let tie = self.tie_race();
        let gamma = self.strategy.gamma();
        // Per-miner tips: the attacker mines her own branch, honest miners
        // the public tip — except during a tie race, where each honest
        // miner works on the attacker's tip with probability γ.
        let mut tips = vec![self.public_tip(); m];
        let mut on_private = vec![false; m];
        tips[0] = self.private_tip();
        on_private[0] = true;
        if tie && gamma > 0.0 {
            let attacker_tip = tips[0];
            for i in 1..m {
                let u = rng.next() as f64 / (u64::MAX as f64);
                if u < gamma {
                    tips[i] = attacker_tip;
                    on_private[i] = true;
                }
            }
        }

        let outcome = self
            .engine
            .run_on_tips(&tips, &self.miners, &self.stakes, rng);
        self.clock += outcome.elapsed_ticks;
        let w = outcome.winner;

        if w == 0 {
            let height = (self.settled.len() + self.private.len()) as u64;
            let block = self.assemble_attacker_block(height, tips[0], outcome.nonce);
            self.private.push(block);
            self.apply(
                self.strategy
                    .decide(self.fork_state(), ForkEvent::SelfBlock),
            );
        } else {
            let height = if tie && on_private[w] {
                (self.settled.len() + self.private.len()) as u64
            } else {
                (self.settled.len() + self.public_fork.len()) as u64
            };
            let coinbase = Transaction::coinbase(self.miners[w].address, self.block_reward, height);
            let block = Block::assemble(
                height,
                tips[w],
                self.clock,
                self.target(),
                outcome.nonce,
                self.miners[w].address,
                vec![coinbase],
            );
            if tie && on_private[w] {
                // Honest power extended the attacker's published branch:
                // her blocks settle underneath, the public side orphans.
                self.orphaned += self.public_fork.len() as u64;
                self.public_fork.clear();
                for b in std::mem::take(&mut self.private) {
                    self.settle(b);
                }
                self.settle(block);
                self.published = false;
            } else {
                self.public_fork.push(block);
                self.apply(
                    self.strategy
                        .decide(self.fork_state(), ForkEvent::PublicBlock),
                );
            }
        }
        w
    }

    /// Runs `n` block races.
    pub fn run_blocks(&mut self, n: u64, rng: &mut Xoshiro256StarStar) {
        for _ in 0..n {
            self.step_block(rng);
        }
    }

    /// Ends the game: the strictly longer branch settles, an unresolved
    /// equal-length race orphans both sides.
    pub fn finalize(&mut self) {
        if self.private.len() > self.public_fork.len() {
            self.publish_private();
        } else if self.public_fork.len() > self.private.len() {
            self.adopt_public();
        } else {
            self.orphaned += (self.private.len() + self.public_fork.len()) as u64;
            self.private.clear();
            self.public_fork.clear();
            self.published = false;
        }
    }

    /// Settled main-chain height (excluding genesis).
    #[must_use]
    pub fn settled_height(&self) -> u64 {
        (self.settled.len() - 1) as u64
    }

    /// Settled blocks won by miner `i`.
    #[must_use]
    pub fn wins(&self, i: usize) -> u64 {
        self.wins[i]
    }

    /// Miner `i`'s fraction of the settled main chain.
    #[must_use]
    pub fn win_fraction(&self, i: usize) -> f64 {
        let n = self.settled_height();
        if n == 0 {
            0.0
        } else {
            self.wins[i] as f64 / n as f64
        }
    }

    /// The attacker's share of the settled chain — Eyal–Sirer relative
    /// revenue (orphans excluded from both sides).
    #[must_use]
    pub fn relative_revenue(&self) -> f64 {
        self.win_fraction(0)
    }

    /// Blocks orphaned by fork resolution so far.
    #[must_use]
    pub fn orphaned(&self) -> u64 {
        self.orphaned
    }

    /// Settled staking power of miner `i` (initial + settled rewards).
    #[must_use]
    pub fn stake(&self, i: usize) -> u64 {
        self.stakes[i]
    }

    /// The settled main chain, genesis first.
    #[must_use]
    pub fn settled_chain(&self) -> &[Block] {
        &self.settled
    }

    /// The simulated clock, in ticks.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{PowEngine, SlPosEngine};
    use crate::difficulty::target_for_expected_interval;
    use fairness_core::adversary::{Honest, SelfishMining, StakeGrinding};
    use fairness_core::theory::slpos::win_probability_two_miner;
    use fairness_stats::dist::{selfish_mining_relative_revenue, stake_grinding_win_probability};

    fn pow_config(rates: Vec<u64>, interval: u64) -> ForkNetConfig {
        let total: u64 = rates.iter().sum();
        ForkNetConfig {
            engine: Engine::Pow(PowEngine::new(target_for_expected_interval(
                total, interval,
            ))),
            initial_stakes: vec![0; rates.len()],
            hash_rates: rates,
            block_reward: 100,
            genesis_salt: 0,
        }
    }

    fn slpos_config(stakes: Vec<u64>, reward: u64) -> ForkNetConfig {
        ForkNetConfig {
            engine: Engine::SlPos(SlPosEngine::new(1_000_000)),
            hash_rates: vec![0; stakes.len()],
            initial_stakes: stakes,
            block_reward: reward,
            genesis_salt: 0,
        }
    }

    #[test]
    fn honest_pow_revenue_matches_hash_share() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut sim = ForkNetSim::new(pow_config(vec![2, 8], 8), Honest);
        sim.run_blocks(2500, &mut rng);
        sim.finalize();
        assert_eq!(sim.orphaned(), 0, "honest mining never orphans");
        assert_eq!(sim.settled_height(), 2500);
        let r = sim.relative_revenue();
        // SE ≈ sqrt(0.2·0.8/2500) ≈ 0.008; allow ~4.5σ.
        assert!((r - 0.2).abs() < 0.036, "revenue {r}");
    }

    #[test]
    fn selfish_pow_beats_fair_share_above_threshold() {
        // α = 0.4, γ = 0: closed form ≈ 0.484. The hash-level race is not
        // the exact Bernoulli event model (same-tick collisions exist), so
        // the tolerance is loose — the rigorous CI-level validation runs
        // against the model driver in fairness-core.
        let mut rng = Xoshiro256StarStar::new(2);
        let mut sim = ForkNetSim::new(pow_config(vec![4, 6], 8), SelfishMining::new(0.0));
        sim.run_blocks(4000, &mut rng);
        sim.finalize();
        let r = sim.relative_revenue();
        let exact = selfish_mining_relative_revenue(0.4, 0.0);
        assert!((r - exact).abs() < 0.05, "revenue {r} vs closed {exact}");
        assert!(
            r > 0.42,
            "selfish mining at α=0.4 must beat fair share: {r}"
        );
        assert!(sim.orphaned() > 0, "withholding must orphan honest work");
    }

    #[test]
    fn selfish_pow_gamma_one_profitable_below_one_third() {
        // γ = 1 drops the threshold to 0: even α = 0.3 profits.
        let mut rng = Xoshiro256StarStar::new(3);
        let mut sim = ForkNetSim::new(pow_config(vec![3, 7], 8), SelfishMining::new(1.0));
        sim.run_blocks(4000, &mut rng);
        sim.finalize();
        let r = sim.relative_revenue();
        let exact = selfish_mining_relative_revenue(0.3, 1.0);
        assert!(r > 0.3, "γ=1 selfish mining at α=0.3 must profit: {r}");
        assert!((r - exact).abs() < 0.05, "revenue {r} vs closed {exact}");
    }

    #[test]
    fn grinding_one_try_is_bit_identical_to_honest() {
        let run = |strategy_blocks: &mut dyn FnMut(&mut Xoshiro256StarStar) -> Vec<Hash256>| {
            let mut rng = Xoshiro256StarStar::new(4);
            strategy_blocks(&mut rng)
        };
        let honest = run(&mut |rng| {
            let mut sim = ForkNetSim::new(slpos_config(vec![200_000, 800_000], 1_000), Honest);
            sim.run_blocks(300, rng);
            sim.settled_chain().iter().map(Block::hash).collect()
        });
        let ground = run(&mut |rng| {
            let mut sim = ForkNetSim::new(
                slpos_config(vec![200_000, 800_000], 1_000),
                StakeGrinding::new(1),
            );
            sim.run_blocks(300, rng);
            sim.settled_chain().iter().map(Block::hash).collect()
        });
        assert_eq!(honest, ground, "tries=1 must be bit-identical to honest");
    }

    #[test]
    fn grinding_rate_matches_closed_form_at_frozen_stakes() {
        // Zero reward freezes stakes, isolating the grinding Markov chain.
        let a = 0.2;
        let p = win_probability_two_miner(a);
        for tries in [2u32, 8] {
            let mut rng = Xoshiro256StarStar::new(5 + u64::from(tries));
            let mut sim = ForkNetSim::new(
                slpos_config(vec![200_000, 800_000], 0),
                StakeGrinding::new(tries),
            );
            sim.run_blocks(20_000, &mut rng);
            let r = sim.win_fraction(0);
            let exact = stake_grinding_win_probability(p, tries);
            // SE ≈ sqrt(0.18·0.82/20000) ≈ 0.0027; allow ~4.5σ.
            assert!(
                (r - exact).abs() < 0.013,
                "tries={tries}: rate {r} vs closed {exact}"
            );
        }
    }

    #[test]
    fn grinding_accelerates_rich_get_richer_on_slpos() {
        // With compounding rewards the whale's grinding advantage feeds
        // back into stake: the attacker (80%) monopolizes faster.
        let run = |tries: u32| {
            let mut rng = Xoshiro256StarStar::new(6);
            let mut sim = ForkNetSim::new(
                slpos_config(vec![800_000, 200_000], 20_000),
                StakeGrinding::new(tries),
            );
            sim.run_blocks(600, &mut rng);
            sim.win_fraction(0)
        };
        let honest = run(1);
        let ground = run(8);
        assert!(
            ground >= honest,
            "grinding should not lose blocks: {ground} vs {honest}"
        );
    }

    #[test]
    fn settled_chain_links_and_heights_are_consistent() {
        let mut rng = Xoshiro256StarStar::new(7);
        let mut sim = ForkNetSim::new(pow_config(vec![4, 6], 6), SelfishMining::new(0.5));
        sim.run_blocks(500, &mut rng);
        sim.finalize();
        let chain = sim.settled_chain();
        for (i, pair) in chain.windows(2).enumerate() {
            assert_eq!(pair[1].header.prev_hash, pair[0].hash(), "link at {i}");
            assert_eq!(pair[1].header.height, pair[0].header.height + 1);
        }
        // Wins account for every settled block.
        let total: u64 = (0..2).map(|i| sim.wins(i)).sum();
        assert_eq!(total, sim.settled_height());
    }

    #[test]
    #[should_panic(expected = "PoW and SL-PoS")]
    fn tip_racing_rejects_mlpos() {
        use crate::consensus::MlPosEngine;
        let config = ForkNetConfig {
            engine: Engine::MlPos(MlPosEngine::for_expected_interval(1_000_000, 20)),
            initial_stakes: vec![200_000, 800_000],
            hash_rates: vec![],
            block_reward: 100,
            genesis_salt: 0,
        };
        let mut rng = Xoshiro256StarStar::new(8);
        let mut sim = ForkNetSim::new(config, Honest);
        sim.step_block(&mut rng);
    }

    #[test]
    fn zero_height_and_zero_rate_fractions_are_finite() {
        // Degenerate regression: a sim that has settled nothing (and one
        // whose attacker has zero hash rate) must report exactly 0.0, not
        // NaN, so downstream CSVs stay well-formed.
        let fresh = ForkNetSim::new(pow_config(vec![4, 6], 6), SelfishMining::new(0.5));
        assert_eq!(fresh.settled_height(), 0);
        assert_eq!(fresh.win_fraction(0), 0.0);
        assert_eq!(fresh.relative_revenue(), 0.0);

        let mut rng = Xoshiro256StarStar::new(9);
        let mut sim = ForkNetSim::new(pow_config(vec![0, 10], 6), SelfishMining::new(0.5));
        sim.run_blocks(200, &mut rng);
        sim.finalize();
        let r = sim.relative_revenue();
        assert!(r.is_finite());
        assert_eq!(r, 0.0, "powerless attacker can settle nothing");
    }
}

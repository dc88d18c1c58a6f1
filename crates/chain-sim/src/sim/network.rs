//! Multi-node network simulation.
//!
//! [`NetworkSim`] plays the role of the paper's EC2 deployments (two Geth,
//! Qtum or NXT nodes mining against each other): it maintains a real chain
//! with Merkle-committed bodies, a ledger with exact stake accounting, a
//! first-in, first-out mempool of synthetic user transfers (authorized
//! only when a block includes them), and a consensus engine running the
//! hash-level lottery for every block. [`CPosSim`] is the epoch-based
//! equivalent for C-PoS.

use super::EventQueue;
use crate::account::{Address, Ledger};
use crate::block::Block;
use crate::chain::{Chain, ChainError};
use crate::consensus::{
    BlockLottery, CPosEngine, EpochOutcome, FslPosEngine, MinerProfile, MlPosEngine, PowEngine,
    SlPosEngine,
};
use crate::hash::Hash256;
use crate::mempool::Mempool;
use crate::transaction::{Transaction, TxKind};
use crate::u256::U256;
use fairness_stats::rng::Xoshiro256StarStar;

/// A block-lottery engine selection.
#[derive(Debug, Clone)]
pub enum Engine {
    /// Proof-of-Work (Section 2.1).
    Pow(PowEngine),
    /// Multi-lottery PoS (Section 2.2).
    MlPos(MlPosEngine),
    /// Single-lottery PoS (Section 2.3).
    SlPos(SlPosEngine),
    /// Fair single-lottery PoS (Section 6.2).
    FslPos(FslPosEngine),
}

impl Engine {
    fn as_lottery(&self) -> &dyn BlockLottery {
        match self {
            Engine::Pow(e) => e,
            Engine::MlPos(e) => e,
            Engine::SlPos(e) => e,
            Engine::FslPos(e) => e,
        }
    }

    /// Engine name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.as_lottery().name()
    }

    /// Runs the block lottery with **per-miner parent tips**, so a
    /// withholding miner's private branch races the public branch on equal
    /// terms (see [`super::fork::ForkNetSim`]). Tip racing is implemented
    /// for the engines whose lotteries are per-block races — PoW and
    /// SL-PoS; the kernel/treated engines (ML-PoS, FSL-PoS) have no
    /// adversarial fork model here yet.
    ///
    /// # Panics
    /// Panics for ML-PoS/FSL-PoS engines, or on invalid inputs (length
    /// mismatches, no viable miner).
    #[must_use]
    pub fn run_on_tips(
        &self,
        tips: &[Hash256],
        miners: &[MinerProfile],
        stakes: &[u64],
        rng: &mut Xoshiro256StarStar,
    ) -> crate::consensus::LotteryOutcome {
        match self {
            Engine::Pow(e) => e.run_on_tips(tips, miners, stakes, rng),
            Engine::SlPos(e) => e.run_on_tips(tips, miners, stakes),
            Engine::MlPos(_) | Engine::FslPos(_) => {
                panic!("tip racing is implemented for PoW and SL-PoS engines only")
            }
        }
    }
}

/// Bitcoin-style periodic difficulty retargeting for PoW networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowRetarget {
    /// Retarget every this many blocks (Bitcoin: 2016).
    pub every_blocks: u64,
    /// Design block interval in ticks.
    pub target_interval: u64,
}

/// Configuration of a block-lottery network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Consensus engine.
    pub engine: Engine,
    /// Initial stake per miner, in atoms (PoS engines read these; PoW
    /// ignores them for the lottery but they still live in the ledger).
    pub initial_stakes: Vec<u64>,
    /// Hash rate per miner (PoW only).
    pub hash_rates: Vec<u64>,
    /// Block reward in atoms (the paper's `w`, scaled by the atom unit).
    pub block_reward: u64,
    /// Synthetic user transactions included per block.
    pub txs_per_block: usize,
    /// Block propagation delay in ticks, added to the clock per block.
    pub propagation_delay: u64,
    /// Optional PoW difficulty retargeting rule.
    pub pow_retarget: Option<PowRetarget>,
}

impl NetworkConfig {
    fn miner_count(&self) -> usize {
        self.initial_stakes.len().max(self.hash_rates.len())
    }
}

/// Internal network events.
#[derive(Debug, Clone, Copy)]
enum NetEvent {
    /// A synthetic user transfer enters the mempool.
    TxArrival { user: usize },
}

/// A running block-lottery network.
#[derive(Debug)]
pub struct NetworkSim {
    config: NetworkConfig,
    miners: Vec<MinerProfile>,
    /// Per-miner staking power in atoms, kept in lock-step with the ledger.
    stakes: Vec<u64>,
    wins: Vec<u64>,
    chain: Chain,
    ledger: Ledger,
    mempool: Mempool,
    events: EventQueue<NetEvent>,
    clock: u64,
    /// Synthetic user population (non-miner accounts feeding the mempool).
    users: Vec<Address>,
    user_nonces: Vec<u64>,
    /// Clock value at the last PoW retarget boundary.
    last_retarget_clock: u64,
}

impl NetworkSim {
    /// Funds granted to each synthetic user at genesis.
    pub(crate) const USER_FUNDS: u64 = 1_000_000;
    /// Number of synthetic users.
    pub(crate) const USER_COUNT: usize = 8;

    /// Builds the network: genesis block, genesis stake allocation, miner
    /// profiles and initial user traffic schedule.
    ///
    /// # Panics
    /// Panics if no miners are configured.
    #[must_use]
    pub fn new(config: NetworkConfig, rng: &mut Xoshiro256StarStar) -> Self {
        let m = config.miner_count();
        assert!(m > 0, "network needs at least one miner");
        let miners: Vec<MinerProfile> = (0..m)
            .map(|i| MinerProfile::new(i, config.hash_rates.get(i).copied().unwrap_or(0)))
            .collect();
        let mut stakes = config.initial_stakes.clone();
        stakes.resize(m, 0);

        // Genesis allocation: miner stakes plus synthetic user balances.
        let mut alloc: Vec<(Address, u64)> = miners
            .iter()
            .zip(&stakes)
            .map(|(mp, &s)| (mp.address, s))
            .collect();
        let users: Vec<Address> = (0..Self::USER_COUNT)
            .map(|i| Address::for_miner(1000 + i))
            .collect();
        for &u in &users {
            alloc.push((u, Self::USER_FUNDS));
        }
        let ledger = Ledger::with_genesis(&alloc);

        let genesis = Block::assemble(0, Hash256::ZERO, 0, U256::MAX, 0, miners[0].address, vec![]);
        let chain = Chain::new(genesis);

        let mut events = EventQueue::new();
        // Seed a little initial user traffic.
        for (i, _) in users.iter().enumerate() {
            events.schedule(rng.gen_range(1..20), NetEvent::TxArrival { user: i });
        }

        Self {
            wins: vec![0; m],
            miners,
            stakes,
            chain,
            ledger,
            mempool: Mempool::new(),
            events,
            clock: 0,
            user_nonces: vec![0; users.len()],
            users,
            config,
            last_retarget_clock: 0,
        }
    }

    /// The simulated clock, in ticks.
    #[must_use]
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The chain.
    #[must_use]
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The ledger.
    #[must_use]
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Current staking power of miner `i`, in atoms.
    #[must_use]
    pub fn stake(&self, i: usize) -> u64 {
        self.stakes[i]
    }

    /// Blocks won by miner `i` (excluding genesis).
    #[must_use]
    pub fn wins(&self, i: usize) -> u64 {
        self.wins[i]
    }

    /// Fraction of blocks won by miner `i` — the measured `λ_i`.
    #[must_use]
    pub fn win_fraction(&self, i: usize) -> f64 {
        let n = self.chain.height();
        if n == 0 {
            0.0
        } else {
            self.wins[i] as f64 / n as f64
        }
    }

    /// Drains due user-traffic events into the mempool.
    fn pump_traffic(&mut self, rng: &mut Xoshiro256StarStar) {
        while self.events.peek_time().is_some_and(|t| t <= self.clock) {
            let (_, event) = self.events.pop().expect("peeked event");
            match event {
                NetEvent::TxArrival { user } => {
                    let from = self.users[user];
                    let offset = rng.gen_range(0..self.users.len() as u64 - 1) as usize;
                    let to = self.users[(user + 1 + offset) % self.users.len()];
                    let amount = rng.gen_range(1..100u64);
                    if self.ledger.balance(&from) > amount {
                        self.mempool.push(from, to, amount, self.user_nonces[user]);
                        self.user_nonces[user] += 1;
                    }
                    // Re-schedule this user's next transfer.
                    let next = self.clock + rng.gen_range(5..50u64);
                    self.events.schedule(next, NetEvent::TxArrival { user });
                }
            }
        }
    }

    /// Mines one block end-to-end: lottery, block assembly, validation,
    /// ledger application, stake update.
    ///
    /// # Panics
    /// Panics if internal consistency is violated (a bug, not an input
    /// error) — e.g. a self-produced block failing validation.
    pub fn step_block(&mut self, rng: &mut Xoshiro256StarStar) {
        let prev = self.chain.tip_hash();
        let height = self.chain.height() + 1;
        let outcome =
            self.config
                .engine
                .as_lottery()
                .run(&prev, height, &self.miners, &self.stakes, rng);
        self.clock += outcome.elapsed_ticks + self.config.propagation_delay;
        self.pump_traffic(rng);

        let winner = &self.miners[outcome.winner];
        let mut body = vec![TxKind::Coinbase {
            to: winner.address,
            reward: self.config.block_reward,
            height,
        }];
        body.extend(self.mempool.take(self.config.txs_per_block));
        let txs = Transaction::authorize_all(&body);

        let target = match &self.config.engine {
            Engine::Pow(e) => e.target(),
            Engine::MlPos(e) => e.difficulty(),
            _ => U256::MAX,
        };
        let block = Block::assemble(
            height,
            prev,
            self.clock,
            target,
            outcome.nonce,
            winner.address,
            txs,
        );
        let engine = self.config.engine.as_lottery();
        let miners = &self.miners;
        let stakes = &self.stakes;
        self.chain
            .try_append(block, |b| {
                b.header.proposer == miners[outcome.winner].address
                    && engine.verify(&prev, height, miners, stakes, &outcome)
            })
            .expect("self-produced block must validate");

        // Apply the block to the ledger.
        for tx in &self.chain.tip().transactions {
            match tx.kind {
                TxKind::Coinbase { to, reward, .. } => {
                    self.ledger.credit(to, reward).expect("reward credit");
                }
                TxKind::Transfer {
                    from,
                    to,
                    amount,
                    nonce,
                    ..
                } => {
                    // Synthetic traffic is pre-validated; a failure here is
                    // a sequencing bug worth surfacing loudly in sims.
                    self.ledger
                        .transfer(from, to, amount, nonce)
                        .expect("mempool transaction must apply");
                }
            }
        }
        self.stakes[outcome.winner] += self.config.block_reward;
        self.wins[outcome.winner] += 1;
        // Per-block retarget keeps ML-PoS intervals at design value as the
        // staked supply grows (see MlPosEngine::retarget).
        if let Engine::MlPos(e) = &mut self.config.engine {
            let total: u64 = self.stakes.iter().sum();
            e.retarget(total);
        }
        // Bitcoin-style epoch retarget for PoW.
        if let Some(rule) = self.config.pow_retarget {
            if self.chain.height().is_multiple_of(rule.every_blocks) {
                if let Engine::Pow(e) = &mut self.config.engine {
                    let actual = (self.clock - self.last_retarget_clock).max(1);
                    let expected = rule.target_interval * rule.every_blocks;
                    e.set_target(crate::difficulty::bitcoin_retarget(
                        e.target(),
                        actual,
                        expected,
                    ));
                    self.last_retarget_clock = self.clock;
                }
            }
        }
        debug_assert!(self.ledger.check_supply_invariant());
        debug_assert_eq!(
            self.stakes[outcome.winner],
            self.ledger.balance(&self.miners[outcome.winner].address),
            "stake cache must mirror ledger"
        );
    }

    /// Mines `n` blocks.
    pub fn run_blocks(&mut self, n: u64, rng: &mut Xoshiro256StarStar) {
        for _ in 0..n {
            self.step_block(rng);
        }
    }
}

/// Epoch-based C-PoS network (Section 2.4). Each epoch appends one block
/// per shard and distributes proposer + attester rewards exactly.
#[derive(Debug)]
pub struct CPosSim {
    engine: CPosEngine,
    miners: Vec<MinerProfile>,
    stakes: Vec<u64>,
    /// Total atoms earned by each miner since genesis.
    earned: Vec<u64>,
    chain: Chain,
    ledger: Ledger,
    epoch: u64,
    clock: u64,
    /// Ticks per epoch (Ethereum 2.0: 32 slots × 12 s).
    epoch_ticks: u64,
}

impl CPosSim {
    /// Builds a C-PoS network with the given engine and initial stakes.
    ///
    /// # Panics
    /// Panics if `initial_stakes` is empty.
    #[must_use]
    pub fn new(engine: CPosEngine, initial_stakes: &[u64], epoch_ticks: u64) -> Self {
        assert!(!initial_stakes.is_empty(), "C-PoS needs at least one miner");
        let miners: Vec<MinerProfile> = (0..initial_stakes.len())
            .map(|i| MinerProfile::new(i, 0))
            .collect();
        let alloc: Vec<(Address, u64)> = miners
            .iter()
            .zip(initial_stakes)
            .map(|(mp, &s)| (mp.address, s))
            .collect();
        let ledger = Ledger::with_genesis(&alloc);
        let genesis = Block::assemble(0, Hash256::ZERO, 0, U256::MAX, 0, miners[0].address, vec![]);
        Self {
            engine,
            earned: vec![0; initial_stakes.len()],
            stakes: initial_stakes.to_vec(),
            miners,
            chain: Chain::new(genesis),
            ledger,
            epoch: 0,
            clock: 0,
            epoch_ticks,
        }
    }

    /// Completed epochs.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The chain (one block per shard per epoch).
    #[must_use]
    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    /// The ledger.
    #[must_use]
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Current stake of miner `i`.
    #[must_use]
    pub fn stake(&self, i: usize) -> u64 {
        self.stakes[i]
    }

    /// Reward fraction earned by miner `i` so far — the paper's `λ_i` for
    /// C-PoS (`earned / ((w+v)·epochs)`).
    #[must_use]
    pub fn reward_fraction(&self, i: usize) -> f64 {
        let issued = self.epoch * (self.engine.proposer_reward() + self.engine.attester_reward());
        if issued == 0 {
            0.0
        } else {
            self.earned[i] as f64 / issued as f64
        }
    }

    /// Runs one epoch: shard lotteries, shard blocks, exact reward split.
    /// The lotteries are beacon-driven, so an epoch draws no randomness.
    pub fn step_epoch(&mut self) -> EpochOutcome {
        let prev = self.chain.tip_hash();
        let outcome = self
            .engine
            .run_epoch(&prev, self.epoch, &self.miners, &self.stakes);
        self.clock += self.epoch_ticks;
        // One block per shard; rewards are settled at epoch end below, so
        // shard blocks carry no coinbase (Ethereum 2.0 separates issuance).
        for (shard, &proposer) in outcome.shard_proposers.iter().enumerate() {
            let height = self.chain.height() + 1;
            let parent = self.chain.tip_hash();
            let block = Block::assemble(
                height,
                parent,
                self.clock - self.epoch_ticks + 1 + shard as u64,
                U256::MAX,
                0,
                self.miners[proposer].address,
                vec![],
            );
            self.chain
                .try_append(block, |_| true)
                .expect("self-produced shard block must validate");
        }
        for (i, &reward) in outcome.rewards.iter().enumerate() {
            if reward > 0 {
                self.ledger
                    .credit(self.miners[i].address, reward)
                    .expect("epoch reward credit");
                self.stakes[i] += reward;
                self.earned[i] += reward;
            }
        }
        self.epoch += 1;
        debug_assert!(self.ledger.check_supply_invariant());
        outcome
    }

    /// Runs `n` epochs.
    pub fn run_epochs(&mut self, n: u64) {
        for _ in 0..n {
            self.step_epoch();
        }
    }
}

/// Convenience: the error type chains surface on invalid appends.
pub type NetworkError = ChainError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::difficulty::target_for_expected_interval;

    fn mlpos_config(stakes: Vec<u64>, reward: u64) -> NetworkConfig {
        let total: u64 = stakes.iter().sum();
        NetworkConfig {
            engine: Engine::MlPos(MlPosEngine::for_expected_interval(total, 20)),
            initial_stakes: stakes,
            hash_rates: vec![],
            block_reward: reward,
            txs_per_block: 4,
            propagation_delay: 2,
            pow_retarget: None,
        }
    }

    #[test]
    fn mlpos_network_mines_and_accounts() {
        let mut rng = Xoshiro256StarStar::new(1);
        let mut net = NetworkSim::new(mlpos_config(vec![200_000, 800_000], 10_000), &mut rng);
        net.run_blocks(50, &mut rng);
        assert_eq!(net.chain().height(), 50);
        // Supply: genesis (1e6 stakes + 8 users × 1e6) + 50 rewards.
        let expect_supply = 1_000_000 + 8 * 1_000_000 + 50 * 10_000;
        assert_eq!(net.ledger().total_supply(), expect_supply);
        assert!(net.ledger().check_supply_invariant());
        // Stake mirrors ledger.
        assert_eq!(net.stake(0), net.ledger().balance(&Address::for_miner(0)));
        // Wins sum to height.
        assert_eq!(net.wins(0) + net.wins(1), 50);
        let lam = net.win_fraction(0) + net.win_fraction(1);
        assert!((lam - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pow_network_with_difficulty() {
        let mut rng = Xoshiro256StarStar::new(2);
        let config = NetworkConfig {
            engine: Engine::Pow(PowEngine::new(target_for_expected_interval(10, 5))),
            initial_stakes: vec![0, 0],
            hash_rates: vec![2, 8],
            block_reward: 100,
            txs_per_block: 2,
            propagation_delay: 1,
            pow_retarget: None,
        };
        let mut net = NetworkSim::new(config, &mut rng);
        net.run_blocks(30, &mut rng);
        assert_eq!(net.chain().height(), 30);
        assert!(net.clock() > 30, "clock advances with lottery time");
    }

    #[test]
    fn slpos_network_rich_accumulates() {
        let mut rng = Xoshiro256StarStar::new(3);
        let config = NetworkConfig {
            engine: Engine::SlPos(SlPosEngine::new(1_000)),
            initial_stakes: vec![200_000, 800_000],
            hash_rates: vec![],
            block_reward: 10_000,
            txs_per_block: 0,
            propagation_delay: 0,
            pow_retarget: None,
        };
        let mut net = NetworkSim::new(config, &mut rng);
        net.run_blocks(400, &mut rng);
        // Rich miner should win clearly more than her 80% share over time
        // (SL-PoS advantage compounding).
        let frac_b = net.win_fraction(1);
        assert!(frac_b > 0.8, "rich miner fraction {frac_b}");
    }

    #[test]
    fn chain_bodies_carry_user_transactions() {
        let mut rng = Xoshiro256StarStar::new(4);
        let mut net = NetworkSim::new(mlpos_config(vec![500_000, 500_000], 1_000), &mut rng);
        net.run_blocks(40, &mut rng);
        let user_txs: usize = net
            .chain()
            .iter()
            .map(|b| b.transactions.iter().filter(|t| !t.is_coinbase()).count())
            .sum();
        assert!(user_txs > 0, "synthetic traffic should land in blocks");
        // All blocks internally consistent.
        for b in net.chain().iter() {
            assert!(b.merkle_root_valid());
        }
    }

    #[test]
    fn pow_retarget_recovers_design_interval() {
        // Start with a target 8× too easy (expected interval 1 tick instead
        // of 8); retargeting every 32 blocks should pull the realized
        // interval back toward the design value.
        let mut rng = Xoshiro256StarStar::new(17);
        let design_interval = 8u64;
        let config = NetworkConfig {
            engine: Engine::Pow(PowEngine::new(target_for_expected_interval(10, 1))),
            initial_stakes: vec![0, 0],
            hash_rates: vec![2, 8],
            block_reward: 100,
            txs_per_block: 0,
            propagation_delay: 0,
            pow_retarget: Some(PowRetarget {
                every_blocks: 32,
                target_interval: design_interval,
            }),
        };
        let mut net = NetworkSim::new(config, &mut rng);
        // Burn-in through several retarget epochs.
        net.run_blocks(320, &mut rng);
        let clock_before = net.clock();
        let height_before = net.chain().height();
        net.run_blocks(160, &mut rng);
        let realized =
            (net.clock() - clock_before) as f64 / (net.chain().height() - height_before) as f64;
        assert!(
            (realized - design_interval as f64).abs() < design_interval as f64 * 0.5,
            "realized interval {realized} vs design {design_interval}"
        );
    }

    #[test]
    fn cpos_sim_epoch_accounting() {
        let engine = CPosEngine::new(32, 1_000, 10_000);
        let mut sim = CPosSim::new(engine, &[200_000, 800_000], 384);
        sim.run_epochs(20);
        assert_eq!(sim.epoch(), 20);
        // 32 shard blocks per epoch.
        assert_eq!(sim.chain().height(), 20 * 32);
        // Supply grew by exactly (w + v) per epoch.
        assert_eq!(sim.ledger().total_supply(), 1_000_000 + 20 * 11_000);
        // Reward fractions sum to 1.
        let total_frac = sim.reward_fraction(0) + sim.reward_fraction(1);
        assert!((total_frac - 1.0).abs() < 1e-9, "{total_frac}");
    }

    #[test]
    fn cpos_reward_fraction_near_stake_share() {
        let engine = CPosEngine::new(32, 1_000, 10_000);
        let mut sim = CPosSim::new(engine, &[200_000, 800_000], 384);
        sim.run_epochs(200);
        let f = sim.reward_fraction(0);
        // Inflation-dominated: should be near 0.2 quickly.
        assert!((f - 0.2).abs() < 0.05, "fraction {f}");
    }
}

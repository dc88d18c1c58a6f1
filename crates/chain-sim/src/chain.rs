//! The block chain store: append-only, validated, with proposer statistics.

use crate::account::Address;
use crate::block::Block;
use crate::hash::Hash256;
use std::collections::HashMap;
use std::fmt;

/// Errors from chain validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// Block height is not `tip height + 1`.
    BadHeight {
        /// Height the chain expected.
        expected: u64,
        /// Height the block carried.
        got: u64,
    },
    /// Previous-hash link does not match the tip.
    BadParent,
    /// Merkle root does not commit to the body.
    BadMerkleRoot,
    /// Timestamp is not monotone non-decreasing.
    BadTimestamp,
    /// A transaction failed its authorization check.
    BadTransaction,
    /// The proof check supplied by the consensus engine failed.
    BadProof,
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::BadHeight { expected, got } => {
                write!(f, "bad height: expected {expected}, got {got}")
            }
            ChainError::BadParent => write!(f, "previous hash does not match tip"),
            ChainError::BadMerkleRoot => write!(f, "merkle root mismatch"),
            ChainError::BadTimestamp => write!(f, "non-monotone timestamp"),
            ChainError::BadTransaction => write!(f, "invalid transaction authorization"),
            ChainError::BadProof => write!(f, "consensus proof check failed"),
        }
    }
}

impl std::error::Error for ChainError {}

/// An append-only validated chain.
#[derive(Debug, Clone)]
pub struct Chain {
    blocks: Vec<Block>,
    /// Header hash of the tip, kept so that appends hash each header once.
    tip_hash: Hash256,
    by_hash: HashMap<Hash256, u64>,
    wins: HashMap<Address, u64>,
}

impl Chain {
    /// Creates a chain from a genesis block (validated structurally only).
    #[must_use]
    pub fn new(genesis: Block) -> Self {
        let mut chain = Self {
            blocks: Vec::new(),
            tip_hash: Hash256::ZERO,
            by_hash: HashMap::new(),
            wins: HashMap::new(),
        };
        chain.index(&genesis);
        chain.blocks.push(genesis);
        chain
    }

    /// Indexes a block about to become the tip.
    fn index(&mut self, block: &Block) {
        self.tip_hash = block.hash();
        self.by_hash.insert(self.tip_hash, block.header.height);
        if block.header.height > 0 {
            *self.wins.entry(block.header.proposer).or_insert(0) += 1;
        }
    }

    /// The tip block.
    #[must_use]
    pub fn tip(&self) -> &Block {
        self.blocks.last().expect("chain always has genesis")
    }

    /// The tip's header hash, computed once when the tip was appended.
    #[must_use]
    pub fn tip_hash(&self) -> Hash256 {
        self.tip_hash
    }

    /// Chain height (genesis = 0).
    #[must_use]
    pub fn height(&self) -> u64 {
        self.tip().header.height
    }

    /// Number of blocks including genesis.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether only the genesis block exists.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.len() <= 1
    }

    /// Block at `height`.
    #[must_use]
    pub fn block_at(&self, height: u64) -> Option<&Block> {
        self.blocks.get(height as usize)
    }

    /// Looks a block up by hash.
    #[must_use]
    pub fn block_by_hash(&self, hash: &Hash256) -> Option<&Block> {
        self.by_hash.get(hash).and_then(|&h| self.block_at(h))
    }

    /// Number of non-genesis blocks proposed by `addr`.
    #[must_use]
    pub fn wins(&self, addr: &Address) -> u64 {
        self.wins.get(addr).copied().unwrap_or(0)
    }

    /// Fraction of non-genesis blocks proposed by `addr` — the paper's
    /// `λ_A` measured directly from chain data.
    #[must_use]
    pub fn win_fraction(&self, addr: &Address) -> f64 {
        let total = self.height();
        if total == 0 {
            return 0.0;
        }
        self.wins(addr) as f64 / total as f64
    }

    /// Validates and appends a block. `proof_check` is the engine-specific
    /// validity rule (e.g. `header hash < target` for PoW).
    pub fn try_append<F>(&mut self, block: Block, proof_check: F) -> Result<(), ChainError>
    where
        F: FnOnce(&Block) -> bool,
    {
        let tip = self.tip();
        let expected = tip.header.height + 1;
        if block.header.height != expected {
            return Err(ChainError::BadHeight {
                expected,
                got: block.header.height,
            });
        }
        if block.header.prev_hash != self.tip_hash {
            return Err(ChainError::BadParent);
        }
        if block.header.timestamp < tip.header.timestamp {
            return Err(ChainError::BadTimestamp);
        }
        block.check_body()?;
        if !proof_check(&block) {
            return Err(ChainError::BadProof);
        }
        self.index(&block);
        self.blocks.push(block);
        Ok(())
    }

    /// Iterates over all blocks from genesis to tip.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;
    use crate::u256::U256;

    fn genesis() -> Block {
        Block::assemble(
            0,
            Hash256::ZERO,
            0,
            U256::MAX,
            0,
            Address::for_miner(0),
            vec![],
        )
    }

    fn child(parent: &Block, height: u64, proposer: usize) -> Block {
        let addr = Address::for_miner(proposer);
        Block::assemble(
            height,
            parent.hash(),
            parent.header.timestamp + 10,
            U256::MAX,
            0,
            addr,
            vec![Transaction::coinbase(addr, 50, height)],
        )
    }

    #[test]
    fn append_valid_blocks() {
        let g = genesis();
        let mut chain = Chain::new(g);
        let b1 = child(chain.tip(), 1, 1);
        chain.try_append(b1, |_| true).expect("append 1");
        let b2 = child(chain.tip(), 2, 2);
        chain.try_append(b2, |_| true).expect("append 2");
        assert_eq!(chain.height(), 2);
        assert_eq!(chain.len(), 3);
        assert!(!chain.is_empty());
        assert_eq!(chain.tip_hash(), chain.tip().hash());
    }

    #[test]
    fn rejects_bad_height() {
        let mut chain = Chain::new(genesis());
        let mut b = child(chain.tip(), 5, 1);
        b.header.height = 5;
        let err = chain.try_append(b, |_| true).expect_err("bad height");
        assert_eq!(
            err,
            ChainError::BadHeight {
                expected: 1,
                got: 5
            }
        );
    }

    #[test]
    fn rejects_bad_parent() {
        let mut chain = Chain::new(genesis());
        let other = genesis();
        let b = child(&other, 1, 1); // parent hash = genesis hash, fine...
                                     // Corrupt the parent link.
        let mut bad = b;
        bad.header.prev_hash = Hash256([9u8; 32]);
        assert_eq!(chain.try_append(bad, |_| true), Err(ChainError::BadParent));
    }

    #[test]
    fn rejects_merkle_tamper() {
        let mut chain = Chain::new(genesis());
        let mut b = child(chain.tip(), 1, 1);
        b.transactions
            .push(Transaction::coinbase(Address::for_miner(3), 1, 1));
        assert_eq!(
            chain.try_append(b, |_| true),
            Err(ChainError::BadMerkleRoot)
        );
    }

    #[test]
    fn body_checks_fail_the_root_before_a_commitment() {
        let proposer = Address::for_miner(1);
        let body = || {
            vec![
                Transaction::coinbase(proposer, 50, 1),
                Transaction::transfer(Address::for_miner(2), Address::for_miner(3), 5, 0, 0),
                Transaction::transfer(Address::for_miner(3), Address::for_miner(2), 7, 0, 0),
            ]
        };
        let forged = |tx: Transaction| Transaction {
            auth: Hash256([7u8; 32]),
            ..tx
        };
        let block_of = |txs: Vec<Transaction>| {
            Block::assemble(1, genesis().hash(), 10, U256::MAX, 0, proposer, txs)
        };
        let append = |block: Block| Chain::new(genesis()).try_append(block, |_| true);
        assert_eq!(append(block_of(body())), Ok(()));
        // A forged commitment under a root that commits to it.
        for i in 0..3 {
            let mut txs = body();
            txs[i] = forged(txs[i]);
            assert_eq!(
                append(block_of(txs)),
                Err(ChainError::BadTransaction),
                "forged {i}"
            );
        }
        // A wrong root over honest transactions.
        let mut wrong_root = block_of(body());
        wrong_root.header.merkle_root = Hash256([9u8; 32]);
        assert_eq!(append(wrong_root), Err(ChainError::BadMerkleRoot));
        // Both: a commitment forged after assembly leaves the root wrong
        // too, and the root is checked first.
        let mut both = block_of(body());
        both.transactions[2] = forged(both.transactions[2]);
        assert_eq!(append(both), Err(ChainError::BadMerkleRoot));
    }

    #[test]
    fn rejects_failed_proof() {
        let mut chain = Chain::new(genesis());
        let b = child(chain.tip(), 1, 1);
        assert_eq!(chain.try_append(b, |_| false), Err(ChainError::BadProof));
    }

    #[test]
    fn rejects_time_regression() {
        let mut chain = Chain::new(genesis());
        let mut b = child(chain.tip(), 1, 1);
        b.header.timestamp = 0;
        // timestamp equal to parent is allowed; strictly smaller is not.
        let mut earlier = b.clone();
        earlier.header.timestamp = 0;
        // parent timestamp is 0, so 0 is allowed -> should pass other checks.
        // Rebuild with a parent at t=10 to test regression.
        let g2 = Block::assemble(
            0,
            Hash256::ZERO,
            10,
            U256::MAX,
            0,
            Address::for_miner(0),
            vec![],
        );
        let mut chain2 = Chain::new(g2);
        let mut late = child(chain2.tip(), 1, 1);
        late.header.timestamp = 5;
        // Merkle root unaffected by timestamp, so only timestamp check fires.
        assert_eq!(
            chain2.try_append(late, |_| true),
            Err(ChainError::BadTimestamp)
        );
        // Silence unused warnings from the first setup.
        let _ = chain.try_append(b, |_| true);
    }

    #[test]
    fn win_statistics() {
        let mut chain = Chain::new(genesis());
        for h in 1..=10u64 {
            let proposer = if h % 3 == 0 { 1 } else { 2 };
            let b = child(chain.tip(), h, proposer);
            chain.try_append(b, |_| true).expect("append");
        }
        let a1 = Address::for_miner(1);
        let a2 = Address::for_miner(2);
        assert_eq!(chain.wins(&a1), 3);
        assert_eq!(chain.wins(&a2), 7);
        assert!((chain.win_fraction(&a1) - 0.3).abs() < 1e-12);
        assert!((chain.win_fraction(&a2) - 0.7).abs() < 1e-12);
        // Genesis proposer gets no win credit.
        assert_eq!(chain.wins(&Address::for_miner(0)), 0);
    }

    #[test]
    fn lookup_by_hash() {
        let mut chain = Chain::new(genesis());
        let b1 = child(chain.tip(), 1, 1);
        let h1 = b1.hash();
        chain.try_append(b1, |_| true).expect("append");
        assert_eq!(chain.block_by_hash(&h1).expect("found").header.height, 1);
        assert!(chain.block_by_hash(&Hash256([1u8; 32])).is_none());
    }
}

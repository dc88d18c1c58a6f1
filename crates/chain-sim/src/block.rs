//! Blocks and block headers.
//!
//! Headers carry exactly the fields the paper's lotteries hash over:
//! previous hash, Merkle root, timestamp (ML-PoS trials are per-timestamp),
//! nonce (PoW search variable), proposer, and the difficulty target.

use crate::account::Address;
use crate::chain::ChainError;
use crate::hash::{Hash256, HashBuilder};
use crate::merkle::MerkleTree;
use crate::transaction::Transaction;
use crate::u256::U256;

/// A block header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height in the chain (genesis = 0).
    pub height: u64,
    /// Hash of the previous block's header.
    pub prev_hash: Hash256,
    /// Merkle root over the block's transactions.
    pub merkle_root: Hash256,
    /// Timestamp in simulation ticks.
    pub timestamp: u64,
    /// Difficulty target the proof was checked against.
    pub target: U256,
    /// PoW nonce (0 for PoS blocks).
    pub nonce: u64,
    /// Address of the proposer credited with the reward.
    pub proposer: Address,
}

impl BlockHeader {
    /// The header hash — the paper's `Hash(nonce, merkle root, previous
    /// hash)` with the remaining fields absorbed too.
    #[must_use]
    pub fn hash(&self) -> Hash256 {
        HashBuilder::new("block-header")
            .u64(self.height)
            .hash(&self.prev_hash)
            .hash(&self.merkle_root)
            .u64(self.timestamp)
            .hash(&Hash256(self.target.to_be_bytes()))
            .u64(self.nonce)
            .bytes(&self.proposer.0)
            .finish()
    }
}

/// A full block: header plus transaction body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The header.
    pub header: BlockHeader,
    /// Transactions, coinbase first.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Assembles a block: computes the Merkle root over `transactions` and
    /// fills the header.
    #[must_use]
    pub fn assemble(
        height: u64,
        prev_hash: Hash256,
        timestamp: u64,
        target: U256,
        nonce: u64,
        proposer: Address,
        transactions: Vec<Transaction>,
    ) -> Self {
        let merkle_root = merkle_root(&transactions);
        Self {
            header: BlockHeader {
                height,
                prev_hash,
                merkle_root,
                timestamp,
                target,
                nonce,
                proposer,
            },
            transactions,
        }
    }

    /// The block identifier (header hash).
    #[must_use]
    pub fn hash(&self) -> Hash256 {
        self.header.hash()
    }

    /// Recomputes the Merkle root from the body and compares with the header.
    #[must_use]
    pub fn merkle_root_valid(&self) -> bool {
        merkle_root(&self.transactions) == self.header.merkle_root
    }

    /// Checks the body against the header: the Merkle root recomputed
    /// from the body must match ([`ChainError::BadMerkleRoot`]), then every
    /// transaction's commitment must hold ([`ChainError::BadTransaction`]).
    /// Each transaction's payload is hashed once for both checks.
    pub(crate) fn check_body(&self) -> Result<(), ChainError> {
        let (ids, authorized) = Transaction::ids_and_authorized(&self.transactions);
        if MerkleTree::build(&ids).root() != self.header.merkle_root {
            return Err(ChainError::BadMerkleRoot);
        }
        if !authorized {
            return Err(ChainError::BadTransaction);
        }
        Ok(())
    }

    /// The coinbase transaction, if present as the first transaction.
    #[must_use]
    pub fn coinbase(&self) -> Option<&Transaction> {
        self.transactions.first().filter(|t| t.is_coinbase())
    }
}

/// The Merkle root over the transactions' ids.
fn merkle_root(transactions: &[Transaction]) -> Hash256 {
    let leaves: Vec<Hash256> = Transaction::ids(transactions).collect();
    MerkleTree::build(&leaves).root()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(height: u64, nonce: u64) -> Block {
        let proposer = Address::for_miner(0);
        let txs = vec![
            Transaction::coinbase(proposer, 50, height),
            Transaction::transfer(Address::for_miner(1), Address::for_miner(2), 10, 1, 0),
        ];
        Block::assemble(height, Hash256::ZERO, 100, U256::MAX, nonce, proposer, txs)
    }

    #[test]
    fn header_hash_changes_with_nonce() {
        let b1 = sample_block(1, 0);
        let b2 = sample_block(1, 1);
        assert_ne!(b1.hash(), b2.hash());
    }

    #[test]
    fn header_hash_changes_with_height() {
        assert_ne!(sample_block(1, 0).hash(), sample_block(2, 0).hash());
    }

    #[test]
    fn merkle_root_commits_to_body() {
        let mut b = sample_block(1, 0);
        assert!(b.merkle_root_valid());
        // Tamper with the body.
        b.transactions[1] =
            Transaction::transfer(Address::for_miner(1), Address::for_miner(2), 999, 1, 0);
        assert!(!b.merkle_root_valid());
    }

    #[test]
    fn coinbase_extraction() {
        let b = sample_block(1, 0);
        let cb = b.coinbase().expect("has coinbase");
        assert!(cb.is_coinbase());
        // A block whose first tx is not coinbase reports none.
        let txs = vec![Transaction::transfer(
            Address::for_miner(1),
            Address::for_miner(2),
            10,
            1,
            0,
        )];
        let b2 = Block::assemble(
            1,
            Hash256::ZERO,
            100,
            U256::MAX,
            0,
            Address::for_miner(0),
            txs,
        );
        assert!(b2.coinbase().is_none());
    }

    #[test]
    fn empty_body_uses_empty_merkle_root() {
        let b = Block::assemble(
            0,
            Hash256::ZERO,
            0,
            U256::MAX,
            0,
            Address::for_miner(0),
            vec![],
        );
        assert!(b.merkle_root_valid());
        assert_eq!(b.header.merkle_root, MerkleTree::empty_root());
    }
}

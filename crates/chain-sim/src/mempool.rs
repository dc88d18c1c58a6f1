//! First-in, first-out pool of pending synthetic transfers.
//!
//! Keeps block bodies realistic: the network simulation queues synthetic
//! user transfers here, proposers take the oldest into blocks, and Merkle
//! roots therefore commit to non-trivial payloads. Transfers wait
//! unsigned, and [`Mempool::take`] hands them out unsigned: the proposer
//! authorizes them together with the block's coinbase, so a transfer that
//! never reaches a block is never hashed.

use crate::account::Address;
use crate::transaction::TxKind;
use std::collections::VecDeque;

/// A queue of unsigned transfers, oldest first. Every transfer pays the
/// zero fee.
#[derive(Debug, Clone, Default)]
pub struct Mempool {
    /// `(from, to, amount, nonce)` payloads in arrival order.
    pending: VecDeque<(Address, Address, u64, u64)>,
}

impl Mempool {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending transfers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the pool is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Queues a transfer of `amount` atoms behind every pending one. The
    /// caller gives each sender's transfers consecutive nonces, so the
    /// ledger's nonce check rejects any replay when a block is applied.
    pub fn push(&mut self, from: Address, to: Address, amount: u64, nonce: u64) {
        self.pending.push_back((from, to, amount, nonce));
    }

    /// Removes up to `max` of the oldest transfers, as unsigned payloads.
    pub fn take(&mut self, max: usize) -> impl Iterator<Item = TxKind> + '_ {
        self.pending
            .drain(..max.min(self.pending.len()))
            .map(|(from, to, amount, nonce)| TxKind::Transfer {
                from,
                to,
                amount,
                fee: 0,
                nonce,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Transaction;

    /// Every transfer pays the zero fee, so the whole pool is one fee
    /// level and leaves in arrival order.
    #[test]
    fn fifo_within_fee_level() {
        let (a, b) = (Address::for_miner(0), Address::for_miner(1));
        let mut pool = Mempool::new();
        pool.push(a, b, 10, 0);
        pool.push(b, a, 20, 0);
        pool.push(a, b, 30, 1);
        let picked: Vec<TxKind> = pool.take(2).collect();
        let authorized = Transaction::authorize_all(&picked);
        assert_eq!(
            authorized,
            vec![
                Transaction::transfer(a, b, 10, 0, 0),
                Transaction::transfer(b, a, 20, 0, 0),
            ]
        );
        assert!(authorized.iter().all(Transaction::verify_auth));
        assert_eq!(pool.len(), 1);
        assert_eq!(
            Transaction::authorize_all(&pool.take(5).collect::<Vec<_>>()),
            vec![Transaction::transfer(a, b, 30, 0, 1)]
        );
    }

    #[test]
    fn take_from_empty() {
        let mut pool = Mempool::new();
        assert_eq!(pool.take(5).count(), 0);
        assert!(pool.is_empty());
    }
}

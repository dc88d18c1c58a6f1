//! Transactions.
//!
//! Two kinds exist: user transfers (queued unsigned in the mempool and
//! authorized when a block includes them, so Merkle roots commit to
//! realistic payloads) and coinbase rewards (the incentive under study). Authorization uses a hash-based
//! commitment in place of real signatures — signature schemes are outside
//! the paper's model and irrelevant to incentive dynamics (see DESIGN.md).

use crate::account::Address;
use crate::hash::{Hash256, HashBuilder};

/// Payload of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// A user transfer of `amount` atoms with a `fee` paid to the proposer.
    Transfer {
        /// Sender address.
        from: Address,
        /// Recipient address.
        to: Address,
        /// Amount transferred, in atoms.
        amount: u64,
        /// Fee paid to the block proposer, in atoms.
        fee: u64,
        /// Sender's account nonce.
        nonce: u64,
    },
    /// Block-reward issuance to the proposer (no sender; mints supply).
    Coinbase {
        /// Reward recipient.
        to: Address,
        /// Minted amount, in atoms.
        reward: u64,
        /// Block height, making each coinbase unique.
        height: u64,
    },
}

/// A transaction with its identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// The payload.
    pub kind: TxKind,
    /// Commitment by the sender (stub signature; see module docs).
    pub auth: Hash256,
}

impl Transaction {
    /// Creates an authorized transfer.
    #[must_use]
    pub fn transfer(from: Address, to: Address, amount: u64, fee: u64, nonce: u64) -> Self {
        let kind = TxKind::Transfer {
            from,
            to,
            amount,
            fee,
            nonce,
        };
        let auth = Self::commitment(&kind);
        Self { kind, auth }
    }

    /// Creates a coinbase reward transaction.
    #[must_use]
    pub fn coinbase(to: Address, reward: u64, height: u64) -> Self {
        let kind = TxKind::Coinbase { to, reward, height };
        let auth = Self::commitment(&kind);
        Self { kind, auth }
    }

    /// The transaction identifier (hash of the canonical encoding).
    #[must_use]
    pub fn id(&self) -> Hash256 {
        HashBuilder::new("txid")
            .hash(&self.encode())
            .hash(&self.auth)
            .finish()
    }

    /// Fee offered to the proposer (0 for coinbase).
    #[must_use]
    pub fn fee(&self) -> u64 {
        match self.kind {
            TxKind::Transfer { fee, .. } => fee,
            TxKind::Coinbase { .. } => 0,
        }
    }

    /// Whether this is a coinbase transaction.
    #[must_use]
    pub fn is_coinbase(&self) -> bool {
        matches!(self.kind, TxKind::Coinbase { .. })
    }

    /// Verifies the authorization commitment.
    #[must_use]
    pub fn verify_auth(&self) -> bool {
        self.auth == Self::commitment(&self.kind)
    }

    /// Canonical encoding hash of the payload.
    fn encode(&self) -> Hash256 {
        match self.kind {
            TxKind::Transfer {
                from,
                to,
                amount,
                fee,
                nonce,
            } => HashBuilder::new("tx-transfer")
                .bytes(&from.0)
                .bytes(&to.0)
                .u64(amount)
                .u64(fee)
                .u64(nonce)
                .finish(),
            TxKind::Coinbase { to, reward, height } => HashBuilder::new("tx-coinbase")
                .bytes(&to.0)
                .u64(reward)
                .u64(height)
                .finish(),
        }
    }

    fn commitment(kind: &TxKind) -> Hash256 {
        // Stand-in for a signature: commitment under the sender's (or
        // issuer's) key domain.
        let payload = Self {
            kind: *kind,
            auth: Hash256::ZERO,
        }
        .encode();
        HashBuilder::new("tx-auth").hash(&payload).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_roundtrip() {
        let a = Address::for_miner(0);
        let b = Address::for_miner(1);
        let tx = Transaction::transfer(a, b, 100, 3, 0);
        assert_eq!(tx.fee(), 3);
        assert!(!tx.is_coinbase());
        assert!(tx.verify_auth());
    }

    #[test]
    fn coinbase_properties() {
        let tx = Transaction::coinbase(Address::for_miner(2), 50, 7);
        assert!(tx.is_coinbase());
        assert_eq!(tx.fee(), 0);
        assert!(tx.verify_auth());
    }

    #[test]
    fn ids_are_unique_per_content() {
        let a = Address::for_miner(0);
        let b = Address::for_miner(1);
        let t1 = Transaction::transfer(a, b, 100, 3, 0);
        let t2 = Transaction::transfer(a, b, 100, 3, 1); // different nonce
        let t3 = Transaction::transfer(a, b, 101, 3, 0); // different amount
        assert_ne!(t1.id(), t2.id());
        assert_ne!(t1.id(), t3.id());
        assert_eq!(t1.id(), Transaction::transfer(a, b, 100, 3, 0).id());
    }

    #[test]
    fn coinbases_unique_per_height() {
        let to = Address::for_miner(0);
        assert_ne!(
            Transaction::coinbase(to, 50, 1).id(),
            Transaction::coinbase(to, 50, 2).id()
        );
    }

    #[test]
    fn tampered_auth_detected() {
        let mut tx = Transaction::transfer(Address::for_miner(0), Address::for_miner(1), 5, 1, 0);
        tx.auth = Hash256::ZERO;
        assert!(!tx.verify_auth());
    }
}

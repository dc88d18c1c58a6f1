//! Transactions.
//!
//! Two kinds exist: user transfers (queued unsigned in the mempool and
//! authorized when a block includes them, so Merkle roots commit to
//! realistic payloads) and coinbase rewards (the incentive under study). Authorization uses a hash-based
//! commitment in place of real signatures — signature schemes are outside
//! the paper's model and irrelevant to incentive dynamics (see DESIGN.md).
//!
//! A transaction's hashes form two stages: the payload hash (its canonical
//! encoding), then the commitment and the id over it. A block's
//! transactions are independent, so each stage hashes them two at a time
//! (`finish_all`), and the body check hashes each payload once for both
//! its id and its commitment.

use crate::account::Address;
use crate::hash::{finish_all, Hash256, HashBuilder};

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

impl TxKind {
    /// The builder of the payload's canonical encoding hash.
    fn encoding(&self) -> HashBuilder {
        match *self {
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
                .u64(nonce),
            TxKind::Coinbase { to, reward, height } => HashBuilder::new("tx-coinbase")
                .bytes(&to.0)
                .u64(reward)
                .u64(height),
        }
    }
}

/// The payload hashes of `kinds`, in order, two at a time.
fn payload_hashes<'a>(
    kinds: impl IntoIterator<Item = &'a TxKind>,
) -> impl Iterator<Item = Hash256> {
    finish_all(kinds.into_iter().map(TxKind::encoding))
}

/// The commitments over `kinds`' payloads, in order, two at a time.
fn commitments<'a>(kinds: impl IntoIterator<Item = &'a TxKind>) -> impl Iterator<Item = Hash256> {
    finish_all(payload_hashes(kinds).map(|payload| commitment(&payload)))
}

/// The commitment over a payload hash. Stand-in for a signature:
/// commitment under the sender's (or issuer's) key domain.
fn commitment(payload: &Hash256) -> HashBuilder {
    HashBuilder::new("tx-auth").hash(payload)
}

/// The identifier over a payload hash and its commitment.
fn id(payload: &Hash256, auth: &Hash256) -> HashBuilder {
    HashBuilder::new("txid").hash(payload).hash(auth)
}

impl Transaction {
    /// Creates an authorized transfer.
    #[must_use]
    pub fn transfer(from: Address, to: Address, amount: u64, fee: u64, nonce: u64) -> Self {
        Self::authorized(TxKind::Transfer {
            from,
            to,
            amount,
            fee,
            nonce,
        })
    }

    /// Creates a coinbase reward transaction.
    #[must_use]
    pub fn coinbase(to: Address, reward: u64, height: u64) -> Self {
        Self::authorized(TxKind::Coinbase { to, reward, height })
    }

    fn authorized(kind: TxKind) -> Self {
        let auth = commitments([&kind])
            .next()
            .expect("one commitment per payload");
        Self { kind, auth }
    }

    /// Authorizes each payload, in order.
    pub(crate) fn authorize_all(kinds: &[TxKind]) -> Vec<Self> {
        commitments(kinds)
            .zip(kinds)
            .map(|(auth, &kind)| Self { kind, auth })
            .collect()
    }

    /// The transaction identifier (hash of the canonical encoding).
    #[must_use]
    pub fn id(&self) -> Hash256 {
        Self::ids(std::slice::from_ref(self))
            .next()
            .expect("one id per transaction")
    }

    /// The identifiers of `txs`, in order.
    pub(crate) fn ids(txs: &[Self]) -> impl Iterator<Item = Hash256> + '_ {
        finish_all(
            payload_hashes(txs.iter().map(|tx| &tx.kind))
                .zip(txs)
                .map(|(payload, tx)| id(&payload, &tx.auth)),
        )
    }

    /// The identifiers of `txs`, in order, and whether every commitment
    /// holds. Each payload is hashed once for both.
    pub(crate) fn ids_and_authorized(txs: &[Self]) -> (Vec<Hash256>, bool) {
        let payloads: Vec<Hash256> = payload_hashes(txs.iter().map(|tx| &tx.kind)).collect();
        // All ids first, then all commitments, so that messages of one
        // length pair up.
        let mut digests = finish_all(
            payloads
                .iter()
                .zip(txs)
                .map(|(payload, tx)| id(payload, &tx.auth))
                .chain(payloads.iter().map(commitment)),
        );
        let ids = digests.by_ref().take(txs.len()).collect();
        let authorized = digests.zip(txs).all(|(auth, tx)| auth == tx.auth);
        (ids, authorized)
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
        commitments([&self.kind]).next() == Some(self.auth)
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
    fn body_hashes_match_each_transaction_alone() {
        // Bodies of 0 to 7 transactions: the paired ids and the fused
        // check agree with each transaction's own id and commitment.
        let (a, b) = (Address::for_miner(0), Address::for_miner(1));
        let kinds: Vec<TxKind> = std::iter::once(TxKind::Coinbase {
            to: a,
            reward: 50,
            height: 3,
        })
        .chain((0..6).map(|nonce| TxKind::Transfer {
            from: b,
            to: a,
            amount: 10 + nonce,
            fee: 0,
            nonce,
        }))
        .collect();
        for n in 0..=kinds.len() {
            let txs = Transaction::authorize_all(&kinds[..n]);
            let singles: Vec<Transaction> = kinds[..n]
                .iter()
                .map(|&kind| match kind {
                    TxKind::Coinbase { to, reward, height } => {
                        Transaction::coinbase(to, reward, height)
                    }
                    TxKind::Transfer {
                        from,
                        to,
                        amount,
                        fee,
                        nonce,
                    } => Transaction::transfer(from, to, amount, fee, nonce),
                })
                .collect();
            assert_eq!(txs, singles, "{n} transactions");
            let ids: Vec<Hash256> = txs.iter().map(Transaction::id).collect();
            assert_eq!(Transaction::ids(&txs).collect::<Vec<_>>(), ids);
            assert_eq!(Transaction::ids_and_authorized(&txs), (ids, true));
            for forged in 0..n {
                let mut txs = txs.clone();
                txs[forged].auth = Hash256::ZERO;
                let ids: Vec<Hash256> = txs.iter().map(Transaction::id).collect();
                assert_eq!(Transaction::ids_and_authorized(&txs), (ids, false));
            }
        }
    }

    #[test]
    fn tampered_auth_detected() {
        let mut tx = Transaction::transfer(Address::for_miner(0), Address::for_miner(1), 5, 1, 0);
        tx.auth = Hash256::ZERO;
        assert!(!tx.verify_auth());
    }
}

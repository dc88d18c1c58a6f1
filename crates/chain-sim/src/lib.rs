#![warn(missing_docs)]

//! # chain-sim
//!
//! The blockchain substrate for the `blockchain-fairness` workspace — the
//! stand-in for the real systems the paper deploys on EC2 (Geth v1.9.11 for
//! PoW, Qtum v0.19.0.1 for ML-PoS, NXT v1.12.2 for SL-PoS, and the
//! Ethereum 2.0 spec for C-PoS).
//!
//! Everything is built from scratch:
//!
//! * [`u256`] — 256-bit arithmetic for hash/target comparisons;
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 (NIST-vector tested);
//! * [`hash`] — domain-separated hashing, hash-as-uniform conversion;
//! * [`merkle`] — Merkle commitments over block bodies;
//! * [`account`], [`transaction`], [`block`], [`chain`] — the ledger:
//!   exact integer stake accounting with supply invariants;
//! * [`mempool`] — a first-in, first-out queue of pending synthetic
//!   transfers, authorized only when a block includes them;
//! * [`difficulty`] — Bitcoin-style retargeting and NXT base-target rules;
//! * [`consensus`] — hash-level lottery engines for PoW, ML-PoS, SL-PoS,
//!   FSL-PoS and C-PoS, each implementing Section 2 of the paper
//!   mechanically (nonce grinding, kernel checks, hit values, shards);
//! * [`sim`] — a discrete-event, multi-node network simulation and the
//!   experiment runner used as the paper's "real system experiments".
//!
//! The closed-form mining games used for large Monte-Carlo ensembles live
//! in the `fairness-core` crate; its tests validate those closed forms
//! against these mechanisms.

pub mod account;
pub mod block;
pub mod chain;
pub mod consensus;
pub mod difficulty;
pub mod hash;
pub mod mempool;
pub mod merkle;
pub mod sha256;
pub mod sim;
pub mod transaction;
pub mod u256;

pub use account::{proportional_split, Account, Address, Ledger, LedgerError};
pub use block::{Block, BlockHeader};
pub use chain::{Chain, ChainError};
pub use consensus::{
    BlockLottery, CPosEngine, EpochOutcome, FslPosEngine, LotteryOutcome, MinerProfile,
    MlPosEngine, PowEngine, SlPosEngine,
};
pub use difficulty::{bitcoin_retarget, nxt_adjust_base_target, target_for_expected_interval};
pub use hash::{Hash256, HashBuilder, HashMidstate};
pub use mempool::Mempool;
pub use merkle::{MerkleTree, ProofStep};
pub use sha256::{sha256, sha256d, Sha256};
pub use sim::{
    experiment::{default_checkpoints, run_experiment},
    fork::{ForkNetConfig, ForkNetSim},
    network::{CPosSim, Engine, NetworkConfig, NetworkSim, PowRetarget},
    EventQueue, ExperimentConfig, ExperimentOutcome, ProtocolKind,
};
pub use transaction::{Transaction, TxKind};
pub use u256::U256;

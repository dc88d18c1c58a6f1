//! Merkle trees over transaction hashes.
//!
//! Block headers commit to their transaction set through a Merkle root
//! (`Hash(nonce, merkle root, previous hash)` in the paper's PoW puzzle).
//! The tree follows the Bitcoin convention: an odd node count duplicates the
//! last node at each level.

use crate::hash::{finish_all, Hash256, HashBuilder};

/// A Merkle tree built over a list of leaf hashes.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaves, last level = root (length 1).
    levels: Vec<Vec<Hash256>>,
}

/// One step of a Merkle inclusion proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofStep {
    /// Sibling hash combined at this level.
    pub sibling: Hash256,
    /// Whether the sibling sits to the right of the running hash.
    pub sibling_is_right: bool,
}

impl MerkleTree {
    /// Builds a tree from leaf hashes. An empty leaf set hashes to a
    /// distinguished empty root. The nodes of a level are independent, so
    /// they are hashed two at a time.
    #[must_use]
    pub fn build(leaves: &[Hash256]) -> Self {
        if leaves.is_empty() {
            return Self {
                levels: vec![vec![Self::empty_root()]],
            };
        }
        let mut levels = vec![leaves.to_vec()];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let next = finish_all(prev.chunks(2).map(|pair| {
                let right = pair.get(1).unwrap_or(&pair[0]);
                Self::node(&pair[0], right)
            }))
            .collect();
            levels.push(next);
        }
        Self { levels }
    }

    /// The root committed into block headers.
    #[must_use]
    pub fn root(&self) -> Hash256 {
        self.levels.last().expect("tree has a root")[0]
    }

    /// The root of an empty transaction set.
    #[must_use]
    pub fn empty_root() -> Hash256 {
        HashBuilder::new("merkle-empty").finish()
    }

    /// Number of leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        if self.levels.len() == 1
            && self.levels[0].len() == 1
            && self.levels[0][0] == Self::empty_root()
        {
            0
        } else {
            self.levels[0].len()
        }
    }

    /// Produces an inclusion proof for leaf `index`.
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn prove(&self, index: usize) -> Vec<ProofStep> {
        assert!(
            index < self.leaf_count(),
            "leaf index {index} out of range ({} leaves)",
            self.leaf_count()
        );
        let mut proof = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = if idx & 1 == 0 { idx + 1 } else { idx - 1 };
            let sibling = if sibling_idx < level.len() {
                level[sibling_idx]
            } else {
                // Odd count: the node is paired with itself.
                level[idx]
            };
            proof.push(ProofStep {
                sibling,
                sibling_is_right: idx & 1 == 0,
            });
            idx /= 2;
        }
        proof
    }

    /// Verifies an inclusion proof against a root.
    #[must_use]
    pub fn verify(root: &Hash256, leaf: &Hash256, proof: &[ProofStep]) -> bool {
        let mut acc = *leaf;
        for step in proof {
            acc = if step.sibling_is_right {
                Self::node(&acc, &step.sibling)
            } else {
                Self::node(&step.sibling, &acc)
            }
            .finish();
        }
        acc == *root
    }

    /// The builder of an inner node's hash over its two children.
    fn node(left: &Hash256, right: &Hash256) -> HashBuilder {
        HashBuilder::new("merkle-node").hash(left).hash(right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(i: u64) -> Hash256 {
        HashBuilder::new("leaf").u64(i).finish()
    }

    #[test]
    fn empty_tree_distinguished_root() {
        let t = MerkleTree::build(&[]);
        assert_eq!(t.root(), MerkleTree::empty_root());
        assert_eq!(t.leaf_count(), 0);
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaf(1);
        let t = MerkleTree::build(&[l]);
        assert_eq!(t.root(), l);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let leaves: Vec<Hash256> = (0..8).map(leaf).collect();
        let base = MerkleTree::build(&leaves).root();
        for i in 0..8 {
            let mut tampered = leaves.clone();
            tampered[i] = leaf(100 + i as u64);
            assert_ne!(MerkleTree::build(&tampered).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn proofs_verify_for_all_leaves_and_sizes() {
        for n in 1..=17usize {
            let leaves: Vec<Hash256> = (0..n as u64).map(leaf).collect();
            let t = MerkleTree::build(&leaves);
            for (i, l) in leaves.iter().enumerate() {
                let proof = t.prove(i);
                assert!(MerkleTree::verify(&t.root(), l, &proof), "n={n} leaf={i}");
            }
        }
    }

    #[test]
    fn proof_fails_for_wrong_leaf_or_root() {
        let leaves: Vec<Hash256> = (0..5).map(leaf).collect();
        let t = MerkleTree::build(&leaves);
        let proof = t.prove(2);
        assert!(!MerkleTree::verify(&t.root(), &leaf(99), &proof));
        assert!(!MerkleTree::verify(&leaf(0), &leaves[2], &proof));
    }

    #[test]
    fn proof_fails_if_step_flipped() {
        let leaves: Vec<Hash256> = (0..4).map(leaf).collect();
        let t = MerkleTree::build(&leaves);
        let mut proof = t.prove(0);
        proof[0].sibling_is_right = !proof[0].sibling_is_right;
        assert!(!MerkleTree::verify(&t.root(), &leaves[0], &proof));
    }

    #[test]
    fn order_matters() {
        let a = MerkleTree::build(&[leaf(1), leaf(2)]).root();
        let b = MerkleTree::build(&[leaf(2), leaf(1)]).root();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prove_rejects_bad_index() {
        let t = MerkleTree::build(&[leaf(0)]);
        let _ = t.prove(1);
    }
}

//! Binary Merkle trees with inclusion proofs.
//!
//! Chain simulators commit to the transaction list of each block with a
//! Merkle root, and the evaluation driver can audit a claimed commit by
//! verifying a [`MerkleProof`].
//!
//! Odd levels duplicate the last node (the Bitcoin convention); the empty
//! tree has the all-zero root.

use crate::sha256::{sha256_pair, Digest};
use crate::Hash32;

/// A fully materialised binary Merkle tree over a list of leaf hashes.
///
/// ```
/// use hammer_crypto::{sha256, MerkleTree};
///
/// let leaves: Vec<_> = ["a", "b", "c"].iter().map(|s| sha256(s.as_bytes())).collect();
/// let tree = MerkleTree::from_leaves(leaves.clone());
/// let proof = tree.prove(1).unwrap();
/// assert!(proof.verify(&leaves[1], &tree.root()));
/// assert!(!proof.verify(&leaves[0], &tree.root()));
/// ```
#[derive(Clone, Debug)]
pub struct MerkleTree {
    /// levels[0] is the leaf level; the last level has exactly one node.
    levels: Vec<Vec<Digest>>,
}

/// An inclusion proof: sibling hashes from leaf to root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleProof {
    /// Index of the proven leaf.
    pub leaf_index: usize,
    /// Sibling hash at each level, leaf level first.
    pub siblings: Vec<Digest>,
}

impl MerkleTree {
    /// Builds a tree over pre-hashed leaves.
    pub fn from_leaves(leaves: Vec<Digest>) -> Self {
        if leaves.is_empty() {
            return MerkleTree { levels: vec![] };
        }
        let mut levels = vec![leaves];
        while levels.last().expect("nonempty").len() > 1 {
            let prev = levels.last().expect("nonempty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                let left = &pair[0];
                let right = pair.get(1).unwrap_or(left); // duplicate odd node
                next.push(sha256_pair(left, right));
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The Merkle root; all-zero for the empty tree.
    pub fn root(&self) -> Hash32 {
        self.levels.last().map(|l| l[0]).unwrap_or([0u8; 32])
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map(|l| l.len()).unwrap_or(0)
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces an inclusion proof for the leaf at `index`, or `None` if the
    /// index is out of range.
    pub fn prove(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len().saturating_sub(1));
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            // When the level has odd length and idx is the last node, the
            // sibling is the node itself (duplication rule).
            let sibling = level.get(sibling_idx).unwrap_or(&level[idx]);
            siblings.push(*sibling);
            idx /= 2;
        }
        Some(MerkleProof {
            leaf_index: index,
            siblings,
        })
    }
}

impl MerkleProof {
    /// Verifies that `leaf` is included under `root`.
    pub fn verify(&self, leaf: &Digest, root: &Hash32) -> bool {
        let mut acc = *leaf;
        let mut idx = self.leaf_index;
        for sibling in &self.siblings {
            acc = if idx.is_multiple_of(2) {
                sha256_pair(&acc, sibling)
            } else {
                sha256_pair(sibling, &acc)
            };
            idx /= 2;
        }
        &acc == root
    }
}

/// Computes just the Merkle root over items without materialising the tree
/// or anything else: one pass, no allocation.
///
/// `pending[k]` is the root of a finished `2^k`-leaf subtree waiting for its
/// right sibling, occupied exactly when bit `k` of the number of leaves
/// seen so far is set (a binary counter whose carries are pair hashes).
/// The right edge is closed last: a node without a sibling pairs with
/// itself, which is the duplicate-the-odd-node rule of [`MerkleTree`].
pub fn merkle_root<T: AsRef<[u8]>>(items: &[T]) -> Hash32 {
    let mut pending = [[0u8; 32]; usize::BITS as usize];
    for (seen, item) in items.iter().enumerate() {
        let mut node = crate::sha256(item.as_ref());
        let mut level = 0;
        while (seen >> level) & 1 == 1 {
            node = sha256_pair(&pending[level], &node);
            level += 1;
        }
        pending[level] = node;
    }
    let n = items.len();
    if n == 0 {
        return [0u8; 32];
    }
    // Climb from the lowest finished subtree (the rightmost node of its
    // level) to the root at level ceil(log2 n).
    let mut level = n.trailing_zeros();
    let mut node = pending[level as usize];
    let waiting = n & (n - 1);
    let root_level = usize::BITS - (n - 1).leading_zeros();
    while level < root_level {
        node = if (waiting >> level) & 1 == 1 {
            sha256_pair(&pending[level as usize], &node)
        } else {
            sha256_pair(&node, &node)
        };
        level += 1;
    }
    node
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256;
    use proptest::prelude::*;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| sha256(format!("leaf-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn empty_tree() {
        let tree = MerkleTree::from_leaves(vec![]);
        assert!(tree.is_empty());
        assert_eq!(tree.root(), [0u8; 32]);
        assert!(tree.prove(0).is_none());
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = leaves(1);
        let tree = MerkleTree::from_leaves(l.clone());
        assert_eq!(tree.root(), l[0]);
        let proof = tree.prove(0).unwrap();
        assert!(proof.siblings.is_empty());
        assert!(proof.verify(&l[0], &tree.root()));
    }

    #[test]
    fn all_proofs_verify_across_sizes() {
        for n in 1..=17 {
            let l = leaves(n);
            let tree = MerkleTree::from_leaves(l.clone());
            for (i, leaf) in l.iter().enumerate() {
                let proof = tree.prove(i).unwrap();
                assert!(proof.verify(leaf, &tree.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn wrong_leaf_fails() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone());
        let proof = tree.prove(3).unwrap();
        assert!(!proof.verify(&l[4], &tree.root()));
    }

    #[test]
    fn wrong_index_fails() {
        let l = leaves(8);
        let tree = MerkleTree::from_leaves(l.clone());
        let mut proof = tree.prove(3).unwrap();
        proof.leaf_index = 2;
        assert!(!proof.verify(&l[3], &tree.root()));
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let l = leaves(9);
        let base = MerkleTree::from_leaves(l.clone()).root();
        for i in 0..l.len() {
            let mut changed = l.clone();
            changed[i] = sha256(b"tampered");
            assert_ne!(MerkleTree::from_leaves(changed).root(), base, "leaf {i}");
        }
    }

    #[test]
    fn merkle_root_matches_tree() {
        // Every shape of right edge: odd nodes duplicated on one level,
        // on several, on none.
        for n in 0..=65 {
            let items: Vec<String> = (0..n).map(|i| format!("tx-{i}")).collect();
            let leaves = items.iter().map(|i| crate::sha256(i.as_bytes())).collect();
            let tree = MerkleTree::from_leaves(leaves);
            assert_eq!(merkle_root(&items), tree.root(), "n={n}");
        }
    }

    /// Roots over 32-byte ids (the block case), as the parent commit
    /// computed them level by level.
    #[test]
    fn merkle_root_golden_vectors() {
        const GOLDEN: [(usize, &str); 7] = [
            (
                0,
                "0000000000000000000000000000000000000000000000000000000000000000",
            ),
            (
                1,
                "fb299ccfc2b39f540ce126db1cca17d91484a167e8fb376ca1d1dd2c8c3a74b7",
            ),
            (
                2,
                "25450df18522dda1eea999d580dc723706ca05e8c683262020d23c1e106f72f4",
            ),
            (
                3,
                "e6d1ae3dfc242a8bcf078c41bc2aa47c45bb2d3e90967038e1f8d5d5666dd4a5",
            ),
            (
                5,
                "fcb5cab78bfef8bee8b104ccca8c8fa81fdb131229df91d66de76b8c736c3ae4",
            ),
            (
                8,
                "9b57d1e67d986b8e487b6027b1b8bae4dc39d907b95ba320bc306ecfbeded0a3",
            ),
            (
                1000,
                "6e287c67af939bb4425414330fac349981e0599567f4743a0497bd5658845adc",
            ),
        ];
        for (n, root) in GOLDEN {
            let ids: Vec<Digest> = (0..n)
                .map(|i| sha256(format!("tx-{i}").as_bytes()))
                .collect();
            assert_eq!(crate::to_hex(&merkle_root(&ids)), root, "n={n}");
        }
    }

    proptest! {
        #[test]
        fn prop_proofs_verify(n in 1usize..60, pick in 0usize..60) {
            let l = leaves(n);
            let i = pick % n;
            let tree = MerkleTree::from_leaves(l.clone());
            let proof = tree.prove(i).unwrap();
            prop_assert!(proof.verify(&l[i], &tree.root()));
        }

        #[test]
        fn prop_tamper_detected(n in 2usize..40, pick in 0usize..40, other in 0usize..40) {
            let l = leaves(n);
            let i = pick % n;
            let j = other % n;
            prop_assume!(i != j);
            let tree = MerkleTree::from_leaves(l.clone());
            let proof = tree.prove(i).unwrap();
            prop_assert!(!proof.verify(&l[j], &tree.root()));
        }
    }
}

//! Binary Merkle roots.
//!
//! Chain simulators commit to the transaction list of each block with a
//! Merkle root.
//!
//! Odd levels duplicate the last node (the Bitcoin convention); the empty
//! tree has the all-zero root.

use crate::sha256::sha256_pair;
use crate::Hash32;

/// Computes just the Merkle root over items without materialising the tree
/// or anything else: one pass, no allocation.
///
/// `pending[k]` is the root of a finished `2^k`-leaf subtree waiting for its
/// right sibling, occupied exactly when bit `k` of the number of leaves
/// seen so far is set (a binary counter whose carries are pair hashes).
/// The right edge is closed last: a node without a sibling pairs with
/// itself, which is the duplicate-the-odd-node rule.
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
    use crate::sha256::Digest;

    /// The reference `merkle_root` is compared against: every level of
    /// the tree materialised, the last node of an odd level paired with
    /// itself.
    fn tree_root(leaves: Vec<Digest>) -> Hash32 {
        let mut level = leaves;
        if level.is_empty() {
            return [0u8; 32];
        }
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| sha256_pair(&pair[0], pair.get(1).unwrap_or(&pair[0])))
                .collect();
        }
        level[0]
    }

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| sha256(format!("leaf-{i}").as_bytes()))
            .collect()
    }

    #[test]
    fn root_changes_with_any_leaf() {
        let l = leaves(9);
        let base = tree_root(l.clone());
        for i in 0..l.len() {
            let mut changed = l.clone();
            changed[i] = sha256(b"tampered");
            assert_ne!(tree_root(changed), base, "leaf {i}");
        }
    }

    #[test]
    fn merkle_root_matches_tree() {
        // Every shape of right edge: odd nodes duplicated on one level,
        // on several, on none; small trees and trees on either side of a
        // power of two.
        let sizes = (0..=300).chain([1023, 1024, 1025, 4095, 4096, 4097]);
        for n in sizes {
            let ids: Vec<Digest> = (0..n)
                .map(|i| sha256(format!("tx-{i}").as_bytes()))
                .collect();
            let leaves = ids.iter().map(|id| sha256(id)).collect();
            assert_eq!(merkle_root(&ids), tree_root(leaves), "n={n}");
        }
    }

    /// Roots over 32-byte ids (the block case), as the parent commit
    /// computed them level by level.
    #[test]
    fn merkle_root_golden_vectors() {
        const GOLDEN: [(usize, &str); 10] = [
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
            (
                64,
                "8706917088d977ee55c0080daa378127e2cb7197498272e4a507838f226403a7",
            ),
            (
                65,
                "5f064ae4e99d908aac187133baeed137f6371e9ca20af137287ae8a922984f1c",
            ),
            (
                4097,
                "34820b948dc969ddd0d070f2be53bf8863b768da21a1d3025f61fed3519b0e57",
            ),
        ];
        for (n, root) in GOLDEN {
            let ids: Vec<Digest> = (0..n)
                .map(|i| sha256(format!("tx-{i}").as_bytes()))
                .collect();
            assert_eq!(crate::to_hex(&merkle_root(&ids)), root, "n={n}");
        }
    }
}

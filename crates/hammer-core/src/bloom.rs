//! A blocked Bloom filter over transaction ids.
//!
//! Algorithm 1 (lines 14–17) uses a Bloom filter for "rapid exclusion of
//! transactions not in the index": in distributed testing a block may
//! contain transactions submitted by *other* driver servers, and the
//! filter rejects those without touching the hash index.
//!
//! Sizing is the standard construction, `m = -n ln p / (ln 2)^2` bits and
//! `k = (m / n) ln 2` probes, with `m` rounded up to whole 512-bit blocks.
//! A key lives in one block — chosen by multiply-shift of one
//! `splitmix64` of the fingerprint, its `k` positions cut as 9-bit fields
//! from a second mix — so an insert or a lookup touches one cache line,
//! divides nothing and allocates nothing. Blocks fill unevenly, which costs
//! accuracy at equal bits per key: about 1.15% measured at the 1% design
//! point (the tests bound it at 1.5x the request). No false negatives: a
//! lookup tests exactly the bits its insert set.

/// One block: 512 bits on a cache line of its own, so an in-block position
/// is 9 bits and one 64-bit mix holds seven of them.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Block([u64; 8]);

/// A fixed-size Bloom filter keyed by 64-bit fingerprints.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    blocks: Vec<Block>,
    k: u32,
    inserted: usize,
    capacity: usize,
}

/// splitmix64: a fast, well-distributed, full-period 64-bit mixer
/// (public domain). Also what retry jitter is derived with.
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl BloomFilter {
    /// Builds a filter sized for `capacity` items at the given
    /// false-positive rate.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero or `fp_rate` is outside `(0, 1)`.
    pub fn new(capacity: usize, fp_rate: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            fp_rate > 0.0 && fp_rate < 1.0,
            "fp_rate must be in (0, 1), got {fp_rate}"
        );
        let ln2 = std::f64::consts::LN_2;
        let m = -(capacity as f64) * fp_rate.ln() / (ln2 * ln2);
        // At most the seven positions one mix holds, which is what 1% asks
        // for; a stricter rate gets more bits, not more probes.
        let k = (m / capacity as f64 * ln2).round().clamp(1.0, 7.0) as u32;
        let blocks = (m.ceil() as u64).div_ceil(512).max(1) as usize;
        BloomFilter {
            blocks: vec![Block([0; 8]); blocks],
            k,
            inserted: 0,
            capacity,
        }
    }

    /// Items inserted so far.
    pub(crate) fn len(&self) -> usize {
        self.inserted
    }

    /// The design capacity.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The key's block and the mix its in-block positions are cut from.
    #[inline]
    fn locate(&self, fingerprint: u64) -> (usize, u64) {
        let h = splitmix64(fingerprint);
        let block = (u128::from(h) * self.blocks.len() as u128) >> 64;
        (block as usize, splitmix64(h))
    }

    /// Inserts a fingerprint.
    pub fn insert(&mut self, fingerprint: u64) {
        let (block, mut positions) = self.locate(fingerprint);
        let words = &mut self.blocks[block].0;
        for _ in 0..self.k {
            words[(positions >> 6 & 7) as usize] |= 1 << (positions & 63);
            positions >>= 9;
        }
        self.inserted += 1;
    }

    /// Reads the fingerprint's block, so the insert or lookup that follows
    /// finds its one line in cache.
    #[inline]
    pub(crate) fn touch(&self, fingerprint: u64) {
        let (block, _) = self.locate(fingerprint);
        // Read only to bring the line into cache: `black_box` keeps a load
        // whose value nothing reads.
        std::hint::black_box(self.blocks[block].0[0]);
    }

    /// Whether the fingerprint *may* have been inserted (no false
    /// negatives; false positives at roughly the design rate).
    pub fn contains(&self, fingerprint: u64) -> bool {
        let (block, positions) = self.locate(fingerprint);
        let words = &self.blocks[block].0;
        // All k, no early exit: the bits share a cache line, and a
        // mispredicted exit costs a miss more than the probes it saves.
        (0..self.k).fold(true, |found, i| {
            let position = positions >> (9 * i);
            found & (words[(position >> 6 & 7) as usize] & (1 << (position & 63)) != 0)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl BloomFilter {
        /// Whether nothing has been inserted.
        fn is_empty(&self) -> bool {
            self.inserted == 0
        }
    }

    #[test]
    fn no_false_negatives() {
        let mut bloom = BloomFilter::new(10_000, 0.01);
        for i in 0..10_000u64 {
            bloom.insert(i);
        }
        for i in 0..10_000u64 {
            assert!(bloom.contains(i), "false negative at {i}");
        }
    }

    #[test]
    fn fp_rate_near_design_point() {
        let mut bloom = BloomFilter::new(10_000, 0.01);
        for i in 0..10_000u64 {
            bloom.insert(i);
        }
        // Probe values far away from the sequential inserts.
        let hits = (0..50_000u64)
            .filter(|i| bloom.contains(splitmix64(0xdead_0000_0000_0000 ^ i)))
            .count();
        let rate = hits as f64 / 50_000.0;
        assert!(rate < 0.03, "fp rate {rate} too high");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bloom = BloomFilter::new(100, 0.01);
        assert!(!bloom.contains(42));
        assert!(bloom.is_empty());
    }

    #[test]
    fn sizing_follows_formula() {
        // m ~ 9.58 bits/item rounded up to whole blocks, k ~ 7 for p=0.01.
        for n in [1000usize, 10_000, 123_457] {
            let bloom = BloomFilter::new(n, 0.01);
            let bits = bloom.blocks.len() as f64 * 512.0;
            let formula = n as f64 * 9.585;
            assert!(bits >= formula && bits < formula + 513.0);
            assert_eq!(bloom.k, 7);
        }
        // A stricter rate buys bits; the probe count stays within one mix.
        assert_eq!(BloomFilter::new(1000, 1e-6).k, 7);
        assert_eq!(BloomFilter::new(1000, 0.5).k, 1);
    }

    #[test]
    fn measured_fp_rate_at_design_load_is_within_half_again_of_requested() {
        for n in [1_024u64, 10_000, 500_000] {
            let mut bloom = BloomFilter::new(n as usize, 0.01);
            (0..n).for_each(|i| bloom.insert(splitmix64(i)));
            let probes = 100_000u64;
            let hits = (0..probes)
                .filter(|i| bloom.contains(splitmix64(0xdead_0000_0000_0000 ^ i)))
                .count();
            let rate = hits as f64 / probes as f64;
            assert!(rate <= 0.015, "n = {n}: fp rate {rate}");
        }
    }

    #[test]
    fn block_index_stays_in_range_for_any_block_count() {
        // Block counts that are not a power of two; fingerprints 0 and
        // u64::MAX, and the one whose first mix is 0.
        for n in [1usize, 53, 54, 107, 1000, 77_777] {
            let mut bloom = BloomFilter::new(n, 0.01);
            let blocks = bloom.blocks.len();
            for fingerprint in [0, 1, u64::MAX - 1, u64::MAX, 0x61c8_8646_80b5_83eb] {
                assert!(bloom.locate(fingerprint).0 < blocks);
                bloom.insert(fingerprint);
                assert!(bloom.contains(fingerprint));
            }
            for i in 0..10_000u64 {
                assert!(bloom.locate(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).0 < blocks);
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = BloomFilter::new(0, 0.01);
    }

    #[test]
    #[should_panic(expected = "fp_rate must be in (0, 1)")]
    fn bad_fp_rate_panics() {
        let _ = BloomFilter::new(10, 1.5);
    }

    proptest! {
        #[test]
        fn prop_inserted_always_found(items in proptest::collection::hash_set(any::<u64>(), 1..500)) {
            let mut bloom = BloomFilter::new(items.len().max(1), 0.01);
            for item in &items {
                bloom.insert(*item);
            }
            for item in &items {
                prop_assert!(bloom.contains(*item));
            }
        }
    }
}

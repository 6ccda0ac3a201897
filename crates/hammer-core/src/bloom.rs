//! A Bloom filter over transaction ids.
//!
//! Algorithm 1 (lines 14–17) uses a Bloom filter for "rapid exclusion of
//! transactions not in the index": in distributed testing a block may
//! contain transactions submitted by *other* driver servers, and the
//! filter rejects those without touching the hash index.
//!
//! Standard construction: `m = -n ln p / (ln 2)^2` bits and
//! `k = (m / n) ln 2` hash functions, with double hashing
//! (`h_i = h1 + i * h2`) over a 64-bit fingerprint.

/// A fixed-size Bloom filter keyed by 64-bit fingerprints.
#[derive(Clone, Debug)]
pub struct BloomFilter {
    bits: Vec<u64>,
    n_bits: u64,
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
        let m = (-(capacity as f64) * fp_rate.ln() / (ln2 * ln2)).ceil() as u64;
        let m = m.max(64);
        let k = ((m as f64 / capacity as f64) * ln2).round().max(1.0) as u32;
        BloomFilter {
            bits: vec![0u64; m.div_ceil(64) as usize],
            n_bits: m,
            k,
            inserted: 0,
            capacity,
        }
    }

    /// Items inserted so far.
    pub fn len(&self) -> usize {
        self.inserted
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.inserted == 0
    }

    /// The design capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn probes(&self, fingerprint: u64) -> impl Iterator<Item = u64> + '_ {
        let h1 = splitmix64(fingerprint);
        let h2 = splitmix64(h1) | 1; // odd stride
        (0..self.k).map(move |i| h1.wrapping_add(h2.wrapping_mul(i as u64)) % self.n_bits)
    }

    /// Inserts a fingerprint.
    pub fn insert(&mut self, fingerprint: u64) {
        let probes: Vec<u64> = self.probes(fingerprint).collect();
        for bit in probes {
            self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Whether the fingerprint *may* have been inserted (no false
    /// negatives; false positives at roughly the design rate).
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.probes(fingerprint)
            .all(|bit| self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0)
    }

    /// Clears all bits.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.inserted = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    fn clear_resets() {
        let mut bloom = BloomFilter::new(100, 0.01);
        bloom.insert(1);
        assert!(bloom.contains(1));
        bloom.clear();
        assert!(!bloom.contains(1));
        assert_eq!(bloom.len(), 0);
    }

    #[test]
    fn sizing_follows_formula() {
        let bloom = BloomFilter::new(1000, 0.01);
        // m ~ 9.58 bits/item, k ~ 7 for p=0.01.
        assert!(bloom.n_bits >= 9000 && bloom.n_bits <= 10_500);
        assert_eq!(bloom.k, 7);
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

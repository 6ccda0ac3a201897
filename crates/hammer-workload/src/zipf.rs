//! A Zipfian integer sampler (from scratch, rejection-inversion free —
//! plain inverse-CDF over precomputed cumulative weights, which is exact
//! and fast enough for the account-pool sizes benchmarks use).

use rand::Rng;

/// Samples integers in `[0, n)` with probability proportional to
/// `1 / (i + 1)^theta`.
///
/// `theta = 0` degenerates to uniform; classic YCSB uses `theta = 0.99`.
#[derive(Clone, Debug)]
pub(crate) struct Zipfian {
    /// Cumulative distribution, cdf[i] = P(X <= i).
    cdf: Vec<f64>,
}

impl Zipfian {
    /// Builds a sampler over `n` items with skew `theta`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `theta` is negative/non-finite.
    pub(crate) fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipfian needs at least one item");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "theta must be finite and non-negative"
        );
        let mut weights = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            let w = 1.0 / ((i + 1) as f64).powf(theta);
            total += w;
            weights.push(total);
        }
        for w in &mut weights {
            *w /= total;
        }
        Zipfian { cdf: weights }
    }

    /// Draws one item index.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // Binary search for the first cdf entry >= u.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("finite"))
        {
            Ok(idx) => idx,
            Err(idx) => idx.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipfian::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            let frac = c as f64 / 100_000.0;
            assert!((frac - 0.1).abs() < 0.01, "frac = {frac}");
        }
    }

    #[test]
    fn skew_prefers_low_indices() {
        let z = Zipfian::new(100, 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[50]);
        // Item 0 should receive roughly 1/H_100(0.99) ~= 19% of draws.
        let frac0 = counts[0] as f64 / 100_000.0;
        assert!(frac0 > 0.12 && frac0 < 0.30, "frac0 = {frac0}");
    }

    #[test]
    fn all_samples_in_range() {
        let z = Zipfian::new(7, 1.5);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn single_item_always_zero() {
        let z = Zipfian::new(1, 0.99);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = Zipfian::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta must be finite")]
    fn negative_theta_panics() {
        let _ = Zipfian::new(5, -1.0);
    }
}

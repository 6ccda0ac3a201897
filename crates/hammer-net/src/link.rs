//! Link quality configuration: latency, jitter, bandwidth, loss.
//!
//! Only [`LinkConfig::loss_probability`] is simulated: the network
//! delivers nothing, so nothing waits out a delay. The delay fields
//! *describe* the testbed's links and stay because the frozen benchmark
//! package passes a preset to `SimNetwork::new`.

use std::time::Duration;

use rand::Rng;

/// Describes the quality of a network link in *simulated* time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Base one-way propagation delay (descriptive; see the module docs).
    pub base_latency: Duration,
    /// Maximum uniform jitter on top of the base latency (descriptive).
    pub jitter: Duration,
    /// Link bandwidth in bytes per simulated second; `None` means
    /// infinite (descriptive).
    pub bandwidth_bps: Option<u64>,
    /// Probability in `[0, 1]` that a message is booked as lost.
    pub loss_probability: f64,
}

impl LinkConfig {
    /// A typical datacenter LAN: 0.5 ms ± 0.2 ms, 1 Gbps, no loss.
    pub fn lan() -> Self {
        LinkConfig {
            base_latency: Duration::from_micros(500),
            jitter: Duration::from_micros(200),
            bandwidth_bps: Some(125_000_000),
            loss_probability: 0.0,
        }
    }

    /// The paper's testbed: ~100 Mbps links between cloud instances,
    /// ~1 ms ± 0.5 ms latency.
    pub fn cloud_100mbps() -> Self {
        LinkConfig {
            base_latency: Duration::from_millis(1),
            jitter: Duration::from_micros(500),
            bandwidth_bps: Some(12_500_000),
            loss_probability: 0.0,
        }
    }

    /// An ideal link with zero delay and no loss, for pure-logic tests.
    pub(crate) fn ideal() -> Self {
        LinkConfig {
            base_latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bandwidth_bps: None,
            loss_probability: 0.0,
        }
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss_probability) {
            return Err(format!(
                "loss_probability must be in [0, 1], got {}",
                self.loss_probability
            ));
        }
        if self.bandwidth_bps == Some(0) {
            return Err("bandwidth_bps must be positive when set".to_owned());
        }
        Ok(())
    }

    /// Samples whether this message is lost.
    pub(crate) fn sample_loss<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        self.loss_probability > 0.0 && rng.gen::<f64>() < self.loss_probability
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::cloud_100mbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn presets_validate() {
        for cfg in [
            LinkConfig::lan(),
            LinkConfig::cloud_100mbps(),
            LinkConfig::ideal(),
        ] {
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn validate_rejects_bad_loss() {
        let cfg = LinkConfig {
            loss_probability: 1.5,
            ..LinkConfig::lan()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_bandwidth() {
        let cfg = LinkConfig {
            bandwidth_bps: Some(0),
            ..LinkConfig::lan()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn loss_rate_approximates_probability() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let cfg = LinkConfig {
            loss_probability: 0.25,
            ..LinkConfig::ideal()
        };
        let lost = (0..10_000).filter(|_| cfg.sample_loss(&mut rng)).count();
        let rate = lost as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn zero_loss_never_drops() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let cfg = LinkConfig::lan();
        assert!((0..1000).all(|_| !cfg.sample_loss(&mut rng)));
    }
}

//! Link quality configuration: latency, jitter, bandwidth, loss.

use std::time::Duration;

use rand::Rng;

/// Describes the quality of a network link in *simulated* time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkConfig {
    /// Base one-way propagation delay.
    pub base_latency: Duration,
    /// Maximum uniform jitter added on top of the base latency.
    pub jitter: Duration,
    /// Link bandwidth in bytes per simulated second; `None` means infinite.
    pub bandwidth_bps: Option<u64>,
    /// Probability in `[0, 1]` that a message is silently dropped.
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
    pub fn ideal() -> Self {
        LinkConfig {
            base_latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bandwidth_bps: None,
            loss_probability: 0.0,
        }
    }

    /// Validates the configuration, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
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

    /// Samples the total transfer delay for a message of `size` bytes:
    /// propagation (base + jitter) plus serialisation (size / bandwidth).
    pub fn sample_delay<R: Rng + ?Sized>(&self, size: usize, rng: &mut R) -> Duration {
        let jitter = if self.jitter.is_zero() {
            Duration::ZERO
        } else {
            self.jitter.mul_f64(rng.gen::<f64>())
        };
        let serialization = match self.bandwidth_bps {
            Some(bps) => Duration::from_secs_f64(size as f64 / bps as f64),
            None => Duration::ZERO,
        };
        self.base_latency + jitter + serialization
    }

    /// Samples whether this message is lost.
    pub fn sample_loss<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
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
    fn delay_includes_serialization() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let cfg = LinkConfig {
            base_latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bandwidth_bps: Some(1_000_000), // 1 MB/s
            loss_probability: 0.0,
        };
        let d = cfg.sample_delay(500_000, &mut rng); // 0.5 MB -> 0.5 s
        assert!((d.as_secs_f64() - 0.5).abs() < 1e-9, "d = {d:?}");
    }

    #[test]
    fn delay_bounded_by_jitter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let cfg = LinkConfig {
            base_latency: Duration::from_millis(10),
            jitter: Duration::from_millis(5),
            bandwidth_bps: None,
            loss_probability: 0.0,
        };
        for _ in 0..100 {
            let d = cfg.sample_delay(100, &mut rng);
            assert!(d >= Duration::from_millis(10));
            assert!(d <= Duration::from_millis(15));
        }
    }

    #[test]
    fn ideal_link_has_zero_delay() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(
            LinkConfig::ideal().sample_delay(1 << 20, &mut rng),
            Duration::ZERO
        );
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

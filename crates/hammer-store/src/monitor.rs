//! A resource monitor standing in for Prometheus + node-exporter.
//!
//! The paper's visualisation phase (§III-B3) pulls CPU, memory, and network
//! consumption from every node during the run. This monitor samples
//! process-level proxies on a fixed period and keeps the time series in
//! memory for the report layer:
//!
//! * **network in/out** — read from the [`hammer_net::SimNetwork`] counters;
//! * **work counters** — named gauges registered by components (blocks
//!   sealed, transactions committed, queue depths), mirroring how
//!   node-exporter scrapes application metrics.
//!
//! Gauges live on a [`hammer_obs::Registry`]: when the network carries an
//! installed observability bundle ([`hammer_net::SimNetwork::install_obs`])
//! the monitor joins that registry, so its gauges appear in the Prometheus
//! exposition and the dashboard alongside every other metric; otherwise it
//! runs on a private registry and behaves as before.
//!
//! Scraping follows **simulated** time: the requested period is
//! interpreted on the network's [`hammer_net::SimClock`], so samples stay
//! aligned with fault windows and block intervals at any speedup.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hammer_net::SimNetwork;
pub use hammer_obs::Gauge;
use hammer_obs::Registry;
use parking_lot::Mutex;

/// One scrape of all metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceSample {
    /// Simulated timestamp of the scrape.
    pub at: Duration,
    /// Total bytes accepted by the network so far.
    pub net_bytes_sent: u64,
    /// Total messages delivered so far.
    pub net_messages_delivered: u64,
    /// Values of every registered gauge at scrape time, sorted by name.
    pub gauges: Vec<(String, u64)>,
}

struct Inner {
    net: SimNetwork,
    registry: Registry,
    samples: Mutex<Vec<ResourceSample>>,
    stop: AtomicBool,
    /// Whether `registry` is the network's shared obs registry (in which
    /// case scrapes also mirror the network counters into gauges).
    shared_registry: bool,
}

/// The scraping monitor. Cheap to clone.
#[derive(Clone)]
pub struct ResourceMonitor {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ResourceMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceMonitor")
            .field("samples", &self.inner.samples.lock().len())
            .finish()
    }
}

impl ResourceMonitor {
    /// Creates a monitor over the given network (not yet scraping). When
    /// the network carries an enabled observability bundle, the monitor's
    /// gauges are registered on that bundle's registry.
    pub fn new(net: SimNetwork) -> Self {
        let obs = net.obs();
        let (registry, shared_registry) = if obs.enabled() {
            (obs.registry().clone(), true)
        } else {
            (Registry::new(), false)
        };
        ResourceMonitor {
            inner: Arc::new(Inner {
                net,
                registry,
                samples: Mutex::new(Vec::new()),
                stop: AtomicBool::new(false),
                shared_registry,
            }),
        }
    }

    /// The registry this monitor's gauges live on.
    pub fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// Registers (or fetches) a named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner.registry.gauge(name)
    }

    /// Takes one scrape immediately.
    pub fn scrape(&self) -> ResourceSample {
        let stats = self.inner.net.stats();
        if self.inner.shared_registry {
            // Mirror the network counters into the shared registry so the
            // exposition and dashboard carry them without a special case.
            self.inner
                .registry
                .gauge("hammer_net_bytes_sent")
                .set(stats.bytes_sent);
            self.inner
                .registry
                .gauge("hammer_net_messages_delivered")
                .set(stats.delivered);
            self.inner
                .registry
                .gauge("hammer_net_messages_lost")
                .set(stats.lost);
            self.inner
                .registry
                .gauge("hammer_net_messages_faulted")
                .set(stats.faulted);
        }
        let sample = ResourceSample {
            at: self.inner.net.clock().now(),
            net_bytes_sent: stats.bytes_sent,
            net_messages_delivered: stats.delivered,
            gauges: self.inner.registry.gauges(),
        };
        self.inner.samples.lock().push(sample.clone());
        sample
    }

    /// Starts a background scraper on a **simulated-time** period: scrapes
    /// land on absolute sim-clock deadlines, so at 1000x speedup a 100 ms
    /// period yields samples 100 ms of *simulated* time apart, aligned
    /// with fault windows. Deadlines missed during a wall-clock stall are
    /// skipped rather than bursting catch-up scrapes. Returns a handle
    /// that stops the scraper when dropped.
    pub fn start_scraping(&self, period: Duration) -> ScrapeHandle {
        assert!(!period.is_zero(), "scrape period must be positive");
        let monitor = self.clone();
        let clock = self.inner.net.clock().clone();
        let handle = std::thread::Builder::new()
            .name("resource-monitor".to_owned())
            .spawn(move || {
                let mut deadline = clock.now();
                'scraper: loop {
                    if monitor.inner.stop.load(Ordering::Relaxed) {
                        break;
                    }
                    monitor.scrape();
                    // Next absolute deadline; skip any missed while stalled.
                    deadline = (deadline + period).max(clock.now());
                    // Wait in short wall chunks so dropping the handle stays
                    // responsive even when the sim period is long, finishing
                    // with the clock's precise sleep for the tail.
                    loop {
                        if monitor.inner.stop.load(Ordering::Relaxed) {
                            break 'scraper;
                        }
                        let now = clock.now();
                        if now >= deadline {
                            break;
                        }
                        let wall = clock.to_wall(deadline - now);
                        if wall <= Duration::from_millis(20) {
                            clock.sleep_until(deadline);
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                }
            })
            .expect("spawn monitor");
        ScrapeHandle {
            inner: Arc::clone(&self.inner),
            thread: Some(handle),
        }
    }

    /// All samples collected so far.
    pub fn samples(&self) -> Vec<ResourceSample> {
        self.inner.samples.lock().clone()
    }
}

/// Stops the background scraper when dropped.
pub struct ScrapeHandle {
    inner: Arc<Inner>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ScrapeHandle {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_net::{LinkConfig, SimClock};

    fn net() -> SimNetwork {
        SimNetwork::new(SimClock::with_speedup(1000.0), LinkConfig::ideal())
    }

    #[test]
    fn scrape_captures_network_counters() {
        let net = net();
        let _a = net.register("a");
        let _b = net.register("b");
        net.send("a", "b", vec![0u8; 64]).unwrap();
        let monitor = ResourceMonitor::new(net);
        let sample = monitor.scrape();
        assert_eq!(sample.net_bytes_sent, 64);
    }

    #[test]
    fn gauges_shared_by_name() {
        let monitor = ResourceMonitor::new(net());
        let g1 = monitor.gauge("blocks");
        let g2 = monitor.gauge("blocks");
        g1.add(3);
        g2.add(2);
        assert_eq!(monitor.gauge("blocks").value(), 5);
        let sample = monitor.scrape();
        assert_eq!(sample.gauges, vec![("blocks".to_owned(), 5)]);
    }

    #[test]
    fn gauge_set_overrides() {
        let monitor = ResourceMonitor::new(net());
        let g = monitor.gauge("queue_depth");
        g.set(42);
        assert_eq!(g.value(), 42);
        g.set(7);
        assert_eq!(g.value(), 7);
    }

    #[test]
    fn monitor_joins_installed_obs_registry() {
        let net = net();
        let _a = net.register("a");
        let _b = net.register("b");
        let obs = hammer_obs::Obs::new();
        net.install_obs(obs.clone());
        let monitor = ResourceMonitor::new(net.clone());
        monitor.gauge("blocks_sealed").set(9);
        net.send("a", "b", vec![0u8; 32]).unwrap();
        let sample = monitor.scrape();
        // The gauge landed on the shared registry ...
        assert_eq!(obs.registry().gauge("blocks_sealed").value(), 9);
        // ... and the scrape mirrored the network counters into it.
        assert_eq!(obs.registry().gauge("hammer_net_bytes_sent").value(), 32);
        assert!(sample
            .gauges
            .iter()
            .any(|(n, v)| n == "hammer_net_bytes_sent" && *v == 32));
    }

    #[test]
    fn background_scraper_collects_and_stops() {
        // 10 ms of simulated time at 1000x is 10 us of wall time, so the
        // 80 ms run collects far more than the asserted floor.
        let monitor = ResourceMonitor::new(net());
        {
            let _handle = monitor.start_scraping(Duration::from_millis(10));
            std::thread::sleep(Duration::from_millis(80));
        } // handle dropped -> scraper stops
        let n = monitor.samples().len();
        assert!(n >= 3, "collected {n} samples");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(monitor.samples().len(), n, "scraper kept running");
    }

    #[test]
    fn sim_scraper_aligns_samples_to_sim_period() {
        // Period of 2 s simulated = 20 ms wall at 100x, wide enough that
        // scheduler stalls on a busy 1-core host stay well under it.
        let clock = SimClock::with_speedup(100.0);
        let network = SimNetwork::new(clock, LinkConfig::ideal());
        let monitor = ResourceMonitor::new(network);
        let period = Duration::from_secs(2);
        {
            let _handle = monitor.start_scraping(period);
            std::thread::sleep(Duration::from_millis(170));
        }
        let samples = monitor.samples();
        assert!(samples.len() >= 3, "collected {}", samples.len());
        // Consecutive samples must be at least ~a period of *simulated*
        // time apart: the deadline ladder never fires early, and missed
        // deadlines are skipped instead of bursting.
        for pair in samples.windows(2) {
            let delta = pair[1].at - pair[0].at;
            assert!(
                delta >= period / 2,
                "samples only {delta:?} of sim time apart"
            );
        }
    }

    #[test]
    fn samples_are_ordered_in_time() {
        let monitor = ResourceMonitor::new(net());
        for _ in 0..5 {
            monitor.scrape();
            std::thread::sleep(Duration::from_millis(2));
        }
        let samples = monitor.samples();
        for pair in samples.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }
}

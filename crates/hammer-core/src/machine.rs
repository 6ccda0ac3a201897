//! A model of the evaluation client's machine.
//!
//! The paper's client is an `ecs.e-c1m2.large` instance with **2 vCPUs**
//! (§V *Environment*), and Fig. 10's headline observation — throughput
//! peaks at 2 threads per client and degrades beyond — is a property of
//! that machine, not of the blockchain: "increasing the number of threads
//! results in competition for CPU cores and increased scheduling
//! overhead". Since this reproduction runs on a many-core host, the
//! client's constraint must be modelled explicitly: every submission pays
//! a per-operation cost that grows once more driver threads run than the
//! modelled machine has vCPUs.

use std::time::Duration;

/// The modelled client machine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClientMachine {
    /// Number of vCPUs (the paper's client has 2).
    pub vcpus: u32,
    /// CPU cost of preparing and submitting one transaction when the
    /// machine is uncontended.
    pub submit_cost: Duration,
    /// Additional scheduling overhead per thread beyond the vCPU count
    /// (fraction of `submit_cost` each).
    pub contention_overhead: f64,
}

impl Default for ClientMachine {
    fn default() -> Self {
        Self::paper_client()
    }
}

impl ClientMachine {
    /// The paper's evaluation client: 2 vCPUs.
    pub fn paper_client() -> Self {
        ClientMachine {
            vcpus: 2,
            submit_cost: Duration::from_micros(900),
            contention_overhead: 0.35,
        }
    }

    /// An effectively unconstrained client (for benches that isolate the
    /// chain side).
    pub fn unconstrained() -> Self {
        ClientMachine {
            vcpus: 1024,
            submit_cost: Duration::from_micros(1),
            contention_overhead: 0.0,
        }
    }

    /// The *wall* time one submission occupies a worker thread when
    /// `active_threads` driver threads share the machine.
    ///
    /// * `active_threads <= vcpus`: each thread gets a core; the cost is
    ///   `submit_cost`.
    /// * beyond that, threads time-share cores
    ///   (`active_threads / vcpus` slowdown) and pay scheduling overhead
    ///   per excess thread.
    pub fn submit_delay(&self, active_threads: u32) -> Duration {
        let threads = active_threads.max(1) as f64;
        let vcpus = self.vcpus.max(1) as f64;
        let share = (threads / vcpus).max(1.0);
        let excess = (threads - vcpus).max(0.0);
        let overhead = 1.0 + self.contention_overhead * excess;
        self.submit_cost.mul_f64(share * overhead)
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.vcpus == 0 {
            return Err("vcpus must be positive".to_owned());
        }
        if self.submit_cost.is_zero() {
            return Err("submit_cost must be positive".to_owned());
        }
        if !self.contention_overhead.is_finite() || self.contention_overhead < 0.0 {
            return Err(format!(
                "contention_overhead must be finite and non-negative, got {}",
                self.contention_overhead
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_threads_pay_base_cost() {
        let m = ClientMachine::paper_client();
        assert_eq!(m.submit_delay(1), m.submit_cost);
        assert_eq!(m.submit_delay(2), m.submit_cost);
    }

    #[test]
    fn oversubscription_slows_each_thread() {
        let m = ClientMachine::paper_client();
        assert!(m.submit_delay(3) > m.submit_delay(2));
        assert!(m.submit_delay(6) > m.submit_delay(3));
    }

    #[test]
    fn throughput_peaks_at_vcpu_count() {
        // The analytic reproduction of Fig. 10's thread sweep: rate rises
        // to 2 threads, then declines.
        let m = ClientMachine::paper_client();
        let rates: Vec<f64> = (1..=6)
            .map(|t| t as f64 / m.submit_delay(t).as_secs_f64())
            .collect();
        assert!(rates[1] > rates[0], "2 threads beat 1");
        let peak = rates
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 1, "peak must be at 2 threads (index 1): {rates:?}");
        assert!(rates[5] < rates[1], "6 threads worse than 2");
    }

    #[test]
    fn unconstrained_machine_is_flat() {
        let m = ClientMachine::unconstrained();
        assert_eq!(m.submit_delay(1), m.submit_delay(64));
    }

    #[test]
    fn zero_active_threads_treated_as_one() {
        let m = ClientMachine::paper_client();
        assert_eq!(m.submit_delay(0), m.submit_delay(1));
    }

    #[test]
    fn validation() {
        assert!(ClientMachine::paper_client().validate().is_ok());
        assert!(ClientMachine {
            vcpus: 0,
            ..ClientMachine::paper_client()
        }
        .validate()
        .is_err());
        assert!(ClientMachine {
            submit_cost: Duration::ZERO,
            ..ClientMachine::paper_client()
        }
        .validate()
        .is_err());
        assert!(ClientMachine {
            contention_overhead: -1.0,
            ..ClientMachine::paper_client()
        }
        .validate()
        .is_err());
    }
}

//! Distributed testing: several driver servers against one SUT.
//!
//! The paper's architecture (Fig. 2) allows multiple driver servers, and
//! Algorithm 1's Bloom filter exists precisely for this setting: every
//! committed block contains transactions from *all* drivers, so each
//! driver's monitor must cheaply skip the foreign ones ("such process can
//! significantly save time and bring some other benefits in distributed
//! testing").
//!
//! [`run_distributed`] launches N full evaluations concurrently against a
//! shared deployment — disjoint workloads (per-driver seeds), one chain —
//! and reports per-driver plus combined results, including each driver's
//! index statistics so the foreign-transaction handling is observable.

use hammer_net::thread;
use hammer_workload::{ControlSequence, WorkloadConfig};

use crate::deploy::Deployment;
use crate::driver::{EvalConfig, EvalError, EvalReport, Evaluation};
use crate::index::IndexStats;

/// Results of a distributed run.
#[derive(Clone, Debug)]
pub struct MultiDriverReport {
    /// One report per driver server, in driver-id order.
    pub per_driver: Vec<EvalReport>,
}

impl MultiDriverReport {
    /// Total committed transactions across drivers.
    pub fn combined_committed(&self) -> usize {
        self.per_driver.iter().map(|r| r.committed).sum()
    }

    /// Total submitted transactions across drivers.
    pub fn combined_submitted(&self) -> u64 {
        self.per_driver.iter().map(|r| r.submitted).sum()
    }

    /// Per-driver index statistics (Bloom rejections of foreign
    /// transactions, probe steps, expansions).
    pub fn index_stats(&self) -> Vec<Option<IndexStats>> {
        self.per_driver.iter().map(|r| r.index_stats).collect()
    }
}

/// Runs `drivers` evaluations concurrently against one deployment.
///
/// Driver `d` uses `workload.seed + d`, giving every driver a disjoint
/// transaction set and account pool on the shared chain; its transactions
/// are stamped with `server_id` offset so the Performance rows stay
/// attributable.
///
/// # Errors
///
/// Returns the first driver error encountered (remaining drivers still
/// run to completion).
pub fn run_distributed(
    deployment: &Deployment,
    workload: &WorkloadConfig,
    control: &ControlSequence,
    config: &EvalConfig,
    drivers: u32,
) -> Result<MultiDriverReport, EvalError> {
    if drivers == 0 {
        return Err(EvalError::InvalidConfig(
            "need at least one driver".to_owned(),
        ));
    }
    let mut results: Vec<Option<Result<EvalReport, EvalError>>> =
        (0..drivers).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for d in 0..drivers {
            let mut driver_workload = workload.clone();
            driver_workload.seed = workload.seed.wrapping_add(d as u64);
            let evaluation = Evaluation::new(config.clone());
            let run = move || evaluation.run(deployment, &driver_workload, control);
            let handle = thread::spawn_scoped(scope, format!("hammer-driver-{d}"), run)
                .expect("spawn driver");
            handles.push((d, handle));
        }
        for (d, handle) in handles {
            results[d as usize] = Some(handle.join().expect("driver thread panicked"));
        }
    });
    let mut per_driver = Vec::with_capacity(drivers as usize);
    for result in results.into_iter().flatten() {
        per_driver.push(result?);
    }
    Ok(MultiDriverReport { per_driver })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{BackendOptions, BackendRegistry};
    use crate::driver::TestingMode;
    use crate::machine::ClientMachine;
    use std::time::Duration;

    fn fast_config() -> EvalConfig {
        EvalConfig::builder()
            .machine(ClientMachine::unconstrained())
            .poll_interval(Duration::from_millis(20))
            .drain_timeout(Duration::from_secs(60))
            .build()
            .expect("valid config")
    }

    #[test]
    fn two_drivers_share_one_chain() {
        // Distributed runs pick the shared SUT by registry name, the way
        // a driver-server config file would.
        let deployment = crate::deploy::BackendRegistry::builtin()
            .deploy("neuchain-sim", &crate::deploy::BackendOptions::default())
            .expect("neuchain-sim is a builtin backend");
        let workload = WorkloadConfig {
            accounts: 100,
            chain_name: "neuchain-sim".to_owned(),
            ..WorkloadConfig::default()
        };
        let control = ControlSequence::constant(50, 3, Duration::from_secs(1));
        let report = run_distributed(&deployment, &workload, &control, &fast_config(), 2).unwrap();
        assert_eq!(report.per_driver.len(), 2);
        assert_eq!(report.combined_submitted(), 300);
        assert!(
            report.combined_committed() > 260,
            "combined = {}",
            report.combined_committed()
        );
        // Every driver saw the other's transactions in the shared blocks
        // and skimmed them off with the Bloom filter.
        for stats in report.index_stats() {
            let stats = stats.expect("task processing exposes index stats");
            assert!(
                stats.bloom_rejections > 0,
                "no foreign transactions rejected: {stats:?}"
            );
        }
    }

    #[test]
    fn zero_drivers_rejected() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default())
            .unwrap();
        let workload = WorkloadConfig::default();
        let control = ControlSequence::constant(10, 1, Duration::from_secs(1));
        assert!(matches!(
            run_distributed(&deployment, &workload, &control, &fast_config(), 0),
            Err(EvalError::InvalidConfig(_))
        ));
    }

    #[test]
    fn batch_baseline_drivers_have_no_index_stats() {
        let deployment = BackendRegistry::builtin()
            .deploy("neuchain-sim", &BackendOptions::default())
            .unwrap();
        let workload = WorkloadConfig {
            accounts: 50,
            chain_name: "neuchain-sim".to_owned(),
            ..WorkloadConfig::default()
        };
        let control = ControlSequence::constant(30, 2, Duration::from_secs(1));
        let config = EvalConfig::builder()
            .mode(TestingMode::BatchBaseline)
            .machine(ClientMachine::unconstrained())
            .poll_interval(Duration::from_millis(20))
            .drain_timeout(Duration::from_secs(60))
            .build()
            .expect("valid config");
        let report = run_distributed(&deployment, &workload, &control, &config, 1).unwrap();
        assert!(report.index_stats()[0].is_none());
    }
}

//! **Hammer** — a general blockchain evaluation framework.
//!
//! This crate is the paper's primary contribution: a driver that evaluates
//! sharded and non-sharded blockchains through one generic interface, with
//! two key components:
//!
//! 1. **Asynchronous task processing** (§III-C, Algorithm 1) — in-flight
//!    transactions live in a *vector list* ([`index::TxTable`]) indexed by
//!    a dynamically grown hash table behind a Bloom filter
//!    ([`bloom::BloomFilter`]), so matching the transactions of a new
//!    block costs O(1) each instead of the O(n·m) queue scan of
//!    Blockbench-style batch testing ([`baseline::BatchQueue`]).
//! 2. **Asynchronous signatures + pipelined preparation/execution**
//!    (§III-D, Fig. 4) — workload signing is parallelised
//!    ([`signer::sign_async`]) and overlapped with execution
//!    ([`signer::sign_pipelined`]), removing the serial preparation
//!    bottleneck (Fig. 8's ≈6.9× speed-up).
//!
//! The [`driver`] module orchestrates a full evaluation — preparation,
//! execution, and reporting (Fig. 3) — against any
//! [`hammer_chain::client::BlockchainClient`]; the report is folded from
//! the matched records, which are the run's Performance table
//! ([`driver::perf_row`] makes a row of one). [`deploy`] brings up a
//! simulated system under test with one call (the paper's Ansible role),
//! and [`machine`] models the evaluation client's limited vCPUs, which is
//! what makes thread/client scaling behave like the paper's Fig. 10.
//!
//! # Quickstart
//!
//! ```
//! use std::time::Duration;
//! use hammer_core::deploy::{BackendOptions, BackendRegistry};
//! use hammer_core::driver::{EvalConfig, Evaluation};
//! use hammer_workload::{ControlSequence, WorkloadConfig};
//!
//! // 1. Deploy a simulated SUT (1000x accelerated clock).
//! let deployment = BackendRegistry::builtin().deploy("neuchain-sim", &BackendOptions::default(), 1000.0).unwrap();
//! // 2. Describe the workload and control sequence.
//! let workload = WorkloadConfig {
//!     accounts: 100,
//!     total_txs: 200,
//!     ..WorkloadConfig::default()
//! };
//! let control = ControlSequence::constant(100, 2, Duration::from_secs(1));
//! // 3. Run.
//! let config = EvalConfig::builder().build().unwrap();
//! let report = Evaluation::new(config)
//!     .run(&deployment, &workload, &control)
//!     .unwrap();
//! assert!(report.committed > 0);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod bloom;
pub mod chaos;
pub mod checkpoint;
pub mod deploy;
pub mod driver;
pub mod index;
pub mod machine;
pub mod multi;
pub mod retry;
pub mod scenario;
pub mod shard;
pub mod signer;

pub use baseline::BatchQueue;
pub use bloom::BloomFilter;
pub use chaos::{InvariantCheck, LeakProbe};
pub use checkpoint::{DriverCheckpoint, RecoveryConfig};
pub use deploy::{
    BackendOptions, BackendRegistry, DeployMode, Deployment, ProcessFaultStats, SupervisorConfig,
    UnknownBackend,
};
pub use driver::{EvalConfig, EvalReport, Evaluation, TestingMode};
pub use index::{TxRecord, TxTable};
pub use machine::ClientMachine;
pub use multi::run_distributed;
pub use retry::RetryPolicy;
pub use scenario::{Expectation, Scenario, ScenarioBuilder, ScenarioError, Verdict};
pub use shard::ShardedTxTable;

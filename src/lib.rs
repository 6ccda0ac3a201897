//! # Hammer — a general blockchain evaluation framework
//!
//! A from-scratch Rust reproduction of *"Hammer: A General Blockchain
//! Evaluation Framework"* (Wang, Zhang, Ying, Li, Yu — ICDCS 2024),
//! including every substrate the paper's evaluation depends on: four
//! simulated blockchains (Ethereum/PoW, Fabric/EOV, Neuchain/deterministic,
//! Meepo/sharded), a simulated network, a JSON-RPC interface layer, the
//! Redis/MySQL/Prometheus/Grafana-role stores, the SmallBank workload, and
//! a from-scratch neural-network stack for the workload-prediction model.
//!
//! This facade crate re-exports the whole workspace; depend on it for the
//! one-stop API or on the individual `hammer-*` crates for narrow use.
//!
//! ## Quickstart
//!
//! ```
//! use std::time::Duration;
//! use hammer::core::deploy::{BackendOptions, BackendRegistry};
//! use hammer::core::driver::{EvalConfig, Evaluation};
//! use hammer::workload::{ControlSequence, WorkloadConfig};
//!
//! // Deploy a simulated SUT on a virtual clock (simulated time jumps
//! // from one modelled delay to the next, so the same inputs read the
//! // same report), describe a workload, shape it with a control
//! // sequence, and run the evaluation.
//! let deployment = BackendRegistry::builtin().deploy("neuchain-sim", &BackendOptions::default()).unwrap();
//! let workload = WorkloadConfig { accounts: 100, ..WorkloadConfig::default() };
//! let control = ControlSequence::constant(100, 2, Duration::from_secs(1));
//! let config = EvalConfig::builder().build().unwrap();
//! let report = Evaluation::new(config)
//!     .run(&deployment, &workload, &control)
//!     .unwrap();
//! println!("{}: {:.0} TPS", report.chain, report.overall_tps);
//! ```
//!
//! ## Crate map
//!
//! | Module | Backing crate | Role |
//! |---|---|---|
//! | [`core`] | `hammer-core` | the framework: driver, Algorithm 1, signing pipeline, deployment |
//! | [`chain`] | `hammer-chain` | common chain types, SmallBank contract, generic client trait |
//! | [`ethereum`] / [`fabric`] / [`neuchain`] / [`meepo`] | chain simulators | the four systems under test: a config, a consensus policy and `start` each |
//! | [`net`] | `hammer-net` | scaled clock, endpoint names, fault plans, traffic accounting, TCP transport |
//! | [`obs`] | `hammer-obs` | metrics registry, lifecycle spans, journal, Prometheus exposition, ASCII dashboard |
//! | [`rpc`] | `hammer-rpc` | JSON + JSON-RPC 2.0 interface layer |
//! | [`store`] | `hammer-store` | KV store, Performance table, reports |
//! | [`workload`] | `hammer-workload` | SmallBank/YCSB generators, control sequences, traces |
//! | [`nn`] / [`predict`] | `hammer-nn`, `hammer-predict` | the §IV prediction model |
//! | [`crypto`] | `hammer-crypto` | SHA-256, Merkle, signatures |

#![warn(missing_docs)]

pub use hammer_chain as chain;
pub use hammer_core as core;
pub use hammer_crypto as crypto;
pub use hammer_ethereum as ethereum;
pub use hammer_fabric as fabric;
pub use hammer_meepo as meepo;
pub use hammer_net as net;
pub use hammer_neuchain as neuchain;
pub use hammer_nn as nn;
pub use hammer_obs as obs;
pub use hammer_predict as predict;
pub use hammer_rpc as rpc;
pub use hammer_store as store;
pub use hammer_workload as workload;

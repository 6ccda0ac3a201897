//! The workload layer of the Hammer evaluation framework.
//!
//! The paper's client (§III-A1) parses a workload profile, pre-populates
//! accounts, and generates the transaction payloads the driver will sign
//! and submit under a temporal *control sequence*. This crate implements
//! all of that:
//!
//! * [`config`] — the JSON workload profile (read/write mix, distribution,
//!   account count, client/thread topology).
//! * [`smallbank`] — the SmallBank generator, the paper's evaluation
//!   workload (§V *Workload*), with a uniform mix over the four primary
//!   operations.
//! * [`ycsb`] — a YCSB-style key/value workload (the "self-defined
//!   workloads" extension point).
//! * [`zipf`] — a from-scratch Zipfian sampler for skewed account access.
//! * [`control`] — control sequences: per-slice concurrency budgets that
//!   make synthetic load follow real temporal shapes.
//! * [`traces`] — seeded synthetic equivalents of the paper's three
//!   real-application datasets (DeFi, NFT, Sandbox games; Fig. 1), used to
//!   train and evaluate the prediction model (Table III, Fig. 11).

#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod smallbank;
pub mod traces;
pub mod ycsb;
pub mod zipf;

pub use config::{AccessDistribution, WorkloadConfig, WorkloadKind};
pub use control::ControlSequence;
pub use smallbank::SmallBankGenerator;
pub use traces::{TraceKind, TraceSpec};
pub use ycsb::YcsbGenerator;
pub use zipf::Zipfian;

//! Simulated network substrate for the Hammer blockchain evaluation
//! framework.
//!
//! The paper's testbed is a 5-node Aliyun ECS cluster with ~100 Mbps links.
//! This crate replaces that hardware with an in-process simulation that the
//! chain simulators and the evaluation driver run on:
//!
//! * [`clock::SimClock`] — a scalable clock. Chain simulators express delays
//!   in *simulated* time (e.g. Ethereum's 15-second block interval) and the
//!   clock maps them onto wall time with a configurable speed-up, so a full
//!   evaluation runs in seconds while inter-system *ratios* are preserved.
//! * [`link::LinkConfig`] — per-link latency, jitter, bandwidth and loss.
//! * [`network::SimNetwork`] — a message bus connecting named endpoints with
//!   per-link delay/loss and partition injection.
//! * [`fault::FaultPlan`] — scripted, clock-driven fault windows (node
//!   crash/restart, blackhole, partition, latency spike) that compose with
//!   the probabilistic link model for robustness evaluations.
//! * [`chaos::ChaosSchedule`] — a seeded generator of valid randomized
//!   fault plans over discovered fault targets, plus a shrinker that
//!   reduces a failing schedule to its smallest failing prefix.
//! * [`tcp`] — the one *real* transport: length-prefixed JSON-RPC over
//!   TCP ([`tcp::TcpRpcServer`] / [`tcp::TcpRpcClient`]), used by the
//!   multi-process deploy mode where each chain node runs as its own OS
//!   process and faults kill real sockets.
//!
//! The network also carries the run's observability bundle
//! ([`SimNetwork::install_obs`]): per-link byte and drop counters are
//! recorded on every send, and every component holding the network
//! (chain simulators, driver) fetches the same
//! [`hammer_obs::Obs`] from it, so instrumentation needs no extra
//! plumbing. [`network::FaultObserver`] turns fault-plan window
//! transitions into journal events.
//!
//! # Example
//!
//! ```
//! use hammer_net::{clock::SimClock, link::LinkConfig, network::SimNetwork};
//! use std::time::Duration;
//!
//! let clock = SimClock::with_speedup(1000.0); // 1000x faster than real time
//! let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
//! let _a = net.register("node-a");
//! let b = net.register("node-b");
//! net.send("node-a", "node-b", b"ping".to_vec()).unwrap();
//! let msg = b.recv_timeout(Duration::from_secs(2)).unwrap();
//! assert_eq!(msg.payload, b"ping");
//! assert_eq!(msg.from, "node-a");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod clock;
pub mod fault;
pub mod link;
pub mod network;
pub mod tcp;

pub use chaos::{ChaosConfig, ChaosSchedule, ChaosTargets};
pub use clock::SimClock;
pub use fault::{Fault, FaultPlan, FaultPlanError, FaultWindow, NodeFault};
pub use link::LinkConfig;
pub use network::{Endpoint, FaultObserver, Message, NetError, SimNetwork, DEFAULT_NET_SEED};
pub use tcp::{
    RawHandler, ReconnectPolicy, TcpClientConfig, TcpError, TcpRpcClient, TcpRpcServer,
    TcpServerConfig,
};

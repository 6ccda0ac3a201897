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
//!   Its module holds the simulation's only timed-wait loop and
//!   [`clock::StopSignal`], which teardown raises and a producer rings to
//!   wake what waits. [`SimClock::virtual_time`] builds a clock whose time
//!   a scheduler owns instead: it runs the clock's threads one at a time
//!   and jumps time to the next deadline when all of them wait; a raise or
//!   a ring there readies the waiter at the setter's instant, so a chain
//!   deployed on such a clock runs in virtual time too.
//! * [`link::LinkConfig`] — the testbed's link quality. Only
//!   `loss_probability` is simulated; latency, jitter and bandwidth
//!   describe the links and delay nothing.
//! * [`network::SimNetwork`] — what a deployment shares: the clock, the
//!   registry of endpoint names, the installed fault plan, the obs bundle,
//!   and traffic *accounting*. `send` books a message (counters, per-link
//!   bytes, fault and loss drops) and returns; nothing is delivered,
//!   because no simulated node reads replicated blocks.
//! * [`fault::FaultPlan`] — scripted, clock-driven fault windows (node
//!   crash/restart, blackhole, partition, latency spike) for robustness
//!   evaluations. Crash and blackhole gate ingress and sealing; partition
//!   and latency spike move only the accounting today (see [`fault`]).
//!   [`fault`] is the one place the four kinds are enumerated: the one
//!   window type, its one JSON form, and the one resolver of `ingress:N` /
//!   `sealer:N` / `rest` placeholders against a deployed chain.
//! * [`chaos::generate`] — a seeded generator of valid randomized fault
//!   plans over discovered fault targets, with no options.
//! * [`tcp`] — the one *real* transport: length-prefixed JSON-RPC over
//!   TCP ([`tcp::TcpRpcServer`] / [`tcp::TcpRpcClient`]), used by the
//!   multi-process deploy mode where each chain node runs as its own OS
//!   process and faults kill real sockets.
//! * [`thread`] — the one place a thread is started: [`thread::spawn`] and
//!   [`thread::spawn_scoped`] name every thread of the workspace after its
//!   role; `clippy.toml` disallows the std spawns everywhere else.
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
//!
//! let clock = SimClock::with_speedup(1000.0); // 1000x faster than real time
//! let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
//! net.register("node-a");
//! net.register("node-b");
//! net.send("node-a", "node-b", 4).unwrap();
//! let stats = net.stats();
//! assert_eq!((stats.sent, stats.bytes_sent), (1, 4));
//! assert_eq!(stats.lost + stats.faulted, 0);
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod fault;
pub mod link;
pub mod network;
mod sched;
pub mod tcp;
pub mod thread;

pub use chaos::ChaosTargets;
pub use clock::{SimClock, StopSignal};
pub use fault::{FaultPlan, NodeFault};
pub use link::LinkConfig;
pub use network::{FaultObserver, SimNetwork};
pub use tcp::{
    RawHandler, ReconnectPolicy, TcpClientConfig, TcpRpcClient, TcpRpcServer, TcpServerConfig,
};

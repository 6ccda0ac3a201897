//! The generic RPC interface layer of the Hammer blockchain evaluation
//! framework.
//!
//! The paper (§III-A2) resolves the "no unified communication mechanism"
//! problem by putting a JSON-RPC facade in front of every blockchain SDK,
//! so one driver can talk to sharded and non-sharded systems written in any
//! language. This crate implements that facade from scratch:
//!
//! * [`json`] — a JSON value model with a hand-written parser and
//!   serializer (JSON is part of the system under study here, not an
//!   external dependency).
//! * [`jsonrpc`] — JSON-RPC 2.0 request/response framing with the standard
//!   error codes.
//! * [`transport`] — an in-process transport: a [`transport::RpcServer`]
//!   dispatches method calls to registered handlers, and an
//!   [`transport::RpcClient`] issues calls from any thread. It stands in
//!   for the TCP transport of a real deployment.
//! * [`frame`] — length-prefixed wire framing for byte-stream transports.
//!   `hammer-net`'s TCP layer composes this codec with real sockets to run
//!   the same JSON-RPC exchange across process boundaries.
//!
//! # Example
//!
//! ```
//! use hammer_rpc::json::Value;
//! use hammer_rpc::transport::RpcServer;
//!
//! let server = RpcServer::new("demo-chain");
//! server.register("echo", |params| Ok(params));
//! let client = server.client();
//! let reply = client.call("echo", Value::from("hi")).unwrap();
//! assert_eq!(reply, Value::from("hi"));
//! ```

#![warn(missing_docs)]

pub mod frame;
pub mod json;
pub mod jsonrpc;
pub mod transport;

/// The vendored channel's scheduler hook, for `hammer-net`'s virtual-time
/// scheduler: this crate is that crate's one path to the channel.
pub use crossbeam::sched as channel_sched;
pub use frame::{FrameDecoder, FrameError, MAX_FRAME_LEN};
pub use json::Value;
pub use jsonrpc::{RpcError, RpcRequest, RpcResponse};
pub use transport::{RpcClient, RpcServer};

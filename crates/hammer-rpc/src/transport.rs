//! In-process RPC transport.
//!
//! An [`RpcServer`] owns a dispatch table of method handlers. An
//! [`RpcClient`] (cheap to clone, usable from any thread) serialises a
//! [`RpcRequest`] to JSON text, hands the text to the server, and parses the
//! JSON text that comes back — so every call crosses a real
//! serialise/deserialise boundary exactly as it would over TCP, which keeps
//! the measured framing costs honest.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::json::Value;
use crate::jsonrpc::{RpcError, RpcRequest, RpcResponse};

/// A method handler: receives the params value, returns a result or error.
pub type Handler = Box<dyn Fn(Value) -> Result<Value, RpcError> + Send + Sync>;

struct ServerInner {
    name: String,
    handlers: RwLock<HashMap<String, Handler>>,
}

/// An RPC server with named method handlers.
#[derive(Clone)]
pub struct RpcServer {
    inner: Arc<ServerInner>,
}

impl std::fmt::Debug for RpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RpcServer")
            .field("name", &self.inner.name)
            .field("methods", &self.method_names())
            .finish()
    }
}

impl RpcServer {
    /// Creates a server with a display name (e.g. the chain it fronts).
    pub fn new(name: &str) -> Self {
        RpcServer {
            inner: Arc::new(ServerInner {
                name: name.to_owned(),
                handlers: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// The server's display name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Registers (or replaces) a handler for `method`.
    pub fn register<F>(&self, method: &str, handler: F)
    where
        F: Fn(Value) -> Result<Value, RpcError> + Send + Sync + 'static,
    {
        self.inner
            .handlers
            .write()
            .insert(method.to_owned(), Box::new(handler));
    }

    /// Registered method names, sorted.
    pub fn method_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.handlers.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Handles raw JSON-RPC request text, returning response text.
    ///
    /// This is the wire entry point a TCP listener would call.
    pub fn handle_text(&self, text: &str) -> String {
        let mut out = String::new();
        self.handle_bytes_into(text.as_bytes(), &mut out);
        out
    }

    /// Handles raw JSON-RPC request bytes, appending the response text to a
    /// caller-supplied buffer — the allocation-free twin of
    /// [`RpcServer::handle_text`] for transports that reuse wire buffers.
    pub fn handle_bytes_into(&self, request: &[u8], out: &mut String) {
        let response = match RpcRequest::parse_bytes(request) {
            Ok(req) => self.handle(req),
            Err(err) => RpcResponse::error(0, err),
        };
        response.to_json_into(out);
    }

    /// Handles a parsed request.
    pub fn handle(&self, req: RpcRequest) -> RpcResponse {
        let handlers = self.inner.handlers.read();
        match handlers.get(&req.method) {
            Some(handler) => match handler(req.params) {
                Ok(result) => RpcResponse::success(req.id, result),
                Err(err) => RpcResponse::error(req.id, err),
            },
            None => RpcResponse::error(req.id, RpcError::method_not_found(&req.method)),
        }
    }

    /// Creates a client bound to this server.
    pub fn client(&self) -> RpcClient {
        RpcClient {
            server: self.clone(),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }
}

/// A client handle for issuing calls against one [`RpcServer`].
///
/// Clones share the id counter, so ids stay unique across threads.
#[derive(Clone, Debug)]
pub struct RpcClient {
    server: RpcServer,
    next_id: Arc<AtomicU64>,
}

thread_local! {
    /// Per-thread (request, response) wire buffers reused across calls, so
    /// steady-state submission does no transient text allocations.
    static WIRE_BUFS: std::cell::RefCell<(String, String)> =
        const { std::cell::RefCell::new((String::new(), String::new())) };
}

impl RpcClient {
    /// Calls `method` with `params`, crossing a full JSON encode/decode
    /// round trip, and returns the result value.
    ///
    /// The wire text on both directions goes through thread-local reusable
    /// buffers; the encode/parse work still happens on every call (the
    /// framing cost stays honest), only the allocations are amortised.
    pub fn call(&self, method: &str, params: Value) -> Result<Value, RpcError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = RpcRequest {
            id,
            method: method.to_owned(),
            params,
        };
        // Take the buffers out of the slot (a re-entrant call from a
        // handler on this thread just starts from fresh empty ones).
        let (mut req_buf, mut resp_buf) = WIRE_BUFS.with(|b| std::mem::take(&mut *b.borrow_mut()));
        req_buf.clear();
        resp_buf.clear();
        req.to_json_into(&mut req_buf);
        self.server
            .handle_bytes_into(req_buf.as_bytes(), &mut resp_buf);
        let parsed = RpcResponse::parse_bytes(resp_buf.as_bytes());
        WIRE_BUFS.with(|b| *b.borrow_mut() = (req_buf, resp_buf));
        let resp = parsed?;
        debug_assert_eq!(resp.id, id, "transport must echo the request id");
        resp.outcome
    }
}

#[cfg(test)]
// Below hammer-net in the dependency graph: hammer_net::thread is out of reach.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;
    use crate::jsonrpc::RpcErrorCode;

    #[test]
    fn call_roundtrip() {
        let server = RpcServer::new("test");
        server.register("add", |params| {
            let a = params.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = params.get("b").and_then(Value::as_i64).unwrap_or(0);
            Ok(Value::from(a + b))
        });
        let client = server.client();
        let result = client
            .call(
                "add",
                Value::object([("a", Value::from(2)), ("b", Value::from(40))]),
            )
            .unwrap();
        assert_eq!(result, Value::Int(42));
    }

    #[test]
    fn unknown_method_errors() {
        let server = RpcServer::new("test");
        let client = server.client();
        let err = client.call("nope", Value::Null).unwrap_err();
        assert_eq!(err.code, RpcErrorCode::MethodNotFound);
    }

    #[test]
    fn handler_errors_propagate() {
        let server = RpcServer::new("test");
        server.register("fail", |_| {
            Err(RpcError::application(-1001, "chain stalled"))
        });
        let client = server.client();
        let err = client.call("fail", Value::Null).unwrap_err();
        assert_eq!(err.code, RpcErrorCode::Application(-1001));
        assert_eq!(err.message, "chain stalled");
    }

    #[test]
    fn malformed_wire_text_yields_parse_error() {
        let server = RpcServer::new("test");
        let resp_text = server.handle_text("this is not json");
        let resp = RpcResponse::parse(&resp_text).unwrap();
        assert!(matches!(
            resp.outcome,
            Err(RpcError {
                code: RpcErrorCode::ParseError,
                ..
            })
        ));
    }

    #[test]
    fn ids_unique_across_cloned_clients() {
        let server = RpcServer::new("test");
        let calls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&calls);
        server.register("id", move |_| {
            seen.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Null)
        });
        let c1 = server.client();
        let c2 = c1.clone();
        // Exercise concurrently.
        let h1 = std::thread::spawn(move || {
            for _ in 0..100 {
                c1.call("id", Value::Null).unwrap();
            }
        });
        let h2 = std::thread::spawn(move || {
            for _ in 0..100 {
                c2.call("id", Value::Null).unwrap();
            }
        });
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn register_replaces_handler() {
        let server = RpcServer::new("test");
        server.register("v", |_| Ok(Value::from(1)));
        server.register("v", |_| Ok(Value::from(2)));
        assert_eq!(
            server.client().call("v", Value::Null).unwrap(),
            Value::Int(2)
        );
        assert_eq!(server.method_names(), vec!["v"]);
    }

    #[test]
    fn debug_includes_name() {
        let server = RpcServer::new("fabric-rpc");
        assert!(format!("{server:?}").contains("fabric-rpc"));
    }
}

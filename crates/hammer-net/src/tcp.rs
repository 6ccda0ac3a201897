//! Real TCP transport for the JSON-RPC exchange.
//!
//! Everything else in this crate simulates a network; this module is the
//! one place that opens real sockets. It carries exactly the same
//! JSON-RPC texts as the in-process transport
//! ([`hammer_rpc::transport::RpcServer::handle_bytes_into`] is the shared
//! entry point), framed with the length-prefixed codec from
//! [`hammer_rpc::frame`], so a driver talking to a node over loopback TCP
//! exercises byte-identical wire messages to the in-process path — plus
//! the failure modes only a real socket has: resets, timeouts, and peers
//! that die mid-frame.
//!
//! Failure taxonomy, mirrored into `ChainError` by `hammer-chain`:
//!
//! * [`TcpError::Io`] — connection-level trouble (refused, reset, timed
//!   out, closed). *Transient*: the peer may come back; clients
//!   reconnect with backoff.
//! * [`TcpError::Frame`] — a framing violation ([`FrameError`]). *Fatal
//!   for the connection*: the stream can no longer be trusted, so both
//!   sides drop it on sight.
//!
//! The server is deliberately chain-agnostic: it serves an opaque
//! `Fn(&[u8], &mut String)` handler, so this crate needs no knowledge of
//! chains or RPC method tables.
//!
//! No server thread polls: `tcp-rpc-accept` blocks in `accept()` and each
//! `tcp-rpc-conn` thread in `read` with no timeout, so an idle server
//! costs nothing. [`TcpRpcServer::shutdown_and_join`] wakes them, in this
//! order: raise the flag; connect to the server's own port, which returns
//! the acceptor to the flag, and join it — the connection list is final
//! from here; `shutdown(Both)` every connection, which ends its thread's
//! `read` with EOF; join them.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hammer_rpc::frame::{encode_frame, FrameDecoder, FrameError};
use hammer_rpc::json::Value;
use hammer_rpc::jsonrpc::{RpcError, RpcRequest, RpcResponse};
use parking_lot::Mutex;

/// A raw request handler: receives one request's JSON bytes, appends the
/// response JSON to `out`. [`hammer_rpc::transport::RpcServer::handle_bytes_into`]
/// has exactly this shape.
pub type RawHandler = Arc<dyn Fn(&[u8], &mut String) + Send + Sync>;

/// Why a TCP call or serve step failed.
#[derive(Debug)]
pub enum TcpError {
    /// Connection-level failure: refused, reset, timed out, or closed.
    /// Transient — the peer may return after a restart.
    Io(io::Error),
    /// Length-prefix framing violation. Fatal for the connection: the
    /// byte stream cannot be resynchronised.
    Frame(FrameError),
    /// The peer answered, but with bytes that are not a well-formed
    /// JSON-RPC response (or with a mismatched call id). Fatal for the
    /// connection.
    Protocol(String),
}

impl TcpError {
    /// Whether this error is a protocol violation (fatal) rather than a
    /// connection-level failure (transient).
    pub fn is_protocol(&self) -> bool {
        matches!(self, TcpError::Frame(_) | TcpError::Protocol(_))
    }
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "tcp io: {e}"),
            TcpError::Frame(e) => write!(f, "tcp framing: {e}"),
            TcpError::Protocol(msg) => write!(f, "tcp protocol: {msg}"),
        }
    }
}

impl std::error::Error for TcpError {}

impl From<io::Error> for TcpError {
    fn from(e: io::Error) -> Self {
        TcpError::Io(e)
    }
}

impl From<FrameError> for TcpError {
    fn from(e: FrameError) -> Self {
        TcpError::Frame(e)
    }
}

/// Deadline for writing one frame, on either side: a peer that stops
/// draining its socket for this long gets disconnected.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Pause after a failed `accept` or wake-up connection (EMFILE persists),
/// so that neither retries in a hot loop; also the patience of one wake-up.
const ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Nothing to set: the type and `rpc_adapter::serve_tcp`'s parameter for it
/// remain only because the frozen `driver_e2e` package names them (ROADMAP 6b).
#[derive(Clone, Copy, Debug, Default)]
pub struct TcpServerConfig {}

/// A TCP listener serving length-prefixed JSON-RPC frames.
///
/// One OS thread accepts connections; each connection gets its own
/// thread running a read-decode-dispatch-respond loop against the
/// supplied handler. Dropping the server (or calling
/// [`TcpRpcServer::shutdown_and_join`]) stops the acceptor, shuts every
/// connection socket, and joins all threads — the same
/// shutdown-AND-join guarantee the in-process kernel gives.
pub struct TcpRpcServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    listener: TcpListener,
    conns: Arc<Mutex<Vec<ConnSlot>>>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    served: Arc<AtomicU64>,
}

struct ConnSlot {
    stream: TcpStream,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl TcpRpcServer {
    /// Binds to `addr` (use port 0 for an ephemeral port, then read
    /// [`TcpRpcServer::local_addr`]) and starts serving `handler`.
    pub fn bind(addr: &str, handler: RawHandler) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<ConnSlot>>> = Arc::new(Mutex::new(Vec::new()));
        let served = Arc::new(AtomicU64::new(0));

        let accept_listener = listener.try_clone()?;
        let t_shutdown = shutdown.clone();
        let t_conns = conns.clone();
        let t_served = served.clone();
        let accept_thread = std::thread::Builder::new()
            .name("tcp-rpc-accept".to_owned())
            .spawn(move || accept_loop(accept_listener, handler, t_shutdown, t_conns, t_served))?;

        Ok(TcpRpcServer {
            local_addr,
            shutdown,
            listener,
            conns,
            accept_thread: Mutex::new(Some(accept_thread)),
            served,
        })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Total requests dispatched across all connections so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops accepting, severs every live connection, and joins all
    /// server threads. Idempotent.
    pub fn shutdown_and_join(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The acceptor first: a connection it listed after the severing pass
        // would leave its thread in `read` for good.
        let accept = self.accept_thread.lock().take();
        if let Some(handle) = accept {
            // Any connection returns it from `accept` to the flag; a listener
            // on an unspecified address is reached through loopback.
            let mut wake_addr = self.local_addr;
            if wake_addr.ip().is_unspecified() {
                wake_addr.set_ip(match wake_addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            // A full backlog refuses the wake-up, but then nobody is blocked.
            while !handle.is_finished()
                && TcpStream::connect_timeout(&wake_addr, ERROR_BACKOFF).is_err()
            {
                std::thread::sleep(ERROR_BACKOFF);
            }
            let _ = handle.join();
        }
        let mut conns = std::mem::take(&mut *self.conns.lock());
        // Ends each connection thread's blocking read with EOF.
        for slot in &conns {
            let _ = slot.stream.shutdown(Shutdown::Both);
        }
        for slot in &mut conns {
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
        }
        // Keep the listener alive until here so the port stays ours for
        // the whole server lifetime.
        let _ = &self.listener;
    }
}

impl Drop for TcpRpcServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

impl std::fmt::Debug for TcpRpcServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpRpcServer")
            .field("local_addr", &self.local_addr)
            .field("served", &self.served())
            .finish()
    }
}

fn accept_loop(
    listener: TcpListener,
    handler: RawHandler,
    shutdown: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<ConnSlot>>>,
    served: Arc<AtomicU64>,
) {
    loop {
        let accepted = listener.accept();
        // Once the flag is up, what arrives is the wake-up or a late client.
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let conn_stream = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let h = handler.clone();
                let n = served.clone();
                let handle = std::thread::Builder::new()
                    .name("tcp-rpc-conn".to_owned())
                    .spawn(move || conn_loop(stream, h, n));
                match handle {
                    Ok(handle) => {
                        let mut guard = conns.lock();
                        // Reap finished connections opportunistically so
                        // a long-lived server doesn't accumulate slots.
                        guard.retain_mut(|slot| match &slot.handle {
                            Some(hd) if hd.is_finished() => {
                                if let Some(hd) = slot.handle.take() {
                                    let _ = hd.join();
                                }
                                false
                            }
                            _ => true,
                        });
                        guard.push(ConnSlot {
                            stream: conn_stream,
                            handle: Some(handle),
                        });
                    }
                    Err(_) => drop(conn_stream),
                }
            }
            Err(_) => std::thread::sleep(ERROR_BACKOFF),
        }
    }
}

fn conn_loop(mut stream: TcpStream, handler: RawHandler, served: Arc<AtomicU64>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut decoder = FrameDecoder::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut resp_buf = String::new();
    let mut wire_buf: Vec<u8> = Vec::new();
    loop {
        // Blocks while the connection idles. EOF is the peer's close or the
        // server's `shutdown(Both)`; an error is a reset.
        let n = match stream.read(&mut read_buf) {
            Ok(n) if n > 0 => n,
            _ => return,
        };
        decoder.extend(&read_buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(Some(frame)) => {
                    served.fetch_add(1, Ordering::Relaxed);
                    resp_buf.clear();
                    handler(&frame, &mut resp_buf);
                    wire_buf.clear();
                    if encode_frame(resp_buf.as_bytes(), &mut wire_buf).is_err() {
                        // Response too large (or empty) to frame: the
                        // connection cannot carry it; drop the peer
                        // rather than desynchronise the stream.
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                    if stream.write_all(&wire_buf).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Framing violation: the stream is garbage from here
                    // on. Close; the client sees a reset/EOF.
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
    }
}

/// Backoff schedule for reconnecting a [`TcpRpcClient`].
///
/// Mirrors `hammer-core`'s `RetryPolicy` shape (that crate sits above
/// this one, so it converts its policy into this struct rather than the
/// transport depending upwards): exponential backoff from
/// `base_backoff`, multiplied by `multiplier` per attempt, capped at
/// `max_backoff`, for at most `max_attempts` connection attempts per
/// call.
#[derive(Clone, Copy, Debug)]
pub struct ReconnectPolicy {
    /// Maximum connection attempts per call (the first try counts).
    pub max_attempts: u32,
    /// Backoff before the second attempt.
    pub base_backoff: Duration,
    /// Multiplier applied per further attempt.
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(20),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(500),
        }
    }
}

impl ReconnectPolicy {
    /// No reconnection: one attempt, fail fast.
    pub fn none() -> Self {
        ReconnectPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            multiplier: 1.0,
            max_backoff: Duration::ZERO,
        }
    }

    /// The backoff to sleep after failed attempt number `attempt`
    /// (0-based).
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = self.multiplier.max(1.0).powi(attempt.min(24) as i32);
        self.base_backoff.mul_f64(factor).min(self.max_backoff)
    }
}

/// Call deadlines for the client side.
#[derive(Clone, Copy, Debug)]
pub struct TcpClientConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Deadline for reading one response after a request was written.
    pub read_timeout: Duration,
    /// Deadline for writing one request frame.
    pub write_timeout: Duration,
}

impl Default for TcpClientConfig {
    fn default() -> Self {
        TcpClientConfig {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: WRITE_TIMEOUT,
        }
    }
}

struct ClientConn {
    stream: TcpStream,
    decoder: FrameDecoder,
}

struct ClientInner {
    conn: Option<ClientConn>,
    req_buf: String,
    wire_buf: Vec<u8>,
    read_buf: Vec<u8>,
}

/// A reconnecting JSON-RPC client over TCP.
///
/// Cheap to clone; clones share one connection and serialise their calls
/// over it (one request in flight at a time — the submission worker,
/// monitor, and commit poller each typically hold their own client).
/// When the connection drops mid-call the client reconnects with
/// exponential backoff per [`ReconnectPolicy`] and retries the call, so
/// a node being SIGKILLed and restarted by a supervisor surfaces as a
/// few transient errors rather than a wedged driver.
#[derive(Clone)]
pub struct TcpRpcClient {
    addr: SocketAddr,
    config: TcpClientConfig,
    policy: ReconnectPolicy,
    inner: Arc<Mutex<ClientInner>>,
    next_id: Arc<AtomicU64>,
}

impl std::fmt::Debug for TcpRpcClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpRpcClient")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpRpcClient {
    /// A client for `addr`. Does not connect until the first call.
    pub fn new(addr: SocketAddr, config: TcpClientConfig, policy: ReconnectPolicy) -> Self {
        TcpRpcClient {
            addr,
            config,
            policy,
            inner: Arc::new(Mutex::new(ClientInner {
                conn: None,
                req_buf: String::new(),
                wire_buf: Vec::new(),
                read_buf: vec![0u8; 64 * 1024],
            })),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    /// Calls `method` with `params`, reconnecting with backoff on
    /// connection-level failures. Returns the RPC-level outcome
    /// (`Ok`/`Err(RpcError)`) or a [`TcpError`] when the transport gave
    /// out.
    pub fn call(&self, method: &str, params: Value) -> Result<Result<Value, RpcError>, TcpError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let req = RpcRequest {
            id,
            method: method.to_owned(),
            params,
        };
        let mut inner = self.inner.lock();
        let mut last_err: Option<TcpError> = None;
        for attempt in 0..self.policy.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff_for(attempt - 1));
            }
            match self.try_call_on_conn(&mut inner, &req) {
                Ok(outcome) => return Ok(outcome),
                Err(err) => {
                    // Any failure invalidates the connection.
                    inner.conn = None;
                    if err.is_protocol() {
                        // The peer is speaking garbage; retrying on a
                        // fresh connection won't make it trustworthy.
                        return Err(err);
                    }
                    last_err = Some(err);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| TcpError::Io(io::Error::other("no attempts made"))))
    }

    fn try_call_on_conn(
        &self,
        inner: &mut ClientInner,
        req: &RpcRequest,
    ) -> Result<Result<Value, RpcError>, TcpError> {
        if inner.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(self.config.read_timeout))?;
            stream.set_write_timeout(Some(self.config.write_timeout))?;
            inner.conn = Some(ClientConn {
                stream,
                decoder: FrameDecoder::new(),
            });
        }
        // Split borrows: buffers and connection live in the same struct.
        let ClientInner {
            conn,
            req_buf,
            wire_buf,
            read_buf,
        } = inner;
        let conn = conn.as_mut().expect("connection established above");
        req_buf.clear();
        req.to_json_into(req_buf);
        wire_buf.clear();
        encode_frame(req_buf.as_bytes(), wire_buf)?;
        conn.stream.write_all(wire_buf)?;
        // One request in flight per connection, so the next frame is our
        // response.
        loop {
            if let Some(frame) = conn.decoder.next_frame()? {
                let resp = RpcResponse::parse_bytes(&frame)
                    .map_err(|e| TcpError::Protocol(format!("bad response: {}", e.message)))?;
                if resp.id != req.id {
                    return Err(TcpError::Protocol(format!(
                        "response id {} does not match request id {}",
                        resp.id, req.id
                    )));
                }
                return Ok(resp.outcome);
            }
            let n = conn.stream.read(read_buf)?;
            if n == 0 {
                return Err(TcpError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-call",
                )));
            }
            conn.decoder.extend(&read_buf[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_rpc::transport::RpcServer;

    fn echo_server() -> (TcpRpcServer, SocketAddr) {
        let rpc = RpcServer::new("echo");
        rpc.register("echo", Ok);
        rpc.register("add", |params| {
            let a = params.get("a").and_then(Value::as_i64).unwrap_or(0);
            let b = params.get("b").and_then(Value::as_i64).unwrap_or(0);
            Ok(Value::from(a + b))
        });
        let handler: RawHandler = Arc::new(move |req, out| rpc.handle_bytes_into(req, out));
        let server = TcpRpcServer::bind("127.0.0.1:0", handler).unwrap();
        let addr = server.local_addr();
        (server, addr)
    }

    #[test]
    fn loopback_roundtrip() {
        let (server, addr) = echo_server();
        let client = TcpRpcClient::new(addr, TcpClientConfig::default(), ReconnectPolicy::none());
        let result = client
            .call(
                "add",
                Value::object([("a", Value::from(2)), ("b", Value::from(40))]),
            )
            .unwrap()
            .unwrap();
        assert_eq!(result, Value::Int(42));
        assert_eq!(server.served(), 1);
    }

    #[test]
    fn rpc_errors_pass_through() {
        let (_server, addr) = echo_server();
        let client = TcpRpcClient::new(addr, TcpClientConfig::default(), ReconnectPolicy::none());
        let outcome = client.call("missing", Value::Null).unwrap();
        assert!(outcome.is_err());
    }

    #[test]
    fn sequential_calls_reuse_one_connection() {
        let (server, addr) = echo_server();
        let client = TcpRpcClient::new(addr, TcpClientConfig::default(), ReconnectPolicy::none());
        for i in 0..50i64 {
            let got = client.call("echo", Value::from(i)).unwrap().unwrap();
            assert_eq!(got, Value::Int(i));
        }
        assert_eq!(server.served(), 50);
    }

    #[test]
    fn concurrent_clones_serialise_safely() {
        let (server, addr) = echo_server();
        let client = TcpRpcClient::new(addr, TcpClientConfig::default(), ReconnectPolicy::none());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = client.clone();
                std::thread::spawn(move || {
                    for i in 0..25i64 {
                        let v = c.call("echo", Value::from(t * 100 + i)).unwrap().unwrap();
                        assert_eq!(v, Value::Int(t * 100 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.served(), 100);
    }

    #[test]
    fn refused_connection_is_transient_io() {
        // Bind and immediately drop to get a port with no listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = TcpRpcClient::new(
            addr,
            TcpClientConfig {
                connect_timeout: Duration::from_millis(200),
                ..TcpClientConfig::default()
            },
            ReconnectPolicy {
                max_attempts: 2,
                base_backoff: Duration::from_millis(1),
                multiplier: 1.0,
                max_backoff: Duration::from_millis(1),
            },
        );
        let err = client.call("echo", Value::Null).unwrap_err();
        assert!(matches!(err, TcpError::Io(_)));
        assert!(!err.is_protocol());
    }

    #[test]
    fn client_survives_server_restart() {
        let (server, addr) = echo_server();
        let client = TcpRpcClient::new(
            addr,
            TcpClientConfig::default(),
            ReconnectPolicy {
                max_attempts: 40,
                base_backoff: Duration::from_millis(10),
                multiplier: 1.5,
                max_backoff: Duration::from_millis(100),
            },
        );
        assert!(client.call("echo", Value::from(1)).unwrap().is_ok());
        // Kill the server; the established connection dies with it.
        server.shutdown_and_join();
        drop(server);
        // Restart on the same port (loopback; the port was just ours).
        let rpc = RpcServer::new("echo2");
        rpc.register("echo", Ok);
        let handler: RawHandler = Arc::new(move |req, out| rpc.handle_bytes_into(req, out));
        let _server2 = TcpRpcServer::bind(&addr.to_string(), handler).unwrap();
        // The reconnecting client rides out the restart.
        let got = client.call("echo", Value::from(2)).unwrap().unwrap();
        assert_eq!(got, Value::Int(2));
    }

    #[test]
    fn garbage_from_client_closes_connection() {
        let (server, addr) = echo_server();
        let mut raw = TcpStream::connect(addr).unwrap();
        // An oversized length header: the server must drop us, not OOM.
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        raw.write_all(&[0u8; 16]).unwrap();
        let mut buf = [0u8; 16];
        // Read returns 0 (EOF) once the server closes; a reset surfaces
        // as an error. Either way the connection is gone.
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match raw.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("server answered {n} bytes to a garbage frame"),
        }
        drop(server);
    }

    #[test]
    fn shutdown_joins_all_threads() {
        let (server, addr) = echo_server();
        let client = TcpRpcClient::new(addr, TcpClientConfig::default(), ReconnectPolicy::none());
        client.call("echo", Value::Null).unwrap().unwrap();
        server.shutdown_and_join();
        // Idempotent, including via Drop.
        server.shutdown_and_join();
        drop(server);
        // The port is released: a fresh bind succeeds.
        let l = TcpListener::bind(addr);
        assert!(l.is_ok(), "port not released after shutdown");
    }

    #[test]
    fn shutdown_severs_connections_accepted_while_it_runs() {
        for round in 0..10 {
            let (server, addr) = echo_server();
            let done = AtomicBool::new(false);
            let server = std::thread::scope(|scope| {
                // Connects without pause and keeps every stream open, so a
                // connection thread the shutdown missed would stay in `read`.
                let client = scope.spawn(|| {
                    let mut open = Vec::new();
                    while !done.load(Ordering::SeqCst) {
                        open.extend(TcpStream::connect_timeout(&addr, Duration::from_millis(50)));
                    }
                    open
                });
                while server.conns.lock().is_empty() {
                    std::thread::yield_now();
                }
                // It joins what it holds, so coming back is the proof.
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    server.shutdown_and_join();
                    let _ = tx.send(server);
                });
                let stopped = rx.recv_timeout(Duration::from_secs(1));
                done.store(true, Ordering::SeqCst);
                let open = client.join().unwrap().len();
                stopped.unwrap_or_else(|_| {
                    panic!("round {round}: a connection thread outlived shutdown, {open} open")
                })
            });
            assert!(server.conns.lock().is_empty());
            drop(server);
            assert!(TcpListener::bind(addr).is_ok(), "round {round}: port held");
        }
    }

    #[test]
    fn a_listener_on_an_unspecified_address_is_woken_through_loopback() {
        for addr in ["0.0.0.0:0", "[::]:0"] {
            let handler: RawHandler = Arc::new(|_, _| {});
            let Ok(server) = TcpRpcServer::bind(addr, handler) else {
                continue; // no such family on this host
            };
            // Joins the acceptor: returning is the proof that it was woken.
            server.shutdown_and_join();
        }
    }

    #[test]
    fn backoff_schedule_is_capped() {
        let p = ReconnectPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(10),
            multiplier: 2.0,
            max_backoff: Duration::from_millis(50),
        };
        assert_eq!(p.backoff_for(0), Duration::from_millis(10));
        assert_eq!(p.backoff_for(1), Duration::from_millis(20));
        assert_eq!(p.backoff_for(2), Duration::from_millis(40));
        assert_eq!(p.backoff_for(3), Duration::from_millis(50));
        assert_eq!(p.backoff_for(30), Duration::from_millis(50));
    }
}

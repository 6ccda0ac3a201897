//! Criterion microbench for the distributed mode's transport overhead:
//! the same JSON-RPC call dispatched in-process (thread-local wire
//! buffers, no sockets) vs. over loopback TCP with length-prefixed
//! framing — the exact path a multi-process deployment's driver pays per
//! submission.
//!
//! Both sides execute the identical dispatch and codec code
//! (`RpcServer::handle_bytes_into`); the delta is pure transport: frame
//! header, syscalls, and the kernel loopback round trip.
//!
//! `scripts/bench_snapshot.sh` runs this group with `CRITERION_JSON` set
//! and snapshots the overhead ratio to `BENCH_rpc_loopback.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hammer_chain::codec;
use hammer_chain::rpc_adapter::serve_tcp;
use hammer_chain::smallbank::Op;
use hammer_chain::types::Transaction;
use hammer_crypto::sig::SigParams;
use hammer_crypto::Keypair;
use hammer_net::{ReconnectPolicy, TcpClientConfig, TcpRpcClient, TcpServerConfig};
use hammer_rpc::json::Value;
use hammer_rpc::transport::RpcServer;

/// A dispatch table with one echo method, fed a submission-shaped
/// payload: an encoded signed SmallBank transaction, the dominant frame
/// the driver sends in a real run.
fn echo_server() -> RpcServer {
    let server = RpcServer::new("bench");
    server.register("echo", Ok);
    server
}

fn submission_payload() -> Value {
    let tx = Transaction {
        client_id: 3,
        server_id: 0,
        nonce: 42,
        op: Op::KvPut { key: 7, value: 49 },
        chain_name: "bench".to_owned(),
        contract_name: "smallbank".to_owned(),
    }
    .sign(&Keypair::from_seed(1), &SigParams::fast());
    codec::encode_signed_tx(&tx)
}

/// In-process dispatch vs. loopback TCP, same method, same payload.
fn bench_rpc_loopback(c: &mut Criterion) {
    bench::record_host("rpc_loopback");
    let mut group = c.benchmark_group("rpc_loopback");
    group.throughput(Throughput::Elements(1));
    let payload = submission_payload();

    {
        let client = echo_server().client();
        group.bench_function("inproc_call", |b| {
            b.iter(|| client.call("echo", payload.clone()).expect("echo succeeds"));
        });
    }

    {
        let server = serve_tcp(echo_server(), "127.0.0.1:0", TcpServerConfig::default())
            .expect("loopback bind");
        let client = TcpRpcClient::new(
            server.local_addr(),
            TcpClientConfig::default(),
            ReconnectPolicy::none(),
        );
        group.bench_function("tcp_loopback_call", |b| {
            b.iter(|| {
                client
                    .call("echo", payload.clone())
                    .expect("transport up")
                    .expect("echo succeeds")
            });
        });
        server.shutdown_and_join();
    }
    group.finish();
}

criterion_group!(benches, bench_rpc_loopback);
criterion_main!(benches);

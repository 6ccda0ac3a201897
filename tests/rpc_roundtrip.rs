//! The generic JSON-RPC interface end to end: a chain served over the
//! wire format must behave identically to the in-process handle.

use std::sync::Arc;
use std::time::Duration;

use hammer::chain::client::{Architecture, BlockchainClient};
use hammer::chain::kernel::SimChain;
use hammer::chain::remote::RemoteChain;
use hammer::chain::rpc_adapter::{serve, serve_sim, SUBMIT_TRANSACTION};
use hammer::chain::smallbank::Op;
use hammer::chain::types::{Address, Transaction};
use hammer::crypto::sig::SigParams;
use hammer::crypto::Keypair;
use hammer::net::{LinkConfig, SimClock, SimNetwork};
use hammer::neuchain::NeuchainConfig;

fn wait_until(pred: impl Fn() -> bool, wall_ms: u64) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_millis(wall_ms);
    while std::time::Instant::now() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn evaluation_through_json_rpc_matches_direct_access() {
    let clock = SimClock::with_speedup(500.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
    let chain = hammer::neuchain::start(NeuchainConfig::default(), clock, net);
    chain.seed_account(Address::from_name("acct"), 1_000_000, 0);

    let server = serve_sim(chain.clone() as Arc<dyn SimChain>);
    let rpc = RemoteChain::connect(server.client()).expect("connect");

    assert_eq!(rpc.chain_name(), "neuchain-sim");
    assert_eq!(rpc.architecture(), Architecture::NonSharded);

    // Submit through the wire format.
    let keypair = Keypair::from_seed(9);
    let params = SigParams::fast();
    let mut ids = Vec::new();
    for nonce in 0..50u64 {
        let tx = Transaction {
            client_id: 1,
            server_id: 0,
            nonce,
            op: Op::DepositChecking {
                account: Address::from_name("acct"),
                amount: 1,
            },
            chain_name: "neuchain-sim".to_owned(),
            contract_name: "smallbank".to_owned(),
        }
        .sign(&keypair, &params);
        ids.push(rpc.submit(tx).expect("submit over rpc"));
    }

    assert!(
        wait_until(|| chain.stats().committed >= 50, 8_000),
        "transactions did not commit"
    );

    // Both views agree on heights and block contents.
    let rpc_height = rpc.latest_height(0).unwrap();
    let direct_height = chain.latest_height(0).unwrap();
    assert_eq!(rpc_height, direct_height);
    for h in 1..=rpc_height {
        let via_rpc = rpc.block_at(0, h).unwrap().expect("block over rpc");
        let direct = chain.block_at(0, h).unwrap().expect("block direct");
        assert_eq!(via_rpc, direct, "block {h} differs across transports");
        assert!(via_rpc.verify_merkle_root());
    }

    // Every submitted id is on the ledger exactly once.
    let mut found = 0;
    for h in 1..=rpc_height {
        let block = rpc.block_at(0, h).unwrap().unwrap();
        found += block.tx_ids.iter().filter(|id| ids.contains(id)).count();
    }
    assert_eq!(found, 50);

    assert_eq!(
        chain.account(Address::from_name("acct")).unwrap().checking,
        1_000_050
    );
    rpc.shutdown();
}

#[test]
fn rpc_rejects_malformed_submissions() {
    let clock = SimClock::with_speedup(500.0);
    let net = SimNetwork::new(clock.clone(), LinkConfig::cloud_100mbps());
    let chain = hammer::neuchain::start(NeuchainConfig::default(), clock, net);
    let server = serve(chain.clone() as Arc<dyn BlockchainClient>);
    let raw = server.client();

    // Garbage params must produce InvalidParams, not a crash.
    let err = raw
        .call(
            SUBMIT_TRANSACTION.name,
            hammer::rpc::json::Value::object([("nope", hammer::rpc::json::Value::from(1))]),
        )
        .unwrap_err();
    assert_eq!(err.code.code(), -32602);
    chain.shutdown();
}

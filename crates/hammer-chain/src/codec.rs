//! JSON encodings of the wire types, used by the generic RPC facade.
//!
//! Encodings are hand-rolled (the JSON layer is part of the system under
//! study). Every `encode_*` has a matching `decode_*`; round-trip equality
//! is property-tested.

use std::time::Duration;

use hammer_crypto::sig::Signature;
use hammer_crypto::{from_hex, to_hex, PublicKey};
use hammer_rpc::json::{boolean, list, string, uint, Fields, ReadError, Value};

use crate::smallbank::Op;
use crate::types::{Address, Block, SignedTransaction, Transaction, TxId};

/// 64-bit ids (addresses, keys, public keys) travel as decimal strings, so
/// a peer whose JSON numbers are doubles keeps them exact.
pub(crate) fn encode_u64s(v: u64) -> Value {
    Value::from(v.to_string())
}

/// Reads [`encode_u64s`]'s form.
pub(crate) fn decode_u64s(v: &Value) -> Result<u64, ReadError> {
    let n = v.as_str().and_then(|s| s.parse().ok());
    n.ok_or_else(|| ReadError::want("a u64 as a decimal string", v))
}

/// Fixed-size bytes (ids, hashes, signatures) from their hex text.
fn hex<const N: usize>(v: &Value) -> Result<[u8; N], ReadError> {
    let bytes = v
        .as_str()
        .and_then(from_hex)
        .and_then(|b| b.try_into().ok());
    bytes.ok_or_else(|| ReadError::want(&format!("{N} bytes as hex"), v))
}

/// Encodes an operation.
pub(crate) fn encode_op(op: &Op) -> Value {
    match *op {
        Op::CreateAccount {
            account,
            checking,
            savings,
        } => Value::object([
            ("type", Value::from("create_account")),
            ("account", encode_u64s(account.0)),
            ("checking", Value::from(checking)),
            ("savings", Value::from(savings)),
        ]),
        Op::DepositChecking { account, amount } => Value::object([
            ("type", Value::from("deposit")),
            ("account", encode_u64s(account.0)),
            ("amount", Value::from(amount)),
        ]),
        Op::WriteCheck { account, amount } => Value::object([
            ("type", Value::from("withdraw")),
            ("account", encode_u64s(account.0)),
            ("amount", Value::from(amount)),
        ]),
        Op::SendPayment { from, to, amount } => Value::object([
            ("type", Value::from("transfer")),
            ("from", encode_u64s(from.0)),
            ("to", encode_u64s(to.0)),
            ("amount", Value::from(amount)),
        ]),
        Op::Amalgamate { from, to } => Value::object([
            ("type", Value::from("amalgamate")),
            ("from", encode_u64s(from.0)),
            ("to", encode_u64s(to.0)),
        ]),
        Op::TransactSavings { account, amount } => Value::object([
            ("type", Value::from("transact_savings")),
            ("account", encode_u64s(account.0)),
            ("amount", Value::from(amount)),
        ]),
        Op::Balance { account } => Value::object([
            ("type", Value::from("balance")),
            ("account", encode_u64s(account.0)),
        ]),
        Op::KvPut { key, value } => Value::object([
            ("type", Value::from("kv_put")),
            ("key", encode_u64s(key)),
            ("value", Value::from(value)),
        ]),
        Op::KvGet { key } => {
            Value::object([("type", Value::from("kv_get")), ("key", encode_u64s(key))])
        }
    }
}

/// Decodes an operation.
pub(crate) fn decode_op(v: &Value) -> Result<Op, ReadError> {
    let f = Fields::of(v);
    let address = |key| f.req(key, decode_u64s).map(Address);
    let op = match f.req("type", string)? {
        "create_account" => Op::CreateAccount {
            account: address("account")?,
            checking: f.req("checking", uint)?,
            savings: f.req("savings", uint)?,
        },
        "deposit" => Op::DepositChecking {
            account: address("account")?,
            amount: f.req("amount", uint)?,
        },
        "withdraw" => Op::WriteCheck {
            account: address("account")?,
            amount: f.req("amount", uint)?,
        },
        "transfer" => Op::SendPayment {
            from: address("from")?,
            to: address("to")?,
            amount: f.req("amount", uint)?,
        },
        "amalgamate" => Op::Amalgamate {
            from: address("from")?,
            to: address("to")?,
        },
        "transact_savings" => Op::TransactSavings {
            account: address("account")?,
            amount: f.req("amount", uint)?,
        },
        "balance" => Op::Balance {
            account: address("account")?,
        },
        "kv_put" => Op::KvPut {
            key: f.req("key", decode_u64s)?,
            value: f.req("value", uint)?,
        },
        "kv_get" => Op::KvGet {
            key: f.req("key", decode_u64s)?,
        },
        other => return Err(ReadError::new(format!("unknown op type {other:?}"))),
    };
    Ok(op)
}

/// Encodes a signed transaction.
pub fn encode_signed_tx(tx: &SignedTransaction) -> Value {
    Value::object([
        ("client_id", Value::from(tx.tx.client_id as u64)),
        ("server_id", Value::from(tx.tx.server_id as u64)),
        ("nonce", Value::from(tx.tx.nonce)),
        ("op", encode_op(&tx.tx.op)),
        ("chain_name", Value::from(tx.tx.chain_name.clone())),
        ("contract_name", Value::from(tx.tx.contract_name.clone())),
        ("id", Value::from(to_hex(tx.id.as_bytes()))),
        ("sig", Value::from(to_hex(&tx.signature.to_bytes()))),
        ("pk", encode_u64s(tx.public_key.as_u64())),
    ])
}

/// Decodes a signed transaction, re-checking that the embedded id matches
/// the body.
pub(crate) fn decode_signed_tx(v: &Value) -> Result<SignedTransaction, ReadError> {
    let f = Fields::of(v);
    let owned = |s| string(s).map(str::to_owned);
    let tx = Transaction {
        client_id: f.req("client_id", uint)?,
        server_id: f.req("server_id", uint)?,
        nonce: f.req("nonce", uint)?,
        op: f.req("op", decode_op)?,
        chain_name: f.req("chain_name", owned)?,
        contract_name: f.req("contract_name", owned)?,
    };
    let id = f.req("id", hex).map(TxId)?;
    if tx.id() != id {
        return Err(ReadError::new("transaction id does not match body"));
    }
    let signature = f.req("sig", |sig| {
        Signature::from_bytes(&hex(sig)?)
            .ok_or_else(|| ReadError::new("signature components out of range"))
    })?;
    let public_key = f.req("pk", |pk| {
        PublicKey::from_u64(decode_u64s(pk)?)
            .ok_or_else(|| ReadError::new("public key out of range"))
    })?;
    Ok(SignedTransaction {
        tx,
        id,
        signature,
        public_key,
    })
}

/// Encodes a signed transaction straight to JSON text, appending to a
/// caller-supplied reusable buffer (the submission hot path clears and
/// reuses one buffer per thread).
pub fn encode_signed_tx_into(tx: &SignedTransaction, out: &mut String) {
    encode_signed_tx(tx).to_json_into(out);
}

/// Decodes a signed transaction from raw JSON bytes (e.g. a reused
/// transport receive buffer).
pub fn decode_signed_tx_bytes(bytes: &[u8]) -> Result<SignedTransaction, ReadError> {
    decode_signed_tx(&Value::parse_bytes(bytes)?)
}

/// Encodes a block (ids + validity + header).
pub(crate) fn encode_block(block: &Block) -> Value {
    Value::object([
        ("height", Value::from(block.header.height)),
        ("prev_hash", Value::from(to_hex(&block.header.prev_hash))),
        (
            "merkle_root",
            Value::from(to_hex(&block.header.merkle_root)),
        ),
        (
            "timestamp_ns",
            Value::from(block.header.timestamp.as_nanos() as u64),
        ),
        ("proposer", Value::from(block.header.proposer.clone())),
        ("shard", Value::from(block.header.shard as u64)),
        (
            "tx_ids",
            Value::Array(
                block
                    .tx_ids
                    .iter()
                    .map(|t| Value::from(to_hex(t.as_bytes())))
                    .collect(),
            ),
        ),
        (
            "valid",
            Value::Array(block.valid.iter().map(|b| Value::Bool(*b)).collect()),
        ),
    ])
}

/// Encodes a block straight to JSON text, appending to a reusable buffer.
pub fn encode_block_into(block: &Block, out: &mut String) {
    encode_block(block).to_json_into(out);
}

/// Decodes a block from raw JSON bytes and verifies its Merkle root.
pub fn decode_block_bytes(bytes: &[u8]) -> Result<Block, ReadError> {
    decode_block(&Value::parse_bytes(bytes)?)
}

/// Decodes a transaction id from its 64-hex-digit wire form.
pub(crate) fn decode_tx_id(v: &Value) -> Result<TxId, ReadError> {
    hex(v).map(TxId)
}

/// Decodes a block and verifies its Merkle root.
pub(crate) fn decode_block(v: &Value) -> Result<Block, ReadError> {
    let f = Fields::of(v);
    let tx_ids = f.req("tx_ids", list(decode_tx_id))?;
    let valid = f.req("valid", list(boolean))?;
    if valid.len() != tx_ids.len() {
        return Err(ReadError::new("'valid' and 'tx_ids' length mismatch"));
    }
    let block = Block {
        header: crate::types::BlockHeader {
            height: f.req("height", uint)?,
            prev_hash: f.req("prev_hash", hex)?,
            merkle_root: f.req("merkle_root", hex)?,
            timestamp: Duration::from_nanos(f.req("timestamp_ns", uint)?),
            proposer: f.req("proposer", string)?.to_owned(),
            shard: f.req("shard", uint)?,
        },
        tx_ids,
        valid,
    };
    if !block.verify_merkle_root() {
        return Err(ReadError::new("merkle root mismatch"));
    }
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hammer_crypto::sig::SigParams;
    use hammer_crypto::Keypair;
    use proptest::prelude::*;

    fn sample_ops() -> Vec<Op> {
        let a = Address::from_name("a");
        let b = Address::from_name("b");
        vec![
            Op::CreateAccount {
                account: a,
                checking: 1,
                savings: 2,
            },
            Op::DepositChecking {
                account: a,
                amount: 3,
            },
            Op::WriteCheck {
                account: a,
                amount: 4,
            },
            Op::SendPayment {
                from: a,
                to: b,
                amount: 5,
            },
            Op::Amalgamate { from: a, to: b },
            Op::TransactSavings {
                account: a,
                amount: 6,
            },
            Op::Balance { account: a },
            Op::KvPut { key: 7, value: 8 },
            Op::KvGet { key: 9 },
        ]
    }

    #[test]
    fn op_roundtrip_all_variants() {
        for op in sample_ops() {
            let encoded = encode_op(&op);
            // Also force a text round trip.
            let reparsed = Value::parse(&encoded.to_json()).unwrap();
            assert_eq!(decode_op(&reparsed).unwrap(), op, "{op:?}");
        }
    }

    #[test]
    fn op_decode_rejects_unknown_type() {
        let v = Value::object([("type", Value::from("mint_nft"))]);
        assert!(decode_op(&v).is_err());
    }

    #[test]
    fn signed_tx_roundtrip() {
        let tx = Transaction {
            client_id: 3,
            server_id: 1,
            nonce: 42,
            op: Op::SendPayment {
                from: Address::from_name("x"),
                to: Address::from_name("y"),
                amount: 10,
            },
            chain_name: "fabric-sim".to_owned(),
            contract_name: "smallbank".to_owned(),
        };
        let signed = tx.sign(&Keypair::from_seed(9), &SigParams::fast());
        let encoded = encode_signed_tx(&signed);
        let reparsed = Value::parse(&encoded.to_json()).unwrap();
        let decoded = decode_signed_tx(&reparsed).unwrap();
        assert_eq!(decoded, signed);
        assert!(decoded.verify(&SigParams::fast()));
    }

    #[test]
    fn signed_tx_text_roundtrip_with_reused_buffer() {
        let params = SigParams::fast();
        let kp = Keypair::from_seed(2);
        let mut buf = String::new();
        for nonce in 0..4u64 {
            let tx = Transaction {
                client_id: 1,
                server_id: 0,
                nonce,
                op: Op::KvPut {
                    key: nonce,
                    value: nonce,
                },
                chain_name: "c".to_owned(),
                contract_name: "k".to_owned(),
            };
            let signed = tx.sign(&kp, &params);
            buf.clear();
            encode_signed_tx_into(&signed, &mut buf);
            assert_eq!(decode_signed_tx_bytes(buf.as_bytes()).unwrap(), signed);
        }
    }

    #[test]
    fn block_text_roundtrip_with_reused_buffer() {
        let block = Block::new(3, [2u8; 32], Duration::from_secs(1), "n", 1, vec![], vec![]);
        let mut buf = String::from("stale contents");
        buf.clear();
        encode_block_into(&block, &mut buf);
        assert_eq!(decode_block_bytes(buf.as_bytes()).unwrap(), block);
        assert!(decode_block_bytes(b"{").is_err());
    }

    #[test]
    fn signed_tx_decode_rejects_id_mismatch() {
        let tx = Transaction {
            client_id: 3,
            server_id: 1,
            nonce: 42,
            op: Op::KvGet { key: 1 },
            chain_name: "c".to_owned(),
            contract_name: "k".to_owned(),
        };
        let signed = tx.sign(&Keypair::from_seed(9), &SigParams::fast());
        let mut encoded = encode_signed_tx(&signed);
        // Tamper with the nonce but keep the old id.
        if let Value::Object(pairs) = &mut encoded {
            for (k, v) in pairs.iter_mut() {
                if k == "nonce" {
                    *v = Value::from(43u64);
                }
            }
        }
        assert!(decode_signed_tx(&encoded).is_err());
    }

    /// A 32-bit id read as a u64 and cast back hashed the truncated body,
    /// so the id check passed: `client_id + 2^32` decoded as the original.
    #[test]
    fn signed_tx_decode_refuses_ids_wider_than_u32() {
        let tx = Transaction {
            client_id: 3,
            server_id: 1,
            nonce: 42,
            op: Op::KvGet { key: 1 },
            chain_name: "c".to_owned(),
            contract_name: "k".to_owned(),
        };
        let signed = tx.sign(&Keypair::from_seed(9), &SigParams::fast());
        for (key, id) in [("client_id", 3u64), ("server_id", 1)] {
            let wide = id + (1 << 32);
            let mut encoded = encode_signed_tx(&signed);
            if let Value::Object(pairs) = &mut encoded {
                for (k, v) in pairs.iter_mut() {
                    if k == key {
                        *v = Value::from(wide);
                    }
                }
            }
            let err = decode_signed_tx(&encoded).unwrap_err();
            let want = format!("{key}: want an integer that fits u32, got {wide}");
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn block_roundtrip() {
        let ids: Vec<TxId> = (0..4)
            .map(|i| {
                Transaction {
                    client_id: 0,
                    server_id: 0,
                    nonce: i,
                    op: Op::KvGet { key: i },
                    chain_name: "c".to_owned(),
                    contract_name: "k".to_owned(),
                }
                .id()
            })
            .collect();
        let block = Block::new(
            5,
            [1u8; 32],
            Duration::from_millis(777),
            "orderer-0",
            2,
            ids,
            vec![true, false, true, true],
        );
        let encoded = encode_block(&block);
        let reparsed = Value::parse(&encoded.to_json()).unwrap();
        assert_eq!(decode_block(&reparsed).unwrap(), block);
    }

    #[test]
    fn block_decode_rejects_tampered_merkle() {
        let block = Block::new(1, [0u8; 32], Duration::ZERO, "n", 0, vec![], vec![]);
        let mut encoded = encode_block(&block);
        if let Value::Object(pairs) = &mut encoded {
            for (k, v) in pairs.iter_mut() {
                if k == "merkle_root" {
                    *v = Value::from(to_hex(&[7u8; 32]));
                }
            }
        }
        assert!(decode_block(&encoded).is_err());
    }

    proptest! {
        #[test]
        fn prop_signed_tx_roundtrip(nonce in 0u64..1_000_000, seed in 0u64..50, amount in 0u64..10_000) {
            let tx = Transaction {
                client_id: (seed % 7) as u32,
                server_id: (seed % 3) as u32,
                nonce,
                op: Op::SendPayment {
                    from: Address(seed),
                    to: Address(seed + 1),
                    amount,
                },
                chain_name: "sim".to_owned(),
                contract_name: "smallbank".to_owned(),
            };
            let signed = tx.sign(&Keypair::from_seed(seed), &SigParams::fast());
            let text = encode_signed_tx(&signed).to_json();
            let decoded = decode_signed_tx(&Value::parse(&text).unwrap()).unwrap();
            prop_assert_eq!(decoded, signed);
        }
    }
}

//! JSON encodings of the wire types, used by the generic RPC facade.
//!
//! Encodings are hand-rolled (the JSON layer is part of the system under
//! study). Every `encode_*` has a matching `decode_*`; round-trip equality
//! is property-tested.

use std::time::Duration;

use hammer_crypto::sig::Signature;
use hammer_crypto::{from_hex, to_hex, PublicKey};
use hammer_rpc::json::Value;

use crate::smallbank::Op;
use crate::types::{Address, Block, SignedTransaction, Transaction, TxId};

/// Codec failure: a field was missing or had the wrong shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, CodecError> {
    v.get(key)
        .ok_or_else(|| CodecError(format!("missing field '{key}'")))
}

fn u64_field(v: &Value, key: &str) -> Result<u64, CodecError> {
    field(v, key)?
        .as_u64()
        .ok_or_else(|| CodecError(format!("field '{key}' is not a u64")))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, CodecError> {
    field(v, key)?
        .as_str()
        .ok_or_else(|| CodecError(format!("field '{key}' is not a string")))
}

/// 64-bit ids (addresses, keys, public keys) are encoded as decimal strings:
/// JSON numbers lose precision beyond 2^53.
fn encode_u64s(v: u64) -> Value {
    Value::from(v.to_string())
}

fn u64s_field(v: &Value, key: &str) -> Result<u64, CodecError> {
    str_field(v, key)?
        .parse::<u64>()
        .map_err(|_| CodecError(format!("field '{key}' is not a u64 string")))
}

/// Encodes an operation.
pub fn encode_op(op: &Op) -> Value {
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
pub fn decode_op(v: &Value) -> Result<Op, CodecError> {
    let ty = str_field(v, "type")?;
    let op = match ty {
        "create_account" => Op::CreateAccount {
            account: Address(u64s_field(v, "account")?),
            checking: u64_field(v, "checking")?,
            savings: u64_field(v, "savings")?,
        },
        "deposit" => Op::DepositChecking {
            account: Address(u64s_field(v, "account")?),
            amount: u64_field(v, "amount")?,
        },
        "withdraw" => Op::WriteCheck {
            account: Address(u64s_field(v, "account")?),
            amount: u64_field(v, "amount")?,
        },
        "transfer" => Op::SendPayment {
            from: Address(u64s_field(v, "from")?),
            to: Address(u64s_field(v, "to")?),
            amount: u64_field(v, "amount")?,
        },
        "amalgamate" => Op::Amalgamate {
            from: Address(u64s_field(v, "from")?),
            to: Address(u64s_field(v, "to")?),
        },
        "transact_savings" => Op::TransactSavings {
            account: Address(u64s_field(v, "account")?),
            amount: u64_field(v, "amount")?,
        },
        "balance" => Op::Balance {
            account: Address(u64s_field(v, "account")?),
        },
        "kv_put" => Op::KvPut {
            key: u64s_field(v, "key")?,
            value: u64_field(v, "value")?,
        },
        "kv_get" => Op::KvGet {
            key: u64s_field(v, "key")?,
        },
        other => return Err(CodecError(format!("unknown op type '{other}'"))),
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
pub fn decode_signed_tx(v: &Value) -> Result<SignedTransaction, CodecError> {
    let tx = Transaction {
        client_id: u64_field(v, "client_id")? as u32,
        server_id: u64_field(v, "server_id")? as u32,
        nonce: u64_field(v, "nonce")?,
        op: decode_op(field(v, "op")?)?,
        chain_name: str_field(v, "chain_name")?.to_owned(),
        contract_name: str_field(v, "contract_name")?.to_owned(),
    };
    let id_bytes =
        from_hex(str_field(v, "id")?).ok_or_else(|| CodecError("bad hex in 'id'".to_owned()))?;
    let id_arr: [u8; 32] = id_bytes
        .try_into()
        .map_err(|_| CodecError("'id' must be 32 bytes".to_owned()))?;
    let id = TxId(id_arr);
    if tx.id() != id {
        return Err(CodecError("transaction id does not match body".to_owned()));
    }
    let sig_bytes =
        from_hex(str_field(v, "sig")?).ok_or_else(|| CodecError("bad hex in 'sig'".to_owned()))?;
    let sig_arr: [u8; 16] = sig_bytes
        .try_into()
        .map_err(|_| CodecError("'sig' must be 16 bytes".to_owned()))?;
    let signature = Signature::from_bytes(&sig_arr)
        .ok_or_else(|| CodecError("signature components out of range".to_owned()))?;
    let public_key = PublicKey::from_u64(u64s_field(v, "pk")?)
        .ok_or_else(|| CodecError("public key out of range".to_owned()))?;
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
pub fn decode_signed_tx_bytes(bytes: &[u8]) -> Result<SignedTransaction, CodecError> {
    let v = Value::parse_bytes(bytes).map_err(|e| CodecError(format!("bad JSON: {e}")))?;
    decode_signed_tx(&v)
}

/// Encodes a block (ids + validity + header).
pub fn encode_block(block: &Block) -> Value {
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
pub fn decode_block_bytes(bytes: &[u8]) -> Result<Block, CodecError> {
    let v = Value::parse_bytes(bytes).map_err(|e| CodecError(format!("bad JSON: {e}")))?;
    decode_block(&v)
}

/// Decodes a transaction id from its 64-hex-digit wire form.
pub fn decode_tx_id(v: &Value) -> Result<TxId, CodecError> {
    let bytes = v.as_str().and_then(from_hex);
    let bytes = bytes.ok_or_else(|| CodecError("bad tx id hex".to_owned()))?;
    let bytes = <[u8; 32]>::try_from(bytes);
    bytes
        .map(TxId)
        .map_err(|_| CodecError("tx id must be 32 bytes".to_owned()))
}

/// Decodes a block and verifies its Merkle root.
pub fn decode_block(v: &Value) -> Result<Block, CodecError> {
    let parse_hash = |key: &str| -> Result<[u8; 32], CodecError> {
        let bytes = from_hex(str_field(v, key)?)
            .ok_or_else(|| CodecError(format!("bad hex in '{key}'")))?;
        bytes
            .try_into()
            .map_err(|_| CodecError(format!("'{key}' must be 32 bytes")))
    };
    let tx_ids: Result<Vec<TxId>, CodecError> = field(v, "tx_ids")?
        .as_array()
        .ok_or_else(|| CodecError("'tx_ids' is not an array".to_owned()))?
        .iter()
        .map(decode_tx_id)
        .collect();
    let tx_ids = tx_ids?;
    let valid: Result<Vec<bool>, CodecError> = field(v, "valid")?
        .as_array()
        .ok_or_else(|| CodecError("'valid' is not an array".to_owned()))?
        .iter()
        .map(|item| {
            item.as_bool()
                .ok_or_else(|| CodecError("'valid' entries must be bools".to_owned()))
        })
        .collect();
    let valid = valid?;
    if valid.len() != tx_ids.len() {
        return Err(CodecError(
            "'valid' and 'tx_ids' length mismatch".to_owned(),
        ));
    }
    let block = Block {
        header: crate::types::BlockHeader {
            height: u64_field(v, "height")?,
            prev_hash: parse_hash("prev_hash")?,
            merkle_root: parse_hash("merkle_root")?,
            timestamp: Duration::from_nanos(u64_field(v, "timestamp_ns")?),
            proposer: str_field(v, "proposer")?.to_owned(),
            shard: u32::try_from(u64_field(v, "shard")?)
                .map_err(|_| CodecError("field 'shard' is not a u32".to_owned()))?,
        },
        tx_ids,
        valid,
    };
    if !block.verify_merkle_root() {
        return Err(CodecError("merkle root mismatch".to_owned()));
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

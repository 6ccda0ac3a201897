//! HMAC-SHA-256 (RFC 2104) built on the crate's own SHA-256.
//!
//! Used for deterministic nonce derivation in the signature scheme. A
//! key's two pad blocks are compressed once, when its `HmacKey` is made;
//! a MAC then costs only the blocks of the message and of the outer digest.

use crate::sha256::{compress, finish, Digest, H0};

const BLOCK_LEN: usize = 64;

/// Computes `HMAC-SHA256(key, message)`.
///
/// ```
/// use hammer_crypto::{hmac::hmac_sha256, to_hex};
/// // RFC 4231 test case 2.
/// let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
/// assert_eq!(
///     to_hex(&mac),
///     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    HmacKey::new(key).mac(&[message])
}

/// An HMAC key as the hash states after its inner (`0x36`) and outer
/// (`0x5c`) pad blocks: what every MAC under the key starts from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct HmacKey {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacKey {
    /// Compresses `key`'s two pad blocks.
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256(key);
            key_block[..digest.len()].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let block = key_block.map(|byte| byte ^ pad);
            let mut state = H0;
            compress(&mut state, &[block]);
            state
        };
        HmacKey {
            inner: midstate(0x36),
            outer: midstate(0x5c),
        }
    }

    /// The MAC of the concatenation of `parts`: one kernel call for the
    /// message, one for the outer digest.
    pub(crate) fn mac(&self, parts: &[&[u8]]) -> Digest {
        let inner = finish(self.inner, BLOCK_LEN, parts);
        finish(self.outer, BLOCK_LEN, &[&inner])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;

    // RFC 4231 test vectors.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let mac = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case3_long_key_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let mac = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_key_longer_than_block() {
        let key = [0xaau8; 131];
        let mac = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 2104 spelled out over one-shot hashes of whole buffers.
    fn hmac_by_the_book(key: &[u8], message: &[u8]) -> Digest {
        let mut key_block = if key.len() > BLOCK_LEN {
            crate::sha256(key).to_vec()
        } else {
            key.to_vec()
        };
        key_block.resize(BLOCK_LEN, 0);
        let pad = |byte: u8| key_block.iter().map(|k| k ^ byte).collect::<Vec<u8>>();
        let inner = crate::sha256(&[pad(0x36), message.to_vec()].concat());
        crate::sha256(&[pad(0x5c), inner.to_vec()].concat())
    }

    /// The keyed path the nonce takes — a message and a 4-byte counter
    /// as two parts — for every key shape: empty, the signer's 8 bytes,
    /// exactly one block, one byte over (hashed first), RFC 4231's 131;
    /// and messages that pad to one, two, four and more stack blocks.
    #[test]
    fn keyed_mac_matches_hmac_sha256() {
        for key_len in [0usize, 8, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 31 % 256) as u8).collect();
            let hmac_key = HmacKey::new(&key);
            for msg_len in [0usize, 20, 51, 52, 60, 70, 119, 120, 243, 244, 300] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i % 251) as u8).collect();
                let counter = 7u32.to_be_bytes();
                let expect = hmac_by_the_book(&key, &[msg.as_slice(), &counter].concat());
                assert_eq!(
                    hmac_key.mac(&[&msg, &counter]),
                    expect,
                    "key {key_len} msg {msg_len}"
                );
                assert_eq!(hmac_sha256(&key, &msg), hmac_by_the_book(&key, &msg));
            }
        }
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
    }
}

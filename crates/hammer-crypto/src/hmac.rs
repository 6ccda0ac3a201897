//! HMAC-SHA-256 (RFC 2104) built on the crate's own [`Sha256`].
//!
//! Used for deterministic nonce derivation in the signature scheme and for
//! keyed workload-payload checksums.

use crate::sha256::{Digest, Sha256};

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
    let mut ctx = HmacSha256::new(key);
    ctx.update(message);
    ctx.finalize()
}

/// An incremental HMAC-SHA-256 context for multi-part messages.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    opad: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates a context keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256(key);
            key_block[..digest.len()].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 { inner, opad }
    }

    /// Feeds more message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the MAC.
    pub fn finalize(self) -> Digest {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad);
        outer.update(&inner_digest);
        outer.finalize()
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

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"secret key material";
        let msg: Vec<u8> = (0..500u16).map(|i| (i % 256) as u8).collect();
        let expect = hmac_sha256(key, &msg);
        let mut ctx = HmacSha256::new(key);
        for chunk in msg.chunks(7) {
            ctx.update(chunk);
        }
        assert_eq!(ctx.finalize(), expect);
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
    }
}

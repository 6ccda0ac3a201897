//! Cryptographic primitives for the Hammer blockchain evaluation framework.
//!
//! Every blockchain workload item carries a client signature, and the cost of
//! producing those signatures is exactly what Hammer's asynchronous-signature
//! optimisation (paper §III-D1, Fig. 8) accelerates. This crate implements the
//! primitives the simulated chains and the evaluation driver need, from
//! scratch:
//!
//! * [`mod@sha256`] — the FIPS 180-4 SHA-256 hash function. Its compression
//!   function runs on the x86-64 SHA extensions when the CPU reports them
//!   and on portable rounds otherwise; the choice is the CPU's alone (see
//!   [`sha256::hardware_accelerated`]) and the output is bit-identical.
//! * `hmac` (crate-private) — HMAC-SHA-256, which derives the signature
//!   scheme's deterministic nonces.
//! * [`merkle`] — the binary Merkle root the chain simulators commit to
//!   block transaction lists with.
//! * [`sig`] — a Schnorr-style signature scheme over a prime field. It is
//!   *educational strength* (61-bit modulus), but it has the same
//!   sign/verify API and, via [`sig::SigParams::cost_factor`], a tunable
//!   computational cost so experiments see a realistic signing workload.
//! * [`keys`] — keypair generation and deterministic derivation.
//!
//! # Quick example
//!
//! ```
//! use hammer_crypto::{keys::Keypair, sig::SigParams};
//!
//! let params = SigParams::fast();
//! let keypair = Keypair::generate(&params, &mut rand::thread_rng());
//! let sig = keypair.sign(b"transfer 10 from alice to bob", &params);
//! assert!(keypair.public().verify(b"transfer 10 from alice to bob", &sig, &params));
//! assert!(!keypair.public().verify(b"transfer 99 from alice to bob", &sig, &params));
//! ```

#![warn(missing_docs)]

mod hmac;
pub mod keys;
pub mod merkle;
pub mod sha256;
pub mod sig;

pub use keys::{Keypair, PublicKey};
pub use sha256::{sha256, Sha256};
pub use sig::{SigParams, Signature};

/// A 32-byte hash value, the common digest type of the whole workspace.
pub type Hash32 = [u8; 32];

/// Hex-encodes a byte slice (lowercase, no prefix).
///
/// ```
/// assert_eq!(hammer_crypto::to_hex(&[0xde, 0xad, 0xbe, 0xef]), "deadbeef");
/// ```
pub fn to_hex(bytes: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xf) as usize] as char);
    }
    out
}

/// Decodes a lowercase/uppercase hex string into bytes.
///
/// Returns `None` when the string has odd length or contains a non-hex
/// character.
///
/// ```
/// assert_eq!(hammer_crypto::from_hex("deadBEEF"), Some(vec![0xde, 0xad, 0xbe, 0xef]));
/// assert_eq!(hammer_crypto::from_hex("xyz"), None);
/// ```
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            b'A'..=b'F' => Some(c - b'A' + 10),
            _ => None,
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        let hex = to_hex(&data);
        assert_eq!(from_hex(&hex).unwrap(), data);
    }

    #[test]
    fn hex_rejects_bad_input() {
        assert_eq!(from_hex("abc"), None); // odd length
        assert_eq!(from_hex("zz"), None); // bad char
        assert_eq!(from_hex(""), Some(vec![]));
    }
}

//! Keypair generation and high-level sign/verify wrappers.

use rand::Rng;

use crate::hmac::HmacKey;
use crate::sig::{self, SigParams, Signature, GROUP_ORDER};

/// A secret signing key (a scalar in `[1, GROUP_ORDER)`).
///
/// Deliberately does not implement `Display`; `Debug` redacts the scalar so
/// keys never leak through logs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct SecretKey {
    x: u64,
    /// The nonce HMAC's key with its pad blocks compressed, so a
    /// signature hashes only the message's blocks.
    nonce_key: HmacKey,
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey(<redacted>)")
    }
}

/// A public verification key (`g^x mod p`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(u64);

/// A secret/public keypair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

impl SecretKey {
    fn new(x: u64) -> Self {
        SecretKey {
            x,
            nonce_key: sig::nonce_key(x),
        }
    }

    /// Derives the matching public key.
    pub(crate) fn public(&self) -> PublicKey {
        PublicKey(sig::pow_g(self.x))
    }
}

impl PublicKey {
    /// The raw group element.
    pub fn as_u64(&self) -> u64 {
        self.0
    }

    /// Builds a public key from a raw group element. Returns `None` when the
    /// element is outside `[1, P)`.
    pub fn from_u64(y: u64) -> Option<Self> {
        if y == 0 || y >= sig::P {
            None
        } else {
            Some(PublicKey(y))
        }
    }

    /// Verifies a signature over `msg`.
    pub fn verify(&self, msg: &[u8], signature: &Signature, params: &SigParams) -> bool {
        sig::verify(self.0, msg, signature, params)
    }
}

impl Keypair {
    /// Generates a fresh random keypair.
    pub fn generate<R: Rng + ?Sized>(_params: &SigParams, rng: &mut R) -> Self {
        let secret = SecretKey::new(rng.gen_range(1..GROUP_ORDER));
        let public = secret.public();
        Keypair { secret, public }
    }

    /// Deterministically derives a keypair from a seed (e.g. a client id),
    /// so simulated clusters are reproducible.
    pub fn from_seed(seed: u64) -> Self {
        // Hash the seed into the scalar range; a fixed domain tag keeps
        // distinct derivation domains apart.
        let digest =
            crate::sha256(&[b"hammer-keypair-v1".as_slice(), &seed.to_be_bytes()].concat());
        let mut x = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")) % GROUP_ORDER;
        if x == 0 {
            x = 1;
        }
        let secret = SecretKey::new(x);
        let public = secret.public();
        Keypair { secret, public }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs a message with the secret key, reusing the cached public
    /// key and nonce-key midstates — the keypair signing hot path never
    /// re-derives `g^x` or re-hashes a key pad.
    pub fn sign(&self, msg: &[u8], params: &SigParams) -> Signature {
        let secret = &self.secret;
        sig::sign_with_key(secret.x, &secret.nonce_key, self.public.0, msg, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    impl SecretKey {
        /// Signs with the key's own cached nonce key and a freshly
        /// derived public key.
        fn sign(&self, msg: &[u8], params: &SigParams) -> Signature {
            sig::sign_with_key(self.x, &self.nonce_key, self.public().0, msg, params)
        }
    }

    #[test]
    fn generate_and_roundtrip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let params = SigParams::fast();
        let kp = Keypair::generate(&params, &mut rng);
        let sig = kp.sign(b"payload", &params);
        assert!(kp.public().verify(b"payload", &sig, &params));
        assert!(!kp.public().verify(b"other", &sig, &params));
    }

    #[test]
    fn from_seed_is_deterministic() {
        assert_eq!(Keypair::from_seed(7), Keypair::from_seed(7));
        assert_ne!(
            Keypair::from_seed(7).public(),
            Keypair::from_seed(8).public()
        );
    }

    #[test]
    fn public_key_validation() {
        assert!(PublicKey::from_u64(0).is_none());
        assert!(PublicKey::from_u64(sig::P).is_none());
        assert!(PublicKey::from_u64(12345).is_some());
    }

    #[test]
    fn keypair_signs_as_the_scalar_does() {
        let params = SigParams::with_cost(3);
        let kp = Keypair::from_seed(11);
        for msg in [b"".as_slice(), b"short", &[0x5a; 200]] {
            let expect = sig::sign(kp.secret.x, msg, &params);
            assert_eq!(kp.sign(msg, &params), expect);
            assert_eq!(kp.secret.sign(msg, &params), expect);
        }
    }

    #[test]
    fn debug_redacts_secret() {
        let kp = Keypair::from_seed(3);
        assert_eq!(format!("{:?}", kp.secret), "SecretKey(<redacted>)");
    }

    #[test]
    fn cross_key_verification_fails() {
        let params = SigParams::fast();
        let a = Keypair::from_seed(1);
        let b = Keypair::from_seed(2);
        let sig = a.sign(b"msg", &params);
        assert!(!b.public().verify(b"msg", &sig, &params));
    }
}

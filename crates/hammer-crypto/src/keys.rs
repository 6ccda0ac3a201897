//! Keypair generation and high-level sign/verify wrappers.

use rand::Rng;

use crate::sig::{self, SigParams, Signature, GROUP_ORDER};

/// A secret signing key (a scalar in `[1, GROUP_ORDER)`).
///
/// Deliberately does not implement `Display`; `Debug` redacts the scalar so
/// keys never leak through logs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SecretKey(u64);

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
    /// Derives the matching public key.
    pub fn public(&self) -> PublicKey {
        PublicKey(sig::pow_g(self.0))
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8], params: &SigParams) -> Signature {
        sig::sign(self.0, msg, params)
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
        let x = rng.gen_range(1..GROUP_ORDER);
        let secret = SecretKey(x);
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
        let secret = SecretKey(x);
        let public = secret.public();
        Keypair { secret, public }
    }

    /// The secret half.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Signs a message with the secret key, reusing the cached public
    /// key — the keypair signing hot path never re-derives `g^x`.
    pub fn sign(&self, msg: &[u8], params: &SigParams) -> Signature {
        sig::sign_with_key(self.secret.0, self.public.0, msg, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
    fn debug_redacts_secret() {
        let kp = Keypair::from_seed(3);
        assert_eq!(format!("{:?}", kp.secret()), "SecretKey(<redacted>)");
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

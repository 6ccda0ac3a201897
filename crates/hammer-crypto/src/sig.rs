//! A Schnorr-style signature scheme over the Mersenne prime field
//! `p = 2^61 - 1`.
//!
//! # Why a from-scratch toy scheme?
//!
//! Hammer's asynchronous-signature optimisation (paper §III-D1, Fig. 8) is
//! about the *computational cost* of signing every workload transaction. What
//! the experiments need is a real sign/verify API whose cost is comparable to
//! production ECDSA and cannot be optimised away. This scheme is
//! **educational strength only** (a 61-bit modulus is trivially breakable);
//! its purpose is a faithful cost and API profile, not security. The
//! [`SigParams::cost_factor`] knob sets the number of hash-hardening rounds
//! used to derive the challenge, which lets benchmarks dial signing cost to
//! match production signers.
//!
//! # Construction
//!
//! Classic Schnorr in the multiplicative group of `Z_p`:
//!
//! * secret `x`, public `y = g^x mod p`
//! * sign: deterministic nonce `k` (HMAC of secret and message, RFC-6979
//!   style), `r = g^k`, challenge `e = H*(r || m || y)`,
//!   `s = k + e·x mod (p-1)`
//! * verify: `g^s == r · y^e (mod p)`
//!
//! where `H*` is SHA-256 iterated [`SigParams::cost_factor`] times.
//!
//! Reducing exponents modulo `p-1` is valid for any base because the group
//! order divides `p-1` (Fermat), so correctness does not depend on the order
//! of `g`.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::hmac::HmacKey;
use crate::sha256::{finish, sha256_digest, H0};

/// The Mersenne prime modulus `2^61 - 1`.
pub(crate) const P: u64 = (1u64 << 61) - 1;
/// Order of the full multiplicative group, `p - 1`.
pub const GROUP_ORDER: u64 = P - 1;
/// The group generator.
pub const G: u64 = 3;

/// Scheme parameters.
///
/// The only knob is `cost_factor`, the number of SHA-256 rounds applied when
/// deriving the challenge. Both signing and verification perform the same
/// rounds, so the knob scales both costs together, mimicking heavier curves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SigParams {
    /// Number of challenge-hardening hash rounds (minimum 1).
    pub cost_factor: u32,
}

impl SigParams {
    /// Cheapest valid parameters; use in unit tests.
    pub fn fast() -> Self {
        SigParams { cost_factor: 1 }
    }

    /// Parameters tuned so one signature costs on the order of a production
    /// ECDSA signature (tens of microseconds).
    pub fn realistic() -> Self {
        SigParams { cost_factor: 200 }
    }

    /// Custom cost. Values below 1 are clamped to 1.
    pub fn with_cost(cost_factor: u32) -> Self {
        SigParams {
            cost_factor: cost_factor.max(1),
        }
    }
}

impl Default for SigParams {
    fn default() -> Self {
        Self::realistic()
    }
}

/// A Schnorr-style signature `(r, s)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Commitment `g^k mod p`.
    pub r: u64,
    /// Response `k + e·x mod (p-1)`.
    pub s: u64,
}

impl Signature {
    /// Serialises to 16 bytes (big-endian `r` then `s`).
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.r.to_be_bytes());
        out[8..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Parses 16 bytes produced by [`Signature::to_bytes`]. Returns `None`
    /// when either component is out of range.
    pub fn from_bytes(bytes: &[u8; 16]) -> Option<Self> {
        let r = u64::from_be_bytes(bytes[..8].try_into().expect("8 bytes"));
        let s = u64::from_be_bytes(bytes[8..].try_into().expect("8 bytes"));
        if r >= P || s >= GROUP_ORDER {
            return None;
        }
        Some(Signature { r, s })
    }
}

/// Multiplication modulo the Mersenne prime `P`, exploiting
/// `2^61 ≡ 1 (mod p)` for a division-free reduction.
#[inline]
pub(crate) fn mul_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P);
    let wide = (a as u128) * (b as u128);
    let lo = (wide & ((1u128 << 61) - 1)) as u64;
    let hi = (wide >> 61) as u64;
    let mut r = lo + hi;
    if r >= P {
        r -= P;
    }
    r
}

/// Modular exponentiation `base^exp mod P` by square-and-multiply.
pub fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    base %= P;
    let mut acc = 1u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// Precomputed table for fixed-base exponentiation by the windowed
/// (2^w-ary) method.
///
/// For a fixed `base` and window width `w`, row `i` stores
/// `base^(d · 2^(i·w))` for every digit `d < 2^w`. An exponent is then
/// split into base-2^w digits and `base^exp` is the product of one
/// table entry per nonzero digit — no squarings at exponentiation
/// time. With `w = 8` that is at most 7 multiplications per
/// exponentiation against ~90 for square-and-multiply on 61-bit
/// exponents, an order-of-magnitude win on the signing hot path.
///
/// Tables cover the full 64-bit exponent range, so [`FixedBaseTable::pow`]
/// agrees with [`pow_mod`] for every `u64` exponent.
#[derive(Clone, Debug)]
pub(crate) struct FixedBaseTable {
    window: u32,
    /// `rows × 2^window` entries, flattened row-major.
    entries: Vec<u64>,
}

impl FixedBaseTable {
    /// Builds the table for `base` with the given window width
    /// (1..=16; 8 is the sweet spot for a shared long-lived table,
    /// 4 keeps build cost low for per-key throwaway tables).
    pub(crate) fn new(base: u64, window: u32) -> Self {
        assert!((1..=16).contains(&window), "window width out of range");
        let rows = 64u32.div_ceil(window) as usize;
        let width = 1usize << window;
        let mut entries = vec![1u64; rows * width];
        // row_base starts at base^(2^0) and advances by 2^window per row.
        let mut row_base = base % P;
        for row in 0..rows {
            let slots = &mut entries[row * width..(row + 1) * width];
            for d in 1..width {
                slots[d] = mul_mod(slots[d - 1], row_base);
            }
            if row + 1 < rows {
                let next = mul_mod(slots[width - 1], row_base);
                row_base = next;
            }
        }
        FixedBaseTable { window, entries }
    }

    /// `base^exp mod P` via table lookups; equals `pow_mod(base, exp)`.
    #[inline]
    pub(crate) fn pow(&self, mut exp: u64) -> u64 {
        let mask = (1u64 << self.window) - 1;
        let width = 1usize << self.window;
        let mut acc = 1u64;
        let mut row = 0usize;
        while exp != 0 {
            let digit = (exp & mask) as usize;
            if digit != 0 {
                acc = mul_mod(acc, self.entries[row * width + digit]);
            }
            exp >>= self.window;
            row += 1;
        }
        acc
    }
}

/// Window width of the shared generator table: 8 rows × 256 entries
/// (16 KiB), built once per process.
const G_WINDOW: u32 = 8;

/// Window width for per-key tables in [`verify_batch`]: 16 rows × 16
/// entries, cheap enough to amortise over a handful of signatures.
const BATCH_KEY_WINDOW: u32 = 4;

/// How many signatures under one public key justify building it a
/// table in [`verify_batch`]. Build cost is ~`16·2^4` multiplications;
/// each use saves ~75, so the table pays for itself at about four.
const BATCH_KEY_MIN_USES: usize = 4;

fn g_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(G, G_WINDOW))
}

/// `G^exp mod P` through the shared precomputed generator table.
///
/// Identical results to `pow_mod(G, exp)`; roughly an order of
/// magnitude faster after the first call.
#[inline]
pub fn pow_g(exp: u64) -> u64 {
    g_table().pow(exp)
}

/// Addition modulo `GROUP_ORDER`.
#[inline]
fn add_mod_order(a: u64, b: u64) -> u64 {
    let sum = (a as u128) + (b as u128);
    (sum % GROUP_ORDER as u128) as u64
}

/// Multiplication modulo `GROUP_ORDER`.
#[inline]
fn mul_mod_order(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % GROUP_ORDER as u128) as u64
}

/// Derives the hardened challenge `e` for message `msg` under commitment `r`
/// and public key `y`.
fn challenge(r: u64, msg: &[u8], y: u64, params: &SigParams) -> u64 {
    let mut digest = finish(H0, 0, &[&r.to_be_bytes(), msg, &y.to_be_bytes()]);
    for _ in 1..params.cost_factor.max(1) {
        digest = sha256_digest(&digest);
    }
    let e = u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"));
    e % GROUP_ORDER
}

/// The nonce HMAC's key for secret scalar `x` (its 8 big-endian bytes),
/// pad blocks compressed: [`crate::SecretKey`] keeps it beside `x`.
pub(crate) fn nonce_key(x: u64) -> HmacKey {
    HmacKey::new(&x.to_be_bytes())
}

/// Deterministic nonce derivation (RFC-6979 style): `k = HMAC(x, msg ‖
/// ctr)`, the counter counting up from 0 until `k` is nonzero.
fn derive_nonce(key: &HmacKey, msg: &[u8]) -> u64 {
    let mut counter: u32 = 0;
    loop {
        let mac = key.mac(&[msg, &counter.to_be_bytes()]);
        let k = u64::from_be_bytes(mac[..8].try_into().expect("8 bytes")) % GROUP_ORDER;
        if k != 0 {
            return k;
        }
        counter += 1;
    }
}

/// Signs `msg` with secret scalar `x`, its nonce key ([`nonce_key`]`(x)`)
/// and its public key `y = g^x`.
pub(crate) fn sign_with_key(
    x: u64,
    nonce_key: &HmacKey,
    y: u64,
    msg: &[u8],
    params: &SigParams,
) -> Signature {
    debug_assert!((1..GROUP_ORDER).contains(&x));
    debug_assert_eq!(y, pow_g(x), "public key does not match secret");
    let k = derive_nonce(nonce_key, msg);
    let r = pow_g(k);
    let e = challenge(r, msg, y, params);
    let s = add_mod_order(k, mul_mod_order(e, x));
    Signature { r, s }
}

/// Whether `y` and `sig` are in range: `r` and `y` group elements in
/// `[1, P)`, `s` an exponent below `GROUP_ORDER`. An `s` at or above it
/// would be a second encoding of `s - GROUP_ORDER`, since `g^(p-1) = 1`.
fn in_range(y: u64, sig: &Signature) -> bool {
    (1..P).contains(&sig.r) && (1..P).contains(&y) && sig.s < GROUP_ORDER
}

/// Verifies a signature over `msg` against public key `y`.
pub(crate) fn verify(y: u64, msg: &[u8], sig: &Signature, params: &SigParams) -> bool {
    if !in_range(y, sig) {
        return false;
    }
    let e = challenge(sig.r, msg, y, params);
    let lhs = pow_g(sig.s);
    let rhs = mul_mod(sig.r, pow_mod(y, e));
    lhs == rhs
}

/// One entry in a [`verify_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct VerifyItem<'a> {
    /// Public key the signature claims to be under.
    pub y: u64,
    /// The signed message.
    pub msg: &'a [u8],
    /// The signature to check.
    pub sig: Signature,
}

/// Verifies many signatures, amortising shared work.
///
/// Returns one verdict per item, exactly equal to what
/// `verify` would return for it — including for corrupted entries —
/// so callers can mix keys freely. Speedup comes from two sources: the
/// `g^s` side always goes through the shared generator table, and any
/// public key appearing `BATCH_KEY_MIN_USES`+ times gets a throwaway
/// fixed-base table for its `y^e` side (block-sized bursts from one
/// signer are the common case in chain simulators).
pub fn verify_batch(items: &[VerifyItem<'_>], params: &SigParams) -> Vec<bool> {
    let mut uses: HashMap<u64, usize> = HashMap::new();
    for item in items {
        *uses.entry(item.y).or_insert(0) += 1;
    }
    let tables: HashMap<u64, FixedBaseTable> = uses
        .into_iter()
        .filter(|&(y, n)| n >= BATCH_KEY_MIN_USES && y != 0 && y < P)
        .map(|(y, _)| (y, FixedBaseTable::new(y, BATCH_KEY_WINDOW)))
        .collect();
    items
        .iter()
        .map(|item| {
            let (y, sig) = (item.y, item.sig);
            if !in_range(y, &sig) {
                return false;
            }
            let e = challenge(sig.r, item.msg, y, params);
            let y_pow_e = match tables.get(&y) {
                Some(table) => table.pow(e),
                None => pow_mod(y, e),
            };
            pow_g(sig.s) == mul_mod(sig.r, y_pow_e)
        })
        .collect()
}

/// The reference the keyed path is compared against: signs `msg` with
/// secret scalar `x` (in `[1, GROUP_ORDER)`), deriving the public key and
/// hashing the nonce key's pad blocks on every call.
#[cfg(test)]
pub(crate) fn sign(x: u64, msg: &[u8], params: &SigParams) -> Signature {
    sign_with_key(x, &nonce_key(x), pow_g(x), msg, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mul_mod_small_values() {
        assert_eq!(mul_mod(3, 4), 12);
        assert_eq!(mul_mod(P - 1, 1), P - 1);
        // (p-1)^2 = p^2 - 2p + 1 ≡ 1 (mod p)
        assert_eq!(mul_mod(P - 1, P - 1), 1);
    }

    #[test]
    fn pow_mod_fermat() {
        // a^(p-1) ≡ 1 for a not divisible by p.
        for a in [2u64, 3, 7, 12345, P - 2] {
            assert_eq!(pow_mod(a, P - 1), 1, "a={a}");
        }
    }

    #[test]
    fn pow_mod_edge_cases() {
        assert_eq!(pow_mod(5, 0), 1);
        assert_eq!(pow_mod(0, 5), 0);
        assert_eq!(pow_mod(1, u64::MAX), 1);
    }

    #[test]
    fn sign_verify_roundtrip() {
        let params = SigParams::fast();
        let x = 0x1234_5678_9abc_u64;
        let y = pow_mod(G, x);
        let sig = sign(x, b"hello", &params);
        assert!(verify(y, b"hello", &sig, &params));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let params = SigParams::fast();
        let x = 42u64;
        let y = pow_mod(G, x);
        let sig = sign(x, b"msg A", &params);
        assert!(!verify(y, b"msg B", &sig, &params));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let params = SigParams::fast();
        let sig = sign(42, b"msg", &params);
        let wrong_y = pow_mod(G, 43);
        assert!(!verify(wrong_y, b"msg", &sig, &params));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let params = SigParams::fast();
        let x = 777u64;
        let y = pow_mod(G, x);
        let sig = sign(x, b"msg", &params);
        let bad_r = Signature {
            r: sig.r ^ 1,
            ..sig
        };
        let bad_s = Signature {
            s: (sig.s + 1) % GROUP_ORDER,
            ..sig
        };
        assert!(!verify(y, b"msg", &bad_r, &params));
        assert!(!verify(y, b"msg", &bad_s, &params));
    }

    #[test]
    fn cost_factor_changes_challenge_but_roundtrips() {
        let x = 99u64;
        let y = pow_mod(G, x);
        let p1 = SigParams::with_cost(1);
        let p5 = SigParams::with_cost(5);
        let s1 = sign(x, b"m", &p1);
        let s5 = sign(x, b"m", &p5);
        assert_ne!(s1.s, s5.s, "different hardening must change the response");
        assert!(verify(y, b"m", &s1, &p1));
        assert!(verify(y, b"m", &s5, &p5));
        // Mixing parameter sets must fail.
        assert!(!verify(y, b"m", &s1, &p5));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let sig = sign(1234, b"bytes", &SigParams::fast());
        let bytes = sig.to_bytes();
        assert_eq!(Signature::from_bytes(&bytes), Some(sig));
    }

    #[test]
    fn signature_from_bytes_rejects_out_of_range() {
        let mut bytes = [0xffu8; 16];
        assert_eq!(Signature::from_bytes(&bytes), None);
        bytes = sign(5, b"x", &SigParams::fast()).to_bytes();
        assert!(Signature::from_bytes(&bytes).is_some());
    }

    #[test]
    fn deterministic_signing() {
        let params = SigParams::fast();
        assert_eq!(sign(7, b"same", &params), sign(7, b"same", &params));
        assert_ne!(sign(7, b"same", &params), sign(7, b"diff", &params));
    }

    /// `(r, s)` as the parent commit produced them: the nonce HMAC and the
    /// hardened challenge must stay bit-identical under any hash kernel.
    #[test]
    fn sign_golden_vectors() {
        let long = b"a message that is longer than one sha-256 block so the nonce hmac \
and the challenge both span blocks";
        let golden: [(u64, &[u8], u32, u64, u64); 3] = [
            (
                0x1234_5678_9abc,
                b"hello",
                1,
                0x1ee8_24fe_72f1_b7b3,
                0x0449_1abc_280d_019b,
            ),
            (
                42,
                b"transfer 10 from alice to bob",
                5,
                0x0460_9c06_9db5_6a33,
                0x1ef4_9334_0dec_744f,
            ),
            (
                0x0dea_dbee_f123_4567,
                long,
                200,
                0x08f0_f81d_688b_c765,
                0x1abe_6f30_731e_0ec3,
            ),
        ];
        for (x, msg, cost, r, s) in golden {
            let sig = sign(x, msg, &SigParams::with_cost(cost));
            assert_eq!(sig, Signature { r, s }, "x={x:#x} cost={cost}");
        }
    }

    #[test]
    fn fixed_base_table_matches_pow_mod_edges() {
        for window in [1u32, 4, 8, 13, 16] {
            let table = FixedBaseTable::new(G, window);
            for exp in [0u64, 1, 2, P - 1, P, GROUP_ORDER, u64::MAX] {
                assert_eq!(table.pow(exp), pow_mod(G, exp), "w={window} e={exp}");
            }
        }
        // Degenerate bases behave like pow_mod too.
        for base in [0u64, 1, P - 1, P, P + 5] {
            let table = FixedBaseTable::new(base, 4);
            for exp in [0u64, 1, 7, u64::MAX] {
                assert_eq!(table.pow(exp), pow_mod(base, exp), "b={base} e={exp}");
            }
        }
    }

    #[test]
    fn sign_with_key_matches_sign() {
        let params = SigParams::fast();
        let x = 0xdead_beef_u64;
        let y = pow_g(x);
        assert_eq!(
            sign_with_key(x, &nonce_key(x), y, b"msg", &params),
            sign(x, b"msg", &params)
        );
    }

    #[test]
    fn verify_batch_matches_scalar_verify() {
        let params = SigParams::fast();
        // 6 signatures under one key (table path) + 2 under others
        // (scalar path), with two corruptions mixed in.
        let mut items_owned: Vec<(u64, Vec<u8>, Signature)> = Vec::new();
        for i in 0..6u64 {
            let msg = format!("batch-{i}").into_bytes();
            let sig = sign(1000, &msg, &params);
            items_owned.push((pow_g(1000), msg, sig));
        }
        for i in 0..2u64 {
            let x = 77 + i;
            let msg = format!("solo-{i}").into_bytes();
            items_owned.push((pow_g(x), msg.clone(), sign(x, &msg, &params)));
        }
        // Corrupt one message and one signature.
        items_owned[1].1[0] ^= 0xff;
        items_owned[6].2.s ^= 1;
        let items: Vec<VerifyItem<'_>> = items_owned
            .iter()
            .map(|(y, msg, sig)| VerifyItem {
                y: *y,
                msg,
                sig: *sig,
            })
            .collect();
        let batch = verify_batch(&items, &params);
        for (item, verdict) in items.iter().zip(&batch) {
            assert_eq!(
                *verdict,
                verify(item.y, item.msg, &item.sig, &params),
                "batch and scalar verify disagree"
            );
        }
        assert!(!batch[1] && !batch[6], "corrupted entries must fail");
        assert!(batch[0] && batch[2], "intact entries must pass");
    }

    /// `(r, s + GROUP_ORDER)` satisfies the verification equation wherever
    /// `(r, s)` does (`g^(p-1) = 1`); both verifiers refuse it, as
    /// `Signature::from_bytes` does.
    #[test]
    fn second_encoding_of_s_is_rejected() {
        let params = SigParams::fast();
        let (x, other) = (4242u64, 7u64);
        let (y, y_other) = (pow_g(x), pow_g(other));
        let sig = sign(x, b"m", &params);
        let alias = Signature {
            s: sig.s + GROUP_ORDER,
            ..sig
        };
        assert_eq!(pow_g(alias.s), pow_g(sig.s));
        assert_eq!(Signature::from_bytes(&alias.to_bytes()), None);
        let scalar = [sig, alias].map(|sig| verify(y, b"m", &sig, &params));

        let other_sig = sign(other, b"m", &params);
        let other_alias = Signature {
            s: other_sig.s + GROUP_ORDER,
            ..other_sig
        };
        // Four uses of `y` build it a table; `y_other` takes the scalar power.
        let items = [
            (y, sig),
            (y, alias),
            (y, alias),
            (y, alias),
            (y_other, other_sig),
            (y_other, other_alias),
        ]
        .map(|(y, sig)| VerifyItem { y, msg: b"m", sig });
        assert_eq!(
            (scalar, verify_batch(&items, &params)),
            ([true, false], vec![true, false, false, false, true, false])
        );
    }

    #[test]
    fn verify_batch_rejects_out_of_range_keys() {
        let params = SigParams::fast();
        let sig = sign(5, b"m", &params);
        let items = [
            VerifyItem {
                y: 0,
                msg: b"m",
                sig,
            },
            VerifyItem {
                y: P,
                msg: b"m",
                sig,
            },
        ];
        assert_eq!(verify_batch(&items, &params), vec![false, false]);
    }

    proptest! {
        #[test]
        fn prop_sign_verify(x in 1u64..GROUP_ORDER, msg in proptest::collection::vec(any::<u8>(), 0..64)) {
            let params = SigParams::fast();
            let y = pow_mod(G, x);
            let sig = sign(x, &msg, &params);
            prop_assert!(verify(y, &msg, &sig, &params));
        }

        #[test]
        fn prop_mul_mod_matches_naive(a in 0u64..P, b in 0u64..P) {
            let expect = ((a as u128 * b as u128) % P as u128) as u64;
            prop_assert_eq!(mul_mod(a, b), expect);
        }

        #[test]
        fn prop_wrong_message_rejected(x in 1u64..GROUP_ORDER, msg in proptest::collection::vec(any::<u8>(), 1..32)) {
            let params = SigParams::fast();
            let y = pow_mod(G, x);
            let sig = sign(x, &msg, &params);
            let mut tampered = msg.clone();
            tampered[0] ^= 0xff;
            prop_assert!(!verify(y, &tampered, &sig, &params));
        }

        #[test]
        fn prop_fixed_base_matches_pow_mod(base in 0u64..P, exp in any::<u64>(), window in 1u32..=16) {
            let table = FixedBaseTable::new(base, window);
            prop_assert_eq!(table.pow(exp), pow_mod(base, exp));
        }

        #[test]
        fn prop_pow_g_matches_pow_mod(exp in any::<u64>()) {
            prop_assert_eq!(pow_g(exp), pow_mod(G, exp));
        }

        #[test]
        fn prop_verify_batch_agrees_with_verify(
            secrets in proptest::collection::vec(1u64..GROUP_ORDER, 1..12),
            msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..12),
            corrupt_mask in proptest::collection::vec(any::<bool>(), 12),
        ) {
            let params = SigParams::fast();
            let n = secrets.len().min(msgs.len());
            // Reuse a few secrets so some keys cross the per-key table
            // threshold while others stay on the scalar path.
            let mut items_owned: Vec<(u64, Vec<u8>, Signature)> = Vec::new();
            for i in 0..n {
                let x = secrets[i % 3.min(n)];
                let msg = msgs[i].clone();
                let mut sig = sign(x, &msg, &params);
                if corrupt_mask[i] {
                    sig.s = (sig.s + 1) % GROUP_ORDER;
                }
                items_owned.push((pow_g(x), msg, sig));
            }
            let items: Vec<VerifyItem<'_>> = items_owned
                .iter()
                .map(|(y, msg, sig)| VerifyItem { y: *y, msg, sig: *sig })
                .collect();
            let batch = verify_batch(&items, &params);
            for (item, verdict) in items.iter().zip(&batch) {
                prop_assert_eq!(*verdict, verify(item.y, item.msg, &item.sig, &params));
            }
        }
    }
}

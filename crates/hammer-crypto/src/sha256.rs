//! A from-scratch implementation of the SHA-256 hash function (FIPS 180-4).
//!
//! Supports both one-shot hashing via [`sha256`] and incremental hashing via
//! the [`Sha256`] streaming hasher. A one-shot message short enough to pad
//! on the stack is folded in one kernel call.

/// The SHA-256 digest length in bytes.
pub const DIGEST_LEN: usize = 32;

/// A SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The state before any block is folded in.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The one place a compression runs: the x86-64 SHA extensions when the
/// CPU has them, the portable rounds otherwise. Nothing selects the path
/// but the CPU.
///
/// Public, like [`compress_portable`], only so the perf ledger
/// (`crates/bench/benches/roundtrip.rs`, a caller outside the crate) can
/// time the two side by side.
#[doc(hidden)]
#[inline]
pub fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if x86::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// Whether [`sha256`] and everything built on it run on the CPU's SHA
/// extensions here; `false` means the portable rounds. A fact about the
/// host for benchmark metadata, not a setting: nothing can change it.
pub fn hardware_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    return x86::detected();
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The FIPS 180-4 rounds in plain Rust: the fallback on CPUs without SHA
/// extensions and the reference the hardware path is tested against.
#[doc(hidden)]
pub fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The compression function on the x86-64 SHA extensions: the crate's
/// only `unsafe`, for hardware access safe Rust has no operation for.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::*;

    use super::K;

    /// Whether the running CPU has every feature [`compress_sha_ni`]
    /// needs beyond the x86-64 baseline. std caches the answer in
    /// atomics, so asking on every call is a few relaxed loads.
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Folds `blocks` into `state` on the SHA extensions and returns
    /// `true`, or returns `false` with `state` untouched when the running
    /// CPU lacks them.
    #[inline]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` just reported `sha`, `ssse3` and `sse4.1`
        // on the running CPU and `sse2` is part of the x86-64 baseline:
        // every feature `compress_sha_ni` is compiled with.
        unsafe { compress_sha_ni(state, blocks) };
        true
    }

    /// Folds `blocks` into `state` with `sha256rnds2`/`msg1`/`msg2`,
    /// bit-identical to [`super::compress_portable`].
    ///
    /// Only fixed-size references come in, so no length reaches the
    /// pointer casts: every load and store below covers 16 bytes at a
    /// constant offset inside a 32-byte state or a 64-byte block.
    ///
    /// # Safety
    ///
    /// The running CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // The round instruction wants the state as (a,b,e,f) and (c,d,g,h).
        let lo = _mm_loadu_si128(state.as_ptr().cast());
        let hi = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(lo, 0xB1);
        let efgh = _mm_shuffle_epi32(hi, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        // Byte shuffle turning four big-endian words into lanes.
        let be = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let words = block.as_ptr().cast::<__m128i>();
            // Four groups of the message schedule, oldest first: the
            // block's own words for the first four groups of four rounds,
            // then the last four. Shifting the window by one per group
            // keeps every index constant, so the compiler unrolls all
            // sixteen groups into registers (indexed as `w[g % 4]`, the
            // loop stayed rolled).
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(words), be),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(1)), be),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(2)), be),
                _mm_shuffle_epi8(_mm_loadu_si128(words.add(3)), be),
            ];
            for g in 0..16 {
                let [w0, w1, w2, w3] = w;
                let now = if g < 4 {
                    w0
                } else {
                    let older = _mm_sha256msg1_epu32(w0, w1);
                    let mid = _mm_alignr_epi8(w3, w2, 4);
                    _mm_sha256msg2_epu32(_mm_add_epi32(older, mid), w3)
                };
                w = [w1, w2, w3, now];
                let k = _mm_set_epi32(
                    K[4 * g + 3] as i32,
                    K[4 * g + 2] as i32,
                    K[4 * g + 1] as i32,
                    K[4 * g] as i32,
                );
                let wk = _mm_add_epi32(now, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// The most blocks a message padded on the stack may span: up to 247
/// bytes after the last whole block already folded.
const STACK_BLOCKS: usize = 4;

/// Finishes a hash whose first `folded` bytes (whole blocks) are already
/// in `state`: the rest of the message, the concatenation of `parts`, is
/// copied onto the stack, padded and folded in one kernel call. This is
/// the one place a message is padded. A rest too long for the stack goes
/// through the streaming hasher, which folds whole blocks where they lie
/// and comes back here with the last partial block.
pub(crate) fn finish(mut state: [u32; 8], folded: usize, parts: &[&[u8]]) -> Digest {
    debug_assert!(folded.is_multiple_of(64), "only whole blocks are folded");
    let len: usize = parts.iter().map(|part| part.len()).sum();
    let total_len = (folded + len) as u64;
    // 0x80, zeros, then the message's bit length big-endian in the last
    // 8 bytes of the last block.
    let n = (len + 9).div_ceil(64);
    if n > STACK_BLOCKS {
        let mut hasher = Sha256 {
            state,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: folded as u64,
        };
        for part in parts {
            hasher.update(part);
        }
        return hasher.finalize();
    }
    let mut blocks = [[0u8; 64]; STACK_BLOCKS];
    let bytes = blocks.as_flattened_mut();
    let mut at = 0;
    for part in parts {
        bytes[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    bytes[at] = 0x80;
    bytes[n * 64 - 8..n * 64].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress(&mut state, &blocks[..n]);
    digest_bytes(&state)
}

/// The second half of the one block a 32-byte message (256 = 0x0100
/// bits) pads to.
const PAD_AFTER_32: [u8; 32] = {
    let mut pad = [0u8; 32];
    pad[0] = 0x80;
    pad[30] = 0x01;
    pad
};
/// The whole second block a 64-byte message (512 = 0x0200 bits) pads to.
const PAD_AFTER_64: [u8; 64] = {
    let mut pad = [0u8; 64];
    pad[0] = 0x80;
    pad[62] = 0x02;
    pad
};

fn digest_bytes(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Incremental SHA-256 hasher.
///
/// ```
/// use hammer_crypto::sha256::{sha256, Sha256};
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds more input into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            data = &data[take..];
        }
        // Whole blocks are hashed where they lie; only the tail is copied.
        let (blocks, tail) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(self) -> Digest {
        // The buffer holds under one block, which always pads on the
        // stack, so this does not come back here.
        let folded = self.total_len as usize - self.buffer_len;
        finish(self.state, folded, &[&self.buffer[..self.buffer_len]])
    }
}

/// One-shot SHA-256: a message of up to 247 bytes is padded on the stack
/// and folded in one kernel call.
///
/// A 32-byte input — a digest being re-hashed: Merkle leaves over
/// transaction ids, hash-hardening loops, proof-of-work burns — takes
/// the fixed-size path of [`sha256_digest`].
///
/// ```
/// let digest = hammer_crypto::sha256(b"abc");
/// assert_eq!(
///     hammer_crypto::to_hex(&digest),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    if let Ok(digest) = <&Digest>::try_from(data) {
        return sha256_digest(digest);
    }
    finish(H0, 0, &[data])
}

/// SHA-256 of a 32-byte value: one compression over the value and a
/// constant padding half-block, with no hasher state to set up.
pub fn sha256_digest(input: &Digest) -> Digest {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(input);
    block[32..].copy_from_slice(&PAD_AFTER_32);
    let mut state = H0;
    compress(&mut state, &[block]);
    digest_bytes(&state)
}

/// Hashes the concatenation of two digests; the Merkle-tree inner-node rule.
pub fn sha256_pair(left: &Digest, right: &Digest) -> Digest {
    let mut blocks = [[0u8; 64], PAD_AFTER_64];
    blocks[0][..32].copy_from_slice(left);
    blocks[0][32..].copy_from_slice(right);
    let mut state = H0;
    compress(&mut state, &blocks);
    digest_bytes(&state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_hex;
    use proptest::prelude::*;

    // NIST / well-known test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn long_message_448_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            to_hex(&sha256(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    /// One of the two compression kernels, called directly: there is no
    /// switch that makes the crate's public functions use one or the other.
    type Kernel = fn(&mut [u32; 8], &[[u8; 64]]);

    /// The hardware kernel, or `None` — said out loud, so a run on a CPU
    /// without the extensions does not read as a pass of these tests.
    fn hardware_kernel(test: &str) -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if hardware_accelerated() {
            return Some(|state, blocks| assert!(x86::compress(state, blocks)));
        }
        eprintln!("{test}: SKIPPED the hardware path, this CPU has no SHA extensions");
        None
    }

    /// SHA-256 by the book over one kernel: pad a copy of the whole
    /// message, compress it in one call.
    fn sha256_over(kernel: Kernel, data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        padded.resize(padded.len().next_multiple_of(64), 0);
        if padded.len() - data.len() < 9 {
            padded.resize(padded.len() + 64, 0);
        }
        let at = padded.len() - 8;
        padded[at..].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let (blocks, tail) = padded.as_chunks::<64>();
        assert!(tail.is_empty());
        let mut state = H0;
        kernel(&mut state, blocks);
        digest_bytes(&state)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn every_length_agrees_on_both_kernels() {
        let hardware = hardware_kernel("every_length_agrees_on_both_kernels");
        for len in 0..=300 {
            let data = pattern(len);
            let expect = sha256_over(compress_portable, &data);
            assert_eq!(sha256(&data), expect, "one-shot, len {len}");
            if let Some(hardware) = hardware {
                assert_eq!(sha256_over(hardware, &data), expect, "hardware, len {len}");
            }
        }
    }

    #[test]
    fn streaming_matches_both_kernels_at_all_split_points() {
        let data = pattern(300);
        let expect = sha256_over(compress_portable, &data);
        if let Some(hardware) =
            hardware_kernel("streaming_matches_both_kernels_at_all_split_points")
        {
            assert_eq!(sha256_over(hardware, &data), expect);
        }
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn digest_fast_path_matches_reference() {
        let a = sha256(b"a");
        assert_eq!(sha256_digest(&a), sha256_over(compress_portable, &a));
    }

    proptest! {
        #[test]
        fn prop_hardware_compress_matches_portable(
            state in proptest::collection::vec(any::<u32>(), 8),
            bytes in proptest::collection::vec(any::<u8>(), 256),
            n in 1usize..=4,
        ) {
            let blocks = &bytes.as_chunks::<64>().0[..n];
            let mut portable: [u32; 8] = state.try_into().expect("8 words");
            let mut hardware = portable;
            compress_portable(&mut portable, blocks);
            if let Some(kernel) = hardware_kernel("prop_hardware_compress_matches_portable") {
                kernel(&mut hardware, blocks);
                prop_assert_eq!(hardware, portable);
            }
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data: Vec<u8> = (0..1000u16).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn pair_is_concat() {
        let a = sha256(b"a");
        let b = sha256(b"b");
        let mut concat = Vec::new();
        concat.extend_from_slice(&a);
        concat.extend_from_slice(&b);
        assert_eq!(sha256_pair(&a, &b), sha256(&concat));
    }
}

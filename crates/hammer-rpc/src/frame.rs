//! Length-prefixed wire framing for RPC over byte streams.
//!
//! The in-process transport ([`crate::transport`]) hands complete JSON
//! texts around by reference, so it needs no framing. A TCP transport
//! sees an undifferentiated byte stream and must recover message
//! boundaries itself. This module implements the classic length-prefix
//! scheme: every frame is a 4-byte big-endian payload length followed by
//! exactly that many payload bytes.
//!
//! Design constraints (these are what the proptests pin down):
//!
//! * **Never panic** on hostile input. A peer can send truncated
//!   headers, truncated bodies, zero lengths, absurd lengths, or plain
//!   garbage; the decoder answers with a typed [`FrameError`] or waits
//!   for more bytes — it never indexes out of bounds or unwraps.
//! * **Never over-allocate.** The declared length is checked against
//!   [`MAX_FRAME_LEN`] *before* any buffer is sized from it, so a
//!   4-byte header claiming a 4 GiB body cannot balloon memory. The
//!   decoder's internal buffer only ever grows by bytes actually
//!   received.
//! * **Incremental.** [`FrameDecoder::extend`] accepts bytes in
//!   arbitrary chunks (TCP reads split anywhere, including inside the
//!   header) and [`FrameDecoder::next_frame`] yields complete frames as
//!   they become available.
//!
//! The codec is transport-agnostic and socket-free on purpose: the
//! property tests exercise it exhaustively without ever opening a
//! connection, and `hammer-net`'s TCP layer composes it with real
//! sockets.

/// Size of the length prefix, in bytes.
pub(crate) const HEADER_LEN: usize = 4;

/// Maximum payload length a frame may carry (8 MiB).
///
/// Large enough for any realistic JSON-RPC body (a whole block with
/// thousands of transactions serialises well under 1 MiB); small enough
/// that a malicious or corrupt length header cannot drive allocation.
pub const MAX_FRAME_LEN: usize = 8 * 1024 * 1024;

/// Why a frame could not be encoded or decoded.
///
/// Every variant is a *protocol* violation: the stream is unrecoverable
/// after one (the decoder cannot resynchronise on a byte stream whose
/// framing it no longer trusts), so transports should close the
/// connection. Callers map these to fatal errors in the chain-error
/// taxonomy, in contrast to resets and timeouts which are transient.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The declared (or to-be-encoded) payload length exceeds
    /// [`MAX_FRAME_LEN`].
    Oversized {
        /// The offending length.
        len: usize,
        /// The limit it exceeds.
        max: usize,
    },
    /// A frame declared a zero-length payload. No valid RPC message is
    /// empty, so an all-zero header is far more likely desynchronised
    /// garbage than an intentional message.
    Empty,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds maximum {max}")
            }
            FrameError::Empty => write!(f, "zero-length frame"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one frame (header + payload) to `out`.
///
/// Returns [`FrameError::Oversized`] / [`FrameError::Empty`] without
/// touching `out` if the payload violates the protocol limits.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<(), FrameError> {
    if payload.is_empty() {
        return Err(FrameError::Empty);
    }
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            len: payload.len(),
            max: MAX_FRAME_LEN,
        });
    }
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Incremental frame decoder over an arbitrary byte stream.
///
/// Feed received bytes with [`FrameDecoder::extend`] in whatever chunks
/// the transport delivers, then drain complete frames with
/// [`FrameDecoder::next_frame`]:
///
/// ```
/// use hammer_rpc::frame::{encode_frame, FrameDecoder};
///
/// let mut wire = Vec::new();
/// encode_frame(b"{\"id\":1}", &mut wire).unwrap();
/// let mut dec = FrameDecoder::new();
/// // Bytes may arrive split anywhere, even inside the header.
/// dec.extend(&wire[..3]);
/// assert_eq!(dec.next_frame().unwrap(), None);
/// dec.extend(&wire[3..]);
/// assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"{\"id\":1}"[..]));
/// ```
///
/// After the first error the decoder is poisoned: framing on the stream
/// can no longer be trusted, so every later call returns the same error
/// and the connection should be dropped.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    pos: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes to the internal buffer.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Returns the next complete frame's payload, `Ok(None)` if more
    /// bytes are needed, or the poisoning [`FrameError`] on a protocol
    /// violation.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let avail = self.buf.len() - self.pos;
        if avail < HEADER_LEN {
            self.compact();
            return Ok(None);
        }
        let hdr: [u8; HEADER_LEN] = self.buf[self.pos..self.pos + HEADER_LEN]
            .try_into()
            .expect("slice length matches HEADER_LEN");
        let len = u32::from_be_bytes(hdr) as usize;
        if len == 0 {
            return Err(self.poison(FrameError::Empty));
        }
        if len > MAX_FRAME_LEN {
            return Err(self.poison(FrameError::Oversized {
                len,
                max: MAX_FRAME_LEN,
            }));
        }
        if avail < HEADER_LEN + len {
            self.compact();
            return Ok(None);
        }
        let start = self.pos + HEADER_LEN;
        let frame = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(frame))
    }

    /// Reclaims the consumed prefix so the buffer never retains bytes of
    /// frames already handed out.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    fn poison(&mut self, err: FrameError) -> FrameError {
        self.poisoned = Some(err.clone());
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FrameDecoder {
        /// Bytes buffered but not yet returned as part of a frame.
        pub(crate) fn buffered(&self) -> usize {
            self.buf.len() - self.pos
        }
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(payload, &mut out).unwrap();
        out
    }

    #[test]
    fn roundtrip_single_frame() {
        let wire = framed(b"hello");
        assert_eq!(wire.len(), HEADER_LEN + 5);
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn multiple_frames_in_one_chunk() {
        let mut wire = framed(b"one");
        wire.extend_from_slice(&framed(b"two"));
        wire.extend_from_slice(&framed(b"three"));
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"two"[..]));
        assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"three"[..]));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_split_reads() {
        let wire = framed(b"split me");
        let mut dec = FrameDecoder::new();
        for (i, b) in wire.iter().enumerate() {
            dec.extend(std::slice::from_ref(b));
            let got = dec.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert_eq!(got, None, "frame completed early at byte {i}");
            } else {
                assert_eq!(got.as_deref(), Some(&b"split me"[..]));
            }
        }
    }

    #[test]
    fn truncated_body_waits_for_more() {
        let wire = framed(b"truncated");
        let mut dec = FrameDecoder::new();
        dec.extend(&wire[..wire.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.extend(&wire[wire.len() - 1..]);
        assert_eq!(
            dec.next_frame().unwrap().as_deref(),
            Some(&b"truncated"[..])
        );
    }

    #[test]
    fn oversized_header_rejected_before_allocation() {
        let mut dec = FrameDecoder::new();
        // Header claims u32::MAX bytes; only the 4 header bytes exist.
        dec.extend(&u32::MAX.to_be_bytes());
        let err = dec.next_frame().unwrap_err();
        assert_eq!(
            err,
            FrameError::Oversized {
                len: u32::MAX as usize,
                max: MAX_FRAME_LEN,
            }
        );
        // No allocation happened on behalf of the declared length.
        assert!(dec.buffered() <= HEADER_LEN);
        // The decoder stays poisoned.
        dec.extend(&framed(b"after"));
        assert!(matches!(
            dec.next_frame(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn boundary_length_is_accepted() {
        // Exactly MAX_FRAME_LEN must pass; one more must fail.
        let payload = vec![7u8; MAX_FRAME_LEN];
        let mut wire = Vec::new();
        encode_frame(&payload, &mut wire).unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert_eq!(dec.next_frame().unwrap().unwrap().len(), MAX_FRAME_LEN);

        let over = vec![7u8; MAX_FRAME_LEN + 1];
        let mut out = Vec::new();
        assert!(matches!(
            encode_frame(&over, &mut out),
            Err(FrameError::Oversized { .. })
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn zero_length_frame_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&0u32.to_be_bytes());
        assert_eq!(dec.next_frame().unwrap_err(), FrameError::Empty);
        let mut out = Vec::new();
        assert_eq!(encode_frame(b"", &mut out), Err(FrameError::Empty));
    }

    #[test]
    fn consumed_bytes_are_reclaimed() {
        let mut dec = FrameDecoder::new();
        for _ in 0..100 {
            dec.extend(&framed(b"payload"));
            assert!(dec.next_frame().unwrap().is_some());
        }
        // Nothing pending: the internal buffer must not retain 100
        // frames' worth of consumed bytes.
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn error_display_formats() {
        let e = FrameError::Oversized { len: 10, max: 5 };
        assert!(e.to_string().contains("10"));
        assert!(FrameError::Empty.to_string().contains("zero-length"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of payloads, chunked arbitrarily, decodes back to
        /// exactly the same payloads in order.
        #[test]
        fn prop_roundtrip_under_arbitrary_chunking(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..512),
                1..8,
            ),
            chunk_sizes in proptest::collection::vec(1usize..64, 1..64),
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                encode_frame(p, &mut wire).unwrap();
            }
            let mut dec = FrameDecoder::new();
            let mut decoded: Vec<Vec<u8>> = Vec::new();
            let mut offset = 0;
            let mut chunk_iter = chunk_sizes.iter().cycle();
            while offset < wire.len() {
                let take = (*chunk_iter.next().unwrap()).min(wire.len() - offset);
                dec.extend(&wire[offset..offset + take]);
                offset += take;
                while let Some(frame) = dec.next_frame().unwrap() {
                    decoded.push(frame);
                }
            }
            prop_assert_eq!(decoded, payloads);
            prop_assert_eq!(dec.buffered(), 0);
        }

        /// Garbage bytes never panic the decoder and never make it buffer
        /// more than it was fed: every call returns a frame, `None`, or a
        /// typed error.
        #[test]
        fn prop_garbage_never_panics_or_overallocates(
            chunks in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..128),
                0..16,
            ),
        ) {
            let mut dec = FrameDecoder::new();
            let mut fed = 0usize;
            let mut returned = 0usize;
            for chunk in &chunks {
                dec.extend(chunk);
                fed += chunk.len();
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => returned += HEADER_LEN + frame.len(),
                        Ok(None) => break,
                        Err(_) => break, // typed error, by construction
                    }
                }
                // The decoder can only hold bytes it was actually fed.
                prop_assert!(dec.buffered() <= fed - returned);
            }
        }

        /// A poisoned decoder keeps returning the same error.
        #[test]
        fn prop_poison_is_sticky(tail in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut dec = FrameDecoder::new();
            dec.extend(&0u32.to_be_bytes());
            let first = dec.next_frame().unwrap_err();
            dec.extend(&tail);
            prop_assert_eq!(dec.next_frame().unwrap_err(), first);
        }

        /// Truncating a valid wire image anywhere yields `None` (waiting),
        /// never an error or a bogus frame.
        #[test]
        fn prop_truncation_waits(payload in proptest::collection::vec(any::<u8>(), 1..256)) {
            let mut wire = Vec::new();
            encode_frame(&payload, &mut wire).unwrap();
            for cut in 0..wire.len() {
                let mut dec = FrameDecoder::new();
                dec.extend(&wire[..cut]);
                prop_assert_eq!(dec.next_frame().unwrap(), None);
            }
        }
    }
}

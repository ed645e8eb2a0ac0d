//! The ADAN1 wire framing: length-prefixed, CRC32-checked frames.
//!
//! The codec *is* the K-DB journal's ([`ada_kdb::journal::encode_frame`],
//! [`ada_kdb::journal::decode_frame`]) under its own tag byte and with a
//! length cap: a connection opens with the [`MAGIC`] preamble in each
//! direction, and every message travels as one frame
//!
//! ```text
//! F<len>:<seq>:<crc32-hex>:<payload>
//! ```
//!
//! — an ASCII-decimal payload byte length, a per-direction monotonic
//! sequence number (detects dropped or replayed frames the moment they
//! happen, exactly as the journal's record index does), an 8-hex-digit
//! CRC32 (IEEE) of the payload, and the payload bytes themselves.
//!
//! [`FrameDecoder`] adds what is the wire's own — buffering, stream
//! offsets, a sticky failure — as a push-based incremental parser: feed
//! it whatever the socket produced, take complete payloads out. Malformed
//! input is classified the same way journal replay classifies it — a
//! frame that merely *ends early* is "torn" (more bytes may still
//! arrive; on a socket that only becomes an error at EOF or deadline),
//! while a complete-looking frame that fails its length, CRC or
//! sequence check is a hard [`FrameError`] and the connection must die.

use ada_kdb::journal::{self, FrameFail};

/// Connection preamble, sent once in each direction before any frame.
/// `ADAN` ≠ `ADAJ`: a journal file can never be mistaken for a socket
/// stream and vice versa. The trailing digit versions the protocol.
pub const MAGIC: &[u8] = b"ADAN1\n";

/// Hard upper bound on one frame's payload, defending the decoder
/// against adversarial length fields. The server holds its own answers
/// to it too: a response that would exceed it (an unpaged
/// `PastSessions` over a few thousand records) is replaced by a typed
/// `response_too_large` error, and listings page under it.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A framing violation that must terminate the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// Byte offset (within the decoder's stream, frames only — the
    /// magic preamble is consumed before the decoder sees bytes) of the
    /// offending frame's start.
    pub offset: u64,
    /// What was wrong (bad tag, CRC mismatch, sequence gap, …).
    pub reason: String,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "frame error at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for FrameError {}

/// The tag byte opening an ADAN1 frame.
const FRAME_TAG: u8 = b'F';

/// Appends the ADAN1 frame for `payload` (sequence `seq`) to `out`.
pub fn encode_frame(payload: &[u8], seq: u64, out: &mut Vec<u8>) {
    journal::encode_frame(FRAME_TAG, payload, seq, out);
}

/// The encoded frame as a fresh buffer.
pub fn frame_bytes(payload: &[u8], seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 32);
    encode_frame(payload, seq, &mut out);
    out
}

/// Outcome of one [`FrameDecoder::next_frame`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decoded {
    /// A complete, verified payload.
    Frame(Vec<u8>),
    /// The buffered bytes end mid-frame; push more and retry.
    NeedMore,
}

/// Incremental ADAN1 frame parser.
///
/// Bytes go in via [`FrameDecoder::push`]; complete payloads come out
/// of [`FrameDecoder::next_frame`]. The decoder verifies each frame's length
/// bound, CRC32 and sequence number; any violation is a terminal
/// [`FrameError`] (subsequent `next` calls keep returning it).
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes consumed and discarded from the front of `buf` so far.
    consumed: u64,
    /// Sequence number the next frame must carry.
    expect_seq: u64,
    /// Sticky failure: a framing violation poisons the decoder.
    failed: Option<FrameError>,
}

impl FrameDecoder {
    /// A fresh decoder expecting sequence number 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds `bytes` from the stream into the decoder.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The sequence number the next well-formed frame must carry.
    pub fn expect_seq(&self) -> u64 {
        self.expect_seq
    }

    /// Attempts to decode the next frame from the buffered bytes. Bytes
    /// that end mid-frame are [`Decoded::NeedMore`] (torn — not yet an
    /// error on a live socket).
    ///
    /// # Errors
    /// Returns the (sticky) [`FrameError`] once the stream violates the
    /// framing: bad tag, oversized or malformed length, CRC mismatch,
    /// or a sequence gap.
    pub fn next_frame(&mut self) -> Result<Decoded, FrameError> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        let decoded = journal::decode_frame(FRAME_TAG, MAX_FRAME_LEN, &self.buf, self.expect_seq);
        match decoded.map_err(FrameFail::violation) {
            Ok(payload_at) => {
                let payload = self.buf[payload_at.clone()].to_vec();
                self.buf.drain(..payload_at.end);
                self.consumed += payload_at.end as u64;
                self.expect_seq += 1;
                Ok(Decoded::Frame(payload))
            }
            Err(None) => Ok(Decoded::NeedMore),
            Err(Some((at, reason))) => {
                let err = FrameError {
                    offset: self.consumed + at as u64,
                    reason,
                };
                self.failed = Some(err.clone());
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_single_and_batched_frames() {
        let mut stream = Vec::new();
        encode_frame(b"hello", 0, &mut stream);
        encode_frame(b"", 1, &mut stream);
        encode_frame(b"worlds", 2, &mut stream);
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert_eq!(dec.next_frame().unwrap(), Decoded::Frame(b"hello".to_vec()));
        assert_eq!(dec.next_frame().unwrap(), Decoded::Frame(b"".to_vec()));
        assert_eq!(
            dec.next_frame().unwrap(),
            Decoded::Frame(b"worlds".to_vec())
        );
        assert_eq!(dec.next_frame().unwrap(), Decoded::NeedMore);
    }

    #[test]
    fn byte_at_a_time_delivery_reassembles() {
        let mut stream = Vec::new();
        encode_frame(b"drip-fed payload", 0, &mut stream);
        let mut dec = FrameDecoder::new();
        let mut got = None;
        for b in stream {
            dec.push(&[b]);
            if let Decoded::Frame(p) = dec.next_frame().unwrap() {
                got = Some(p);
            }
        }
        assert_eq!(got.as_deref(), Some(&b"drip-fed payload"[..]));
    }

    #[test]
    fn the_wire_tag_is_f() {
        assert_eq!(frame_bytes(b"x", 0), b"F1:0:8cdc1683:x");
    }

    // What a violation *is* — every bit flip, every byte cut, both tags —
    // is `ada_kdb::journal`'s codec suite; here, what the decoder adds.
    #[test]
    fn a_violation_is_sticky_and_reports_its_frame_start_in_the_stream() {
        let mut flipped = frame_bytes(b"b", 1);
        *flipped.last_mut().unwrap() ^= 0x01;
        for (bad, reason) in [
            (frame_bytes(b"b", 2), "sequence gap (stored 2, expected 1)"),
            (flipped, "crc mismatch"),
        ] {
            let first = frame_bytes(b"a", 0);
            let mut dec = FrameDecoder::new();
            dec.push(&first);
            dec.push(&bad);
            assert_eq!(dec.next_frame().unwrap(), Decoded::Frame(b"a".to_vec()));
            let err = dec.next_frame().unwrap_err();
            assert_eq!(err.offset, first.len() as u64);
            assert!(err.reason.contains(reason), "{err}");
            // Poisoned: even pushing a pristine frame cannot recover.
            dec.push(&frame_bytes(b"next", 1));
            assert_eq!(dec.next_frame().unwrap_err(), err);
        }
    }

    #[test]
    fn oversized_length_is_refused_before_its_payload_is_buffered() {
        let mut dec = FrameDecoder::new();
        dec.push(format!("F{}:", MAX_FRAME_LEN + 1).as_bytes());
        let err = dec.next_frame().unwrap_err();
        assert!(err.reason.contains("exceeds cap"), "{err}");
    }
}

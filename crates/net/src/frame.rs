//! The ADAN1 wire framing: length-prefixed, CRC32-checked frames.
//!
//! The codec reuses the ADAJ2 framing discipline of the K-DB journal
//! (`ada_kdb::journal`): a connection opens with the [`MAGIC`] preamble
//! in each direction, and every message travels as one frame
//!
//! ```text
//! F<len>:<seq>:<crc32-hex>:<payload>
//! ```
//!
//! — an ASCII-decimal payload byte length, a per-direction monotonic
//! sequence number (detects dropped or replayed frames the moment they
//! happen, exactly as the journal's record index does), an 8-hex-digit
//! CRC32 (IEEE, the journal polynomial via [`ada_kdb::journal::crc32`])
//! of the payload, and the payload bytes themselves.
//!
//! [`FrameDecoder`] is a push-based incremental parser: feed it
//! whatever the socket produced, take complete payloads out. Malformed
//! input is classified the same way journal replay classifies it — a
//! frame that merely *ends early* is "torn" (more bytes may still
//! arrive; on a socket that only becomes an error at EOF or deadline),
//! while a complete-looking frame that fails its length, CRC or
//! sequence check is a hard [`FrameError`] and the connection must die.

use ada_kdb::journal::crc32;

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

/// Appends the ADAN1 frame for `payload` (sequence `seq`) to `out`.
pub fn encode_frame(payload: &[u8], seq: u64, out: &mut Vec<u8>) {
    out.push(b'F');
    out.extend_from_slice(payload.len().to_string().as_bytes());
    out.push(b':');
    out.extend_from_slice(seq.to_string().as_bytes());
    out.push(b':');
    out.extend_from_slice(format!("{:08x}", crc32(payload)).as_bytes());
    out.push(b':');
    out.extend_from_slice(payload);
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

    fn fail(&mut self, at: usize, reason: String) -> FrameError {
        let err = FrameError {
            offset: self.consumed + at as u64,
            reason,
        };
        self.failed = Some(err.clone());
        err
    }

    /// Attempts to decode the next frame from the buffered bytes.
    ///
    /// # Errors
    /// Returns the (sticky) [`FrameError`] once the stream violates the
    /// framing: bad tag, oversized or malformed length, CRC mismatch,
    /// or a sequence gap.
    pub fn next_frame(&mut self) -> Result<Decoded, FrameError> {
        if let Some(err) = &self.failed {
            return Err(err.clone());
        }
        match self.parse() {
            Ok(Some((payload, end))) => {
                self.buf.drain(..end);
                self.consumed += end as u64;
                self.expect_seq += 1;
                Ok(Decoded::Frame(payload))
            }
            Ok(None) => Ok(Decoded::NeedMore),
            Err((at, reason)) => Err(self.fail(at, reason)),
        }
    }

    /// Parses one frame from the front of `buf`. `Ok(None)` means the
    /// bytes end mid-frame (torn — not yet an error on a live socket).
    #[allow(clippy::type_complexity)]
    fn parse(&self) -> Result<Option<(Vec<u8>, usize)>, (usize, String)> {
        let bytes = &self.buf;
        if bytes.is_empty() {
            return Ok(None);
        }
        if bytes[0] != b'F' {
            return Err((0, format!("bad frame tag {:?}", bytes[0] as char)));
        }
        let mut pos = 1usize;
        let Some(len) = take_number(bytes, &mut pos, "length")? else {
            return Ok(None);
        };
        let len = len as usize;
        if len > MAX_FRAME_LEN {
            return Err((0, format!("length {len} exceeds cap {MAX_FRAME_LEN}")));
        }
        let Some(seq) = take_number(bytes, &mut pos, "sequence")? else {
            return Ok(None);
        };
        if pos + 9 > bytes.len() {
            return Ok(None);
        }
        let crc_text = std::str::from_utf8(&bytes[pos..pos + 8])
            .map_err(|_| (pos, "non-UTF-8 checksum".to_string()))?;
        let stored_crc = u32::from_str_radix(crc_text, 16)
            .map_err(|_| (pos, format!("bad checksum {crc_text:?}")))?;
        if bytes[pos + 8] != b':' {
            return Err((pos + 8, "missing checksum separator".to_string()));
        }
        pos += 9;
        let Some(end) = pos.checked_add(len).filter(|&e| e <= bytes.len()) else {
            return Ok(None);
        };
        let payload = &bytes[pos..end];
        let computed = crc32(payload);
        if computed != stored_crc {
            return Err((
                0,
                format!("crc mismatch (stored {stored_crc:08x}, computed {computed:08x})"),
            ));
        }
        if seq != self.expect_seq {
            return Err((
                0,
                format!("sequence gap (stored {seq}, expected {})", self.expect_seq),
            ));
        }
        Ok(Some((payload.to_vec(), end)))
    }
}

/// Reads decimal digits up to a `:`. `Ok(None)` when the buffer ends
/// while still scanning (torn); `Err` on anything malformed.
fn take_number(bytes: &[u8], pos: &mut usize, what: &str) -> Result<Option<u64>, (usize, String)> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos >= bytes.len() {
        return Ok(None);
    }
    if bytes[*pos] != b':' || *pos == start || *pos - start > 19 {
        return Err((start, format!("malformed {what} field")));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    let n = text
        .parse::<u64>()
        .map_err(|_| (start, format!("{what} out of range")))?;
    *pos += 1; // consume ':'
    Ok(Some(n))
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
    fn crc_mismatch_is_sticky() {
        let mut stream = Vec::new();
        encode_frame(b"payload", 0, &mut stream);
        let n = stream.len();
        stream[n - 1] ^= 0x01; // corrupt last payload byte
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        let err = dec.next_frame().unwrap_err();
        assert!(err.reason.contains("crc mismatch"), "{err}");
        // Poisoned: even pushing a pristine frame cannot recover.
        let mut clean = Vec::new();
        encode_frame(b"next", 1, &mut clean);
        dec.push(&clean);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn sequence_gap_is_detected() {
        let mut stream = Vec::new();
        encode_frame(b"a", 0, &mut stream);
        encode_frame(b"b", 2, &mut stream); // skips seq 1
        let mut dec = FrameDecoder::new();
        dec.push(&stream);
        assert_eq!(dec.next_frame().unwrap(), Decoded::Frame(b"a".to_vec()));
        let err = dec.next_frame().unwrap_err();
        assert!(err.reason.contains("sequence gap"), "{err}");
    }

    #[test]
    fn oversized_length_is_refused_without_allocating() {
        let mut dec = FrameDecoder::new();
        dec.push(format!("F{}:0:00000000:", MAX_FRAME_LEN + 1).as_bytes());
        let err = dec.next_frame().unwrap_err();
        assert!(err.reason.contains("exceeds cap"), "{err}");
    }
}

//! Incremental, verified decoding of a replicated journal-frame stream.
//!
//! The primary ships its v2 journal frames (`R<len>:<seq>:<crc32>:`)
//! verbatim; the network chunks them arbitrarily. [`ReplStream`] buffers
//! those chunks and yields fully verified [`Op`]s one at a time, with
//! the journal's own discipline:
//!
//! * a frame that ends mid-bytes is **torn** — wait for more input;
//! * a frame carrying a sequence number *above* the expected one is a
//!   **gap** (a dropped or reordered frame) — fatal, never applied;
//! * a frame carrying a sequence number *below* the expected one is a
//!   **duplicate** (the bootstrap snapshot and the live tap can overlap
//!   by a few frames) — verified, then skipped;
//! * anything failing the length/CRC/payload checks is **corrupt** —
//!   fatal, never applied.
//!
//! Faults are sticky: once a stream has gapped or corrupted, every
//! subsequent [`ReplStream::next_op`] returns the same fault. The only
//! way forward is [`ReplStream::reset`] after a fresh bootstrap — the
//! same rule the wire's `FrameDecoder` applies to transport framing.

use ada_kdb::journal::{decode_record, FrameFail, Op};

/// Why a replicated stream can never be applied further. Carries the
/// absolute byte offset (bytes consumed since the stream began) of the
/// offending frame, for operator forensics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamFault {
    /// A verified frame with the wrong (higher) sequence number: at
    /// least one frame was dropped or reordered in between.
    Gap {
        /// Sequence number the frame carries.
        stored: u64,
        /// Sequence number the stream expected.
        expected: u64,
        /// Byte offset of the frame within the shipped stream.
        offset: u64,
    },
    /// A frame that fails its length, CRC, or payload checks.
    Corrupt {
        /// What was wrong.
        reason: String,
        /// Byte offset of the frame within the shipped stream.
        offset: u64,
    },
}

impl std::fmt::Display for StreamFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamFault::Gap {
                stored,
                expected,
                offset,
            } => write!(
                f,
                "replication gap at offset {offset}: frame seq {stored}, expected {expected}"
            ),
            StreamFault::Corrupt { reason, offset } => {
                write!(f, "replication corruption at offset {offset}: {reason}")
            }
        }
    }
}

/// Sticky incremental decoder for a shipped journal-frame stream.
#[derive(Debug, Default)]
pub struct ReplStream {
    buf: Vec<u8>,
    pos: usize,
    /// Bytes already compacted out of `buf` — `drained + pos` is the
    /// absolute stream offset of the next undecoded byte.
    drained: u64,
    expect_seq: u64,
    fault: Option<StreamFault>,
}

impl ReplStream {
    /// An empty stream expecting sequence number 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty stream expecting sequence number `seq` (a follower that
    /// bootstrapped `seq` ops from a snapshot).
    pub fn starting_at(seq: u64) -> Self {
        Self {
            expect_seq: seq,
            ..Self::default()
        }
    }

    /// Buffers more shipped bytes. Feeding a faulted stream is allowed
    /// (the transport does not know yet) but changes nothing.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.fault.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// The next sequence number this stream will accept.
    pub fn expect_seq(&self) -> u64 {
        self.expect_seq
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The sticky fault, if the stream has one.
    pub fn fault(&self) -> Option<&StreamFault> {
        self.fault.as_ref()
    }

    /// Decodes the next fully verified, in-sequence op, skipping
    /// verified duplicates. `Ok(None)` means the buffer holds no
    /// complete frame — feed more bytes.
    ///
    /// # Errors
    /// The stream's [`StreamFault`], sticky from the first gap or
    /// corruption onward.
    pub fn next_op(&mut self) -> Result<Option<Op>, StreamFault> {
        loop {
            if let Some(fault) = &self.fault {
                return Err(fault.clone());
            }
            let offset = self.drained + self.pos as u64;
            match decode_record(&self.buf[self.pos..], self.expect_seq) {
                Ok((op, len)) => {
                    self.pos += len;
                    self.expect_seq += 1;
                    self.compact();
                    return Ok(Some(op));
                }
                Err(FrameFail::Torn) => return Ok(None),
                Err(FrameFail::Gap { stored, expected }) if stored < expected => {
                    // A verified duplicate of an already-applied frame
                    // (snapshot/tap overlap): skip it. Re-decode with
                    // the frame's own seq so the CRC check still runs.
                    match decode_record(&self.buf[self.pos..], stored) {
                        Ok((_, len)) => {
                            self.pos += len;
                            self.compact();
                        }
                        Err(FrameFail::Torn) => return Ok(None),
                        Err(FrameFail::Gap { .. }) => unreachable!("seq matched"),
                        Err(FrameFail::Corrupt(_, reason)) => {
                            self.fault = Some(StreamFault::Corrupt { reason, offset });
                        }
                    }
                }
                Err(FrameFail::Gap { stored, expected }) => {
                    self.fault = Some(StreamFault::Gap {
                        stored,
                        expected,
                        offset,
                    });
                }
                Err(FrameFail::Corrupt(_, reason)) => {
                    self.fault = Some(StreamFault::Corrupt { reason, offset });
                }
            }
        }
    }

    /// Clears buffer, fault, and position after a fresh bootstrap of
    /// `seq` ops: the stream starts over expecting frame `seq`.
    pub fn reset(&mut self, seq: u64) {
        self.buf.clear();
        self.pos = 0;
        self.drained = 0;
        self.expect_seq = seq;
        self.fault = None;
    }

    /// Drops consumed bytes once they dominate the buffer, keeping the
    /// absolute-offset bookkeeping in `drained`.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.drained += self.pos as u64;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64, op: &Op) -> Vec<u8> {
        let mut payload = String::new();
        op.encode_into(&mut payload);
        let body = payload.as_bytes();
        let mut out = format!(
            "R{}:{}:{:08x}:",
            body.len(),
            seq,
            ada_kdb::journal::crc32(body)
        )
        .into_bytes();
        out.extend_from_slice(body);
        out
    }

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::CreateCollection {
                name: "exams".into(),
            },
            Op::Insert {
                name: "exams".into(),
                id: 0,
                doc: ada_kdb::Document::new().with("patient", 7i64),
            },
            Op::Delete {
                name: "exams".into(),
                id: 0,
            },
        ]
    }

    #[test]
    fn chunked_stream_yields_every_op_in_order() {
        let ops = sample_ops();
        let mut bytes = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            bytes.extend_from_slice(&frame(i as u64, op));
        }
        // Feed one byte at a time: torn mid-frame at every step.
        let mut stream = ReplStream::new();
        let mut got = Vec::new();
        for b in &bytes {
            stream.push(&[*b]);
            while let Some(op) = stream.next_op().unwrap() {
                got.push(op);
            }
        }
        assert_eq!(got, ops);
        assert_eq!(stream.expect_seq(), 3);
        assert_eq!(stream.buffered(), 0);
    }

    #[test]
    fn dropped_frame_is_a_sticky_gap_with_offset() {
        let ops = sample_ops();
        let mut stream = ReplStream::new();
        let first = frame(0, &ops[0]);
        stream.push(&first);
        stream.push(&frame(2, &ops[2])); // frame 1 dropped
        assert_eq!(stream.next_op().unwrap(), Some(ops[0].clone()));
        let fault = stream.next_op().unwrap_err();
        assert_eq!(
            fault,
            StreamFault::Gap {
                stored: 2,
                expected: 1,
                offset: first.len() as u64,
            }
        );
        // Sticky: pushing the missing frame afterwards cannot unfault.
        stream.push(&frame(1, &ops[1]));
        assert_eq!(stream.next_op().unwrap_err(), fault);
    }

    #[test]
    fn duplicate_frames_are_verified_then_skipped() {
        let ops = sample_ops();
        let mut stream = ReplStream::new();
        stream.push(&frame(0, &ops[0]));
        stream.push(&frame(0, &ops[0])); // tap/snapshot overlap
        stream.push(&frame(1, &ops[1]));
        assert_eq!(stream.next_op().unwrap(), Some(ops[0].clone()));
        assert_eq!(stream.next_op().unwrap(), Some(ops[1].clone()));
        assert_eq!(stream.next_op().unwrap(), None);
    }

    #[test]
    fn corrupt_duplicate_still_faults() {
        let ops = sample_ops();
        let mut stream = ReplStream::starting_at(1);
        let mut stale = frame(0, &ops[0]);
        let n = stale.len();
        stale[n - 1] ^= 0x01; // flip a payload bit in the duplicate
        stream.push(&stale);
        match stream.next_op().unwrap_err() {
            StreamFault::Corrupt { offset, .. } => assert_eq!(offset, 0),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn bit_flip_is_sticky_corruption_with_offset() {
        let ops = sample_ops();
        let mut stream = ReplStream::new();
        let good = frame(0, &ops[0]);
        let mut bad = frame(1, &ops[1]);
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        stream.push(&good);
        stream.push(&bad);
        assert_eq!(stream.next_op().unwrap(), Some(ops[0].clone()));
        match stream.next_op().unwrap_err() {
            StreamFault::Corrupt { offset, .. } => assert_eq!(offset, good.len() as u64),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // reset() after a re-bootstrap clears the fault.
        stream.reset(5);
        assert_eq!(stream.expect_seq(), 5);
        assert_eq!(stream.next_op().unwrap(), None);
    }
}

//! Append-only journal persistence with crash recovery.
//!
//! Every mutation of a persistent [`crate::Kdb`] is appended as one
//! operation record. The file starts with [`V2_MAGIC`] and each record
//! is a frame `R<len>:<seq>:<crc32-hex>:<payload>` — a payload byte
//! length, a monotonic record sequence number (= record index), and a
//! CRC32 of the payload. Replay distinguishes a *torn tail* (the bytes
//! simply end mid-frame — truncated away, as a crash mid-write would
//! leave) from *mid-file corruption* (a complete frame whose CRC,
//! sequence, or payload is wrong — reported with byte offset and record
//! index, or salvaged under [`RecoveryMode::Salvage`]). A file that
//! does not start with the magic is not a journal and is corrupt at
//! offset 0; only an empty file or a proper prefix of the magic (a
//! crash while the journal was being created) opens as an empty one.
//!
//! The frame codec ([`encode_frame`], [`decode_frame`]) is shared: the
//! ADAN1 wire (`ada_net::frame`) is the same code under tag `F`, capped.
//!
//! All I/O flows through the [`crate::storage::Storage`] traits so disk
//! faults are injectable in tests. A [`Journal`] only appends, flushes
//! and, when told to, fsyncs: the store that owns it decides when, by
//! its [`DurabilityPolicy`].

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::collection::DocId;
use crate::document::{Document, Input, Value};
use crate::error::KdbError;
use crate::storage::{FileStorage, Storage, StorageFile};

/// Magic bytes opening a journal file.
pub const V2_MAGIC: &[u8] = b"ADAJ2\n";

/// How replay reacts to mid-file corruption of a journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Fail the open with [`KdbError::Corrupt`] (byte offset + record
    /// index). The default: corruption should be loud.
    #[default]
    Strict,
    /// Keep the valid prefix, report the corruption in
    /// [`Replay::corruption`], and let the store quarantine the rest.
    Salvage,
}

/// When a store fsyncs its journal. The store decides; the journal
/// only appends and syncs when told to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurabilityPolicy {
    /// Every acknowledged op survives power loss: a [`crate::Kdb`]
    /// fsyncs after each append, a [`crate::SharedKdb`] group-commits
    /// (one fsync covers every op appended before it).
    Always,
    /// Never fsync on append (the OS flushes opportunistically); only
    /// snapshot compaction and explicit `sync` calls are durable. The
    /// default.
    #[default]
    SnapshotOnly,
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib/PNG polynomial).
// ---------------------------------------------------------------------

/// Bytes the sliced CRC loop takes per step.
const CRC_SLICE: usize = 16;

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so sixteen table lookups advance the register over sixteen input bytes.
const fn crc_tables() -> [[u32; 256]; CRC_SLICE] {
    let mut tables = [[0u32; 256]; CRC_SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < CRC_SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; CRC_SLICE] = crc_tables();

/// One byte through the classic table loop (the slicing loop's tail,
/// and the reference the tests compare it against).
fn crc32_step(c: u32, b: u8) -> u32 {
    CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC32 (IEEE) of `bytes` — the v2 frame checksum, sixteen bytes per
/// step (slicing-by-16; same polynomial and value as the bytewise loop).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(CRC_SLICE);
    for chunk in &mut chunks {
        let w = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        // Byte j of the step goes through the table for the 15 - j
        // bytes that follow it.
        c = t[15][(w & 0xFF) as usize]
            ^ t[14][((w >> 8) & 0xFF) as usize]
            ^ t[13][((w >> 16) & 0xFF) as usize]
            ^ t[12][(w >> 24) as usize];
        for (j, &b) in chunk.iter().enumerate().skip(4) {
            c ^= t[CRC_SLICE - 1 - j][b as usize];
        }
    }
    for &b in chunks.remainder() {
        c = crc32_step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

/// One journaled mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Create a collection.
    CreateCollection {
        /// Collection name.
        name: String,
    },
    /// Create an index on a collection path.
    CreateIndex {
        /// Collection name.
        name: String,
        /// Indexed dotted path.
        path: String,
    },
    /// Insert a document under a known id.
    Insert {
        /// Collection name.
        name: String,
        /// Assigned document id.
        id: DocId,
        /// The inserted document.
        doc: Document,
    },
    /// Replace a document.
    Update {
        /// Collection name.
        name: String,
        /// Target document id.
        id: DocId,
        /// The replacement document.
        doc: Document,
    },
    /// Delete a document.
    Delete {
        /// Collection name.
        name: String,
        /// Target document id.
        id: DocId,
    },
}

impl Op {
    /// The collection the op names.
    pub fn collection(&self) -> &str {
        match self {
            Op::CreateCollection { name }
            | Op::CreateIndex { name, .. }
            | Op::Insert { name, .. }
            | Op::Update { name, .. }
            | Op::Delete { name, .. } => name,
        }
    }

    /// Appends the encoded op to `out`.
    pub fn encode_into(&self, out: &mut String) {
        let push_str = |out: &mut String, s: &str| Value::Str(s.to_owned()).encode_into(out);
        let push_id = |out: &mut String, id: DocId| Value::I64(id as i64).encode_into(out);
        match self {
            Op::CreateCollection { name } => {
                out.push('C');
                push_str(out, name);
            }
            Op::CreateIndex { name, path } => {
                out.push('X');
                push_str(out, name);
                push_str(out, path);
            }
            Op::Insert { name, id, doc } => {
                out.push('I');
                push_str(out, name);
                push_id(out, *id);
                doc.encode_into(out);
            }
            Op::Update { name, id, doc } => {
                out.push('U');
                push_str(out, name);
                push_id(out, *id);
                doc.encode_into(out);
            }
            Op::Delete { name, id } => {
                out.push('D');
                push_str(out, name);
                push_id(out, *id);
            }
        }
    }

    /// Decodes one op starting at `*pos`, advancing past it. Like
    /// [`Value::decode_prefix`], it checks `bytes` for UTF-8 once per
    /// call: hand it one record's payload.
    ///
    /// # Errors
    /// Returns [`KdbError::Decode`] on malformed input.
    pub fn decode_prefix(bytes: &[u8], pos: &mut usize) -> Result<Op, KdbError> {
        let input = Input::new(bytes);
        let wrong = |at: usize, want: &str, found: Value| {
            KdbError::Decode(at, format!("expected {want}, found {}", found.type_name()))
        };
        let take_str = |pos: &mut usize| -> Result<String, KdbError> {
            match input.value(pos)? {
                Value::Str(s) => Ok(s),
                other => Err(wrong(*pos, "string", other)),
            }
        };
        let take_id = |pos: &mut usize| -> Result<DocId, KdbError> {
            match input.value(pos)? {
                Value::I64(v) if v >= 0 => Ok(v as DocId),
                other => Err(KdbError::Decode(*pos, format!("bad id {other:?}"))),
            }
        };
        let take_doc = |pos: &mut usize| -> Result<Document, KdbError> {
            match input.value(pos)? {
                Value::Doc(d) => Ok(d),
                other => Err(wrong(*pos, "document", other)),
            }
        };
        let tag = *bytes
            .get(*pos)
            .ok_or_else(|| KdbError::Decode(*pos, "end of journal".into()))?;
        *pos += 1;
        match tag {
            b'C' => Ok(Op::CreateCollection {
                name: take_str(pos)?,
            }),
            b'X' => Ok(Op::CreateIndex {
                name: take_str(pos)?,
                path: take_str(pos)?,
            }),
            b'I' => Ok(Op::Insert {
                name: take_str(pos)?,
                id: take_id(pos)?,
                doc: take_doc(pos)?,
            }),
            b'U' => Ok(Op::Update {
                name: take_str(pos)?,
                id: take_id(pos)?,
                doc: take_doc(pos)?,
            }),
            b'D' => Ok(Op::Delete {
                name: take_str(pos)?,
                id: take_id(pos)?,
            }),
            other => Err(KdbError::Decode(
                *pos - 1,
                format!("unknown op tag {:?}", other as char),
            )),
        }
    }
}

// ---------------------------------------------------------------------
// The CRC frame codec: `<tag><len>:<seq>:<crc32-hex>:<payload>`.
// ---------------------------------------------------------------------

/// The tag byte opening a journal record frame.
const RECORD_TAG: u8 = b'R';

/// Appends the frame for `payload` under `tag` (sequence `seq`) to
/// `out`: a journal record, or an ADAN1 wire message under tag `F`.
pub fn encode_frame(tag: u8, payload: &[u8], seq: u64, out: &mut Vec<u8>) {
    out.push(tag);
    let (len, crc) = (payload.len(), crc32(payload));
    write!(out, "{len}:{seq}:{crc:08x}:").expect("a Vec takes any write");
    out.extend_from_slice(payload);
}

/// Why a frame failed to decode: the input ended mid-frame (a torn
/// write — truncate, or wait for more bytes), a complete-looking frame
/// is wrong (corruption — report), or an otherwise-valid frame carries
/// the wrong sequence number (a gap — report, kept distinct so a
/// replication stream can tell a dropped frame from a flipped bit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameFail {
    /// The bytes end before the frame does.
    Torn,
    /// A malformed header, an over-cap length or a CRC mismatch: the
    /// offending field's offset from the frame's first byte, and why.
    Corrupt(usize, String),
    /// A verified frame with the wrong sequence number.
    Gap {
        /// The sequence number the frame carries.
        stored: u64,
        /// The sequence number the stream expected.
        expected: u64,
    },
}

impl FrameFail {
    /// Offset within the frame and description of a corrupt or gapped
    /// frame; `None` when the frame is merely torn.
    pub fn violation(self) -> Option<(usize, String)> {
        match self {
            FrameFail::Torn => None,
            FrameFail::Corrupt(at, reason) => Some((at, reason)),
            FrameFail::Gap { stored, expected } => Some((
                0,
                format!("sequence gap (stored {stored}, expected {expected})"),
            )),
        }
    }
}

/// Reads decimal digits up to a `:` separator. EOF while scanning is a
/// torn write; anything else malformed is corruption.
fn take_frame_number(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u64, FrameFail> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if *pos >= bytes.len() {
        return Err(FrameFail::Torn);
    }
    if bytes[*pos] != b':' || *pos == start || *pos - start > 19 {
        return Err(FrameFail::Corrupt(start, format!("malformed {what} field")));
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
    let n = text
        .parse::<u64>()
        .map_err(|_| FrameFail::Corrupt(start, format!("{what} out of range")))?;
    *pos += 1; // consume ':'
    Ok(n)
}

/// Decodes the frame at the front of `bytes`: tag, length (refused over
/// `max_len` before any payload byte is looked at; `usize::MAX` for no
/// cap), sequence, CRC32. Returns where the verified payload lies in
/// `bytes`; the frame ends where the payload does.
///
/// # Errors
/// Returns how the frame failed; see [`FrameFail`].
pub fn decode_frame(
    tag: u8,
    max_len: usize,
    bytes: &[u8],
    expect_seq: u64,
) -> Result<std::ops::Range<usize>, FrameFail> {
    let corrupt = FrameFail::Corrupt;
    let Some(&found) = bytes.first() else {
        return Err(FrameFail::Torn);
    };
    if found != tag {
        return Err(corrupt(0, format!("bad frame tag {:?}", found as char)));
    }
    let mut pos = 1usize;
    let len = take_frame_number(bytes, &mut pos, "length")? as usize;
    if len > max_len {
        return Err(corrupt(0, format!("length {len} exceeds cap {max_len}")));
    }
    let seq = take_frame_number(bytes, &mut pos, "sequence")?;
    if pos + 9 > bytes.len() {
        return Err(FrameFail::Torn);
    }
    let crc_text = std::str::from_utf8(&bytes[pos..pos + 8])
        .map_err(|_| corrupt(pos, "non-UTF-8 checksum".into()))?;
    let stored_crc = u32::from_str_radix(crc_text, 16)
        .map_err(|_| corrupt(pos, format!("bad checksum {crc_text:?}")))?;
    if bytes[pos + 8] != b':' {
        return Err(corrupt(pos + 8, "missing checksum separator".into()));
    }
    pos += 9;
    let Some(end) = pos.checked_add(len).filter(|&e| e <= bytes.len()) else {
        return Err(FrameFail::Torn);
    };
    let computed = crc32(&bytes[pos..end]);
    if computed != stored_crc {
        return Err(corrupt(
            0,
            format!("crc mismatch (stored {stored_crc:08x}, computed {computed:08x})"),
        ));
    }
    if seq != expect_seq {
        return Err(FrameFail::Gap {
            stored: seq,
            expected: expect_seq,
        });
    }
    Ok(pos..end)
}

/// Decodes the record frame at the front of `frame` — the checks of
/// [`decode_frame`], then the payload as exactly one [`Op`] — and
/// returns the op with the frame's byte length. Journal replay and
/// journal replication (`ada-fleet`, which receives the framed bytes a
/// chunk at a time) share it: a [`FrameFail::Torn`] tail there means
/// "feed more bytes and retry from the same position".
///
/// # Errors
/// Returns how the frame failed; see [`FrameFail`].
pub fn decode_record(frame: &[u8], expect_seq: u64) -> Result<(Op, usize), FrameFail> {
    let payload_at = decode_frame(RECORD_TAG, usize::MAX, frame, expect_seq)?;
    let payload = &frame[payload_at.clone()];
    let mut inner = 0usize;
    let op = Op::decode_prefix(payload, &mut inner)
        .map_err(|e| FrameFail::Corrupt(0, format!("payload invalid despite crc: {e}")))?;
    if inner != payload.len() {
        return Err(FrameFail::Corrupt(0, "payload has trailing bytes".into()));
    }
    Ok((op, payload_at.end))
}

/// A mid-file corruption localized by replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionReport {
    /// Byte offset of the corrupt record's frame start.
    pub offset: u64,
    /// Zero-based index of the corrupt record.
    pub record: usize,
    /// What was wrong (crc mismatch, sequence gap, …).
    pub reason: String,
}

/// The result of replaying a journal file.
#[derive(Debug)]
pub struct Replay {
    /// Successfully decoded operations, in order.
    pub ops: Vec<Op>,
    /// Byte offset of the first undecodable record (= file length when
    /// the journal is clean). Everything past it is torn or quarantined.
    pub valid_len: u64,
    /// Whether anything past `valid_len` must be truncated away.
    pub truncated: bool,
    /// Mid-file corruption salvaged under [`RecoveryMode::Salvage`]
    /// (`None` on clean or merely torn journals).
    pub corruption: Option<CorruptionReport>,
}

/// Decodes journal `bytes`, tolerating a torn final record; see
/// [`RecoveryMode`] for corruption handling. Bytes that do not start
/// with [`V2_MAGIC`] are corrupt at offset 0, unless they are empty or
/// a proper prefix of it (a crash while the journal was being created),
/// which replay as an empty journal with nothing valid to keep.
///
/// # Errors
/// Returns [`KdbError::Corrupt`] under [`RecoveryMode::Strict`] when
/// the journal is corrupt.
pub fn replay_bytes(bytes: &[u8], mode: RecoveryMode) -> Result<Replay, KdbError> {
    let mut replay = Replay {
        ops: Vec::new(),
        valid_len: V2_MAGIC.len() as u64,
        truncated: false,
        corruption: None,
    };
    let mut fail = None;
    if !bytes.starts_with(V2_MAGIC) {
        replay.valid_len = 0;
        replay.truncated = !bytes.is_empty();
        if V2_MAGIC.starts_with(bytes) {
            return Ok(replay);
        }
        fail = Some("not a journal: the file does not start with the magic".to_owned());
    }
    while fail.is_none() && (replay.valid_len as usize) < bytes.len() {
        match decode_record(&bytes[replay.valid_len as usize..], replay.ops.len() as u64) {
            Ok((op, len)) => {
                replay.ops.push(op);
                replay.valid_len += len as u64;
            }
            Err(frame) => {
                replay.truncated = true;
                match frame.violation() {
                    Some((_, reason)) => fail = Some(reason),
                    None => break,
                }
            }
        }
    }
    if let Some(reason) = fail {
        let report = CorruptionReport {
            offset: replay.valid_len,
            record: replay.ops.len(),
            reason,
        };
        if mode == RecoveryMode::Strict {
            return Err(KdbError::Corrupt {
                offset: report.offset,
                record: report.record,
                reason: report.reason,
            });
        }
        replay.corruption = Some(report);
    }
    Ok(replay)
}

/// Observer of journal appends, fsyncs, and compactions — the seam
/// journal replication hangs off ([`crate::SharedKdb::set_journal_tap`]).
///
/// Callbacks run while the journal lock is held, on the appending
/// thread: implementations must only enqueue (copy bytes, bump
/// atomics) and never block or call back into the store.
pub trait JournalTap: Send + Sync + std::fmt::Debug {
    /// A frame was written and flushed (not necessarily fsynced):
    /// `seq` is its sequence number, `frame` the exact on-disk bytes.
    fn frame_appended(&self, seq: u64, frame: &[u8]);

    /// A successful fsync covered every frame with sequence number
    /// below `durable_seq` (the absolute sequence-space watermark, not
    /// the since-open count — replication consumers and journal frames
    /// then share one op-numbering).
    fn synced(&self, durable_seq: u64);

    /// Snapshot compaction replaced the file wholesale: the stream
    /// restarts at sequence 0 with `ops` records. Consumers must
    /// re-bootstrap from the new image.
    fn rewritten(&self, ops: u64);
}

/// Reads and decodes a journal file from the real filesystem under
/// [`RecoveryMode::Strict`].
///
/// # Errors
/// Returns [`KdbError::Io`] on filesystem failures or
/// [`KdbError::Corrupt`] on mid-file corruption.
pub fn replay(path: &Path) -> Result<Replay, KdbError> {
    replay_with(&FileStorage, path, RecoveryMode::Strict)
}

/// [`replay`] through an arbitrary [`Storage`] backend.
///
/// # Errors
/// Returns [`KdbError::Io`] on storage failures or
/// [`KdbError::Corrupt`] on mid-file corruption in strict mode.
pub fn replay_with(
    storage: &dyn Storage,
    path: &Path,
    mode: RecoveryMode,
) -> Result<Replay, KdbError> {
    replay_bytes(&storage.read(path)?, mode)
}

/// An open journal writer: appends frames, and fsyncs when its owner
/// asks (see [`DurabilityPolicy`]).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    storage: Arc<dyn Storage>,
    file: Box<dyn StorageFile>,
    next_seq: u64,
    /// Ops appended (acknowledged) since open.
    appended: u64,
    /// Ops known fsynced since open.
    synced: u64,
    /// Set after a failed write: the file may hold a torn frame, so
    /// appending more would bury valid records behind garbage. All
    /// further appends fail fast until the journal is reopened (which
    /// truncates the torn tail).
    poisoned: Option<String>,
    /// Optional replication tap, invoked on appended frames, fsyncs,
    /// and rewrites. See [`JournalTap`].
    tap: Option<Arc<dyn JournalTap>>,
}

impl Journal {
    /// Opens (creating if needed) the journal for appending, continuing
    /// the caller's replay of it: `valid_len` is the replayed valid
    /// prefix (`None` for a file that does not exist yet) and
    /// `next_seq` the number of ops replayed. The file is not read
    /// again. A torn tail past `valid_len` is truncated and the
    /// truncation fsynced; a journal with no valid magic is (re)stamped.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] on storage failures.
    pub fn open_with(
        storage: Arc<dyn Storage>,
        path: &Path,
        valid_len: Option<u64>,
        next_seq: u64,
    ) -> Result<Self, KdbError> {
        let mut file = storage.open_append(path, valid_len)?;
        if valid_len.is_some() {
            // A torn tail was truncated away: make the truncation
            // itself durable before acknowledging new appends.
            file.sync()?;
        }
        if valid_len.unwrap_or(0) == 0 {
            // New file, or one a crash left without a whole magic.
            file.append(V2_MAGIC)?;
            file.flush()?;
        }
        Ok(Self {
            path: path.to_path_buf(),
            storage,
            file,
            next_seq,
            appended: 0,
            synced: 0,
            poisoned: None,
            tap: None,
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Ops appended (acknowledged) since this journal was opened.
    pub fn acked_ops(&self) -> u64 {
        self.appended
    }

    /// Ops known durable (covered by a successful fsync) since open.
    pub fn durable_ops(&self) -> u64 {
        self.synced
    }

    /// Why this journal refuses appends, if a failed write poisoned it.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Installs (or removes) the [`JournalTap`] observing this journal.
    pub fn set_tap(&mut self, tap: Option<Arc<dyn JournalTap>>) {
        self.tap = tap;
    }

    /// The journal file's current on-disk bytes (magic + frame stream).
    /// Every acknowledged append is visible: appends flush before they
    /// are acknowledged.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] when the backing file is unreadable.
    pub fn image(&self) -> Result<Vec<u8>, KdbError> {
        self.storage.read(&self.path)
    }

    /// Appends one op as one frame and flushes it to the OS; whether
    /// and when it is fsynced is the caller's decision ([`Journal::sync`]).
    /// A failed write leaves the journal without the record (any torn
    /// prefix is truncated at the next open) and poisons it.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] on write failures.
    pub fn append(&mut self, op: &Op) -> Result<(), KdbError> {
        if let Some(reason) = &self.poisoned {
            return Err(KdbError::Io(format!("journal poisoned: {reason}")));
        }
        let mut payload = String::new();
        op.encode_into(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 40);
        encode_frame(RECORD_TAG, payload.as_bytes(), self.next_seq, &mut frame);
        if let Err(e) = self.file.append(&frame).and_then(|()| self.file.flush()) {
            // The record may be partially on disk; refuse further
            // appends so replay-valid frames never follow a torn one.
            self.poisoned = Some(e.to_string());
            return Err(e);
        }
        if let Some(tap) = &self.tap {
            tap.frame_appended(self.next_seq, &frame);
        }
        self.next_seq += 1;
        self.appended += 1;
        Ok(())
    }

    /// Forces an fsync, acknowledging every appended op as durable.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] when the flush or fsync fails.
    pub fn sync(&mut self) -> Result<(), KdbError> {
        self.file.sync()?;
        self.synced = self.appended;
        if let Some(tap) = &self.tap {
            // Everything appended is now durable: the absolute durable
            // watermark is the next sequence number to be assigned.
            tap.synced(self.next_seq);
        }
        Ok(())
    }

    /// Atomically replaces the journal contents with the given op
    /// sequence (snapshot compaction): writes a temp file, fsyncs it,
    /// renames over the original, and fsyncs the parent directory so
    /// the rename itself survives a crash.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] on storage failures. A failed rewrite
    /// poisons the journal (the append handle may point at a replaced
    /// file); reopening recovers whichever image the rename left behind.
    pub fn rewrite(&mut self, ops: &[Op]) -> Result<(), KdbError> {
        self.do_rewrite(ops).inspect_err(|e| {
            self.poisoned = Some(format!("rewrite failed: {e}"));
        })
    }

    /// [`Journal::rewrite`] for a replication replica being rebuilt
    /// from a shipped image: atomically replaces the file with `ops`
    /// **and** restarts the acked/durable accounting at `ops.len()`.
    /// The rewritten image is fsynced before the rename, so every op it
    /// holds is durable — unlike `rewrite`, which keeps the historic
    /// since-open counters, this makes the counters equal the absolute
    /// sequence watermark a fresh follower's accounting assumes.
    ///
    /// # Errors
    /// As [`Journal::rewrite`].
    pub fn reset_to(&mut self, ops: &[Op]) -> Result<(), KdbError> {
        self.rewrite(ops)?;
        self.appended = ops.len() as u64;
        self.synced = self.appended;
        Ok(())
    }

    fn do_rewrite(&mut self, ops: &[Op]) -> Result<(), KdbError> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut w = self.storage.create(&tmp)?;
            let mut frame = Vec::with_capacity(4096);
            frame.extend_from_slice(V2_MAGIC);
            let mut payload = String::new();
            for (seq, op) in ops.iter().enumerate() {
                payload.clear();
                op.encode_into(&mut payload);
                encode_frame(RECORD_TAG, payload.as_bytes(), seq as u64, &mut frame);
                if frame.len() >= 1 << 16 {
                    w.append(&frame)?;
                    frame.clear();
                }
            }
            w.append(&frame)?;
            w.sync()?;
        }
        self.storage.rename(&tmp, &self.path)?;
        self.storage.sync_dir(&self.path)?;
        self.file = self.storage.open_append(&self.path, None)?;
        self.next_seq = ops.len() as u64;
        // A compaction replaces the file wholesale, so any torn tail
        // that poisoned the old image is gone.
        self.poisoned = None;
        if let Some(tap) = &self.tap {
            tap.rewritten(ops.len() as u64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn ops_sample() -> Vec<Op> {
        vec![
            Op::CreateCollection {
                name: "items".into(),
            },
            Op::CreateIndex {
                name: "items".into(),
                path: "kind".into(),
            },
            Op::Insert {
                name: "items".into(),
                id: 1,
                doc: Document::new().with("kind", "cluster").with("s", 0.5f64),
            },
            Op::Update {
                name: "items".into(),
                id: 1,
                doc: Document::new().with("kind", "pattern"),
            },
            Op::Delete {
                name: "items".into(),
                id: 1,
            },
        ]
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-table, one-byte-per-step CRC the sliced loop replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b)) ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_bytewise_for_every_short_length() {
        // Every length 0..=64 covers every chunk count × tail length
        // around the 16-byte step, at every start alignment of the slice.
        let pool: Vec<u8> = (0..80u32)
            .map(|i| (i.wrapping_mul(167) >> 1) as u8)
            .collect();
        for start in 0..CRC_SLICE {
            for len in 0..=64 {
                let bytes = &pool[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn sliced_crc32_equals_bytewise_on_a_mebibyte() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..1 << 20)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    proptest::proptest! {
        #[test]
        fn sliced_crc32_equals_bytewise_on_long_inputs_at_every_alignment(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 64..4096),
        ) {
            for start in 0..CRC_SLICE {
                proptest::prop_assert_eq!(
                    crc32(&bytes[start..]),
                    crc32_bytewise(&bytes[start..])
                );
            }
        }
    }

    /// The system's two framed streams: journal records (uncapped) and
    /// ADAN1 wire messages (16 MiB cap). One codec, so one suite.
    const CODECS: [(u8, usize); 2] = [(b'R', usize::MAX), (b'F', 16 << 20)];

    fn frame(tag: u8, payload: &[u8], seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(tag, payload, seq, &mut out);
        out
    }

    fn payloads() -> [Vec<u8>; 4] {
        let kb5 = (0..5000u32).map(|i| (i * 31 % 251) as u8).collect();
        [
            Vec::new(),
            b"x".to_vec(),
            b"forty bytes of payload, more or less ...".to_vec(),
            kb5,
        ]
    }

    #[test]
    fn frame_bytes_equal_the_golden_ones() {
        // Headers captured from the last commit that had two encoders;
        // the CRC in each pins its payload.
        let [empty, one, _, kb5] = payloads();
        let golden: [(&[u8], u64, &str); 5] = [
            (&empty, 0, "0:0:00000000:"),
            (&one, 0, "1:0:8cdc1683:"),
            (&one, u64::MAX, "1:18446744073709551615:8cdc1683:"),
            (&kb5, 7, "5000:7:510c4bc5:"),
            (&empty, u64::MAX, "0:18446744073709551615:00000000:"),
        ];
        for (tag, _) in CODECS {
            for (payload, seq, header) in golden {
                let want = [&[tag][..], header.as_bytes(), payload].concat();
                assert_eq!(frame(tag, payload, seq), want, "{} {header}", tag as char);
            }
        }
    }

    #[test]
    fn a_whole_frame_decodes_and_every_byte_cut_of_it_is_torn() {
        for (tag, cap) in CODECS {
            for payload in payloads() {
                let bytes = frame(tag, &payload, 3);
                let at = decode_frame(tag, cap, &bytes, 3).expect("whole frame");
                assert_eq!((&bytes[at.clone()], at.end), (&payload[..], bytes.len()));
                for cut in 0..bytes.len() {
                    let got = decode_frame(tag, cap, &bytes[..cut], 3);
                    assert_eq!(got, Err(FrameFail::Torn), "{} cut {cut}", tag as char);
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_corrupt_or_a_gap_never_another_payload() {
        for (tag, cap) in CODECS {
            for payload in &payloads()[..3] {
                let clean = frame(tag, payload, 0);
                // Filler behind the frame, so a flipped length digit
                // that claims more bytes finds them (and fails its CRC)
                // instead of reading as a torn tail.
                let stream = [&clean[..], &[b'~'; 128]].concat();
                let seq_field = clean.iter().position(|&b| b == b':').unwrap() + 1;
                for bit in 0..clean.len() * 8 {
                    let mut bytes = stream.clone();
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    match decode_frame(tag, cap, &bytes, 0) {
                        Err(FrameFail::Corrupt(..)) => {}
                        // Only a sequence digit flipped into another
                        // digit leaves a frame that verifies.
                        Err(FrameFail::Gap { expected: 0, .. }) if bit / 8 == seq_field => {}
                        // The checksum is parsed as hex of either case,
                        // so one flip spells the same value: 'c' -> 'C'.
                        Ok(at) if bytes[bit / 8].is_ascii_uppercase() => {
                            assert_eq!(&bytes[at], &payload[..]);
                        }
                        other => panic!("{} bit {bit}: {other:?}", tag as char),
                    }
                }
            }
        }
    }

    #[test]
    fn a_wrong_sequence_number_is_a_gap_not_corruption() {
        for (tag, cap) in CODECS {
            let got = decode_frame(tag, cap, &frame(tag, b"payload", 9), 8);
            let gap = FrameFail::Gap {
                stored: 9,
                expected: 8,
            };
            assert_eq!(got, Err(gap.clone()));
            let reason = "sequence gap (stored 9, expected 8)".to_string();
            assert_eq!(gap.violation(), Some((0, reason)));
        }
    }

    #[test]
    fn a_length_over_the_cap_fails_before_any_payload_arrives() {
        let header = b"F16777217:";
        let got = decode_frame(b'F', 16 << 20, header, 0);
        assert!(
            matches!(&got, Err(FrameFail::Corrupt(0, reason)) if reason.contains("exceeds cap")),
            "{got:?}"
        );
        assert_eq!(
            decode_frame(b'F', usize::MAX, header, 0),
            Err(FrameFail::Torn)
        );
    }

    #[test]
    fn op_encode_decode_round_trip() {
        for op in ops_sample() {
            let mut buf = String::new();
            op.encode_into(&mut buf);
            let mut pos = 0usize;
            let back = Op::decode_prefix(buf.as_bytes(), &mut pos).unwrap();
            assert_eq!(back, op);
            assert_eq!(pos, buf.len());
        }
    }

    /// A fresh journal `j` over `mem` holding `ops`.
    fn written(mem: &MemStorage, ops: &[Op]) -> Journal {
        let mut j = Journal::open_with(Arc::new(mem.clone()), Path::new("j"), None, 0).unwrap();
        for op in ops {
            j.append(op).unwrap();
        }
        j
    }

    #[test]
    fn journal_append_and_replay() {
        let mem = MemStorage::new();
        written(&mem, &ops_sample());
        let replayed = replay_with(&mem, Path::new("j"), RecoveryMode::Strict).unwrap();
        assert_eq!(replayed.ops, ops_sample());
        assert!(!replayed.truncated);
    }

    #[test]
    fn torn_tail_is_detected_and_valid_prefix_kept() {
        let mem = MemStorage::new();
        let path = Path::new("j");
        written(&mem, &ops_sample());
        // Simulate a crash mid-write: chop off the last 3 bytes.
        let full = mem.bytes(path).unwrap();
        mem.install(path, full[..full.len() - 3].to_vec());
        let replayed = replay_with(&mem, path, RecoveryMode::Strict).unwrap();
        assert!(replayed.truncated);
        assert!(replayed.corruption.is_none(), "torn, not corrupt");
        assert_eq!(replayed.ops, ops_sample()[..4].to_vec());
        assert!(replayed.valid_len < full.len() as u64 - 3);
        // Re-opening at the valid length truncates; further appends
        // produce a clean journal again.
        {
            let valid = Some(replayed.valid_len);
            let mut j = Journal::open_with(Arc::new(mem.clone()), path, valid, 4).unwrap();
            j.append(&ops_sample()[4]).unwrap();
        }
        let again = replay_with(&mem, path, RecoveryMode::Strict).unwrap();
        assert!(!again.truncated);
        assert_eq!(again.ops, ops_sample());
    }

    #[test]
    fn mid_file_corruption_is_localized_not_truncated() {
        let mem = MemStorage::new();
        let path = Path::new("j");
        written(&mem, &ops_sample());
        let mut bytes = mem.bytes(path).unwrap();
        // Find the second frame and flip a payload byte inside it.
        let clean = replay_bytes(&bytes, RecoveryMode::Strict).unwrap();
        assert_eq!(clean.ops.len(), 5);
        let target = bytes.len() / 2;
        bytes[target] ^= 0x40;
        mem.install(path, bytes.clone());

        let strict = replay_with(&mem, path, RecoveryMode::Strict);
        let err = strict.expect_err("corruption must be loud in strict mode");
        let KdbError::Corrupt {
            offset,
            record,
            reason,
        } = &err
        else {
            panic!("expected Corrupt, got {err:?}");
        };
        assert!(*offset < bytes.len() as u64);
        assert!(*record < 5);
        assert!(!reason.is_empty());

        let salvage = replay_with(&mem, path, RecoveryMode::Salvage).unwrap();
        let report = salvage.corruption.expect("salvage reports the corruption");
        assert_eq!(report.offset, *offset);
        assert_eq!(report.record, *record);
        assert!(salvage.truncated);
        assert_eq!(salvage.ops.len(), *record, "valid prefix recovered");
        assert_eq!(salvage.ops[..], ops_sample()[..*record]);
    }

    #[test]
    fn bytes_without_the_magic_are_corrupt_at_offset_zero() {
        // A frame stream that lost its magic, and two files that never
        // had one.
        let mut payload = String::new();
        ops_sample()[0].encode_into(&mut payload);
        let mut framed = Vec::new();
        encode_frame(RECORD_TAG, payload.as_bytes(), 0, &mut framed);
        for bytes in [&framed[..], b"not a journal", b"ADAJ1\n"] {
            let err = replay_bytes(bytes, RecoveryMode::Strict).unwrap_err();
            assert!(
                matches!(
                    err,
                    KdbError::Corrupt {
                        offset: 0,
                        record: 0,
                        ..
                    }
                ),
                "{err:?}"
            );
            let salvage = replay_bytes(bytes, RecoveryMode::Salvage).unwrap();
            assert_eq!(
                salvage.corruption.map(|c| (c.offset, c.record)),
                Some((0, 0))
            );
            assert_eq!((salvage.ops.len(), salvage.valid_len), (0, 0));
        }
        for cut in 0..V2_MAGIC.len() {
            let replayed = replay_bytes(&V2_MAGIC[..cut], RecoveryMode::Strict).unwrap();
            assert_eq!(
                (replayed.ops.len(), replayed.valid_len),
                (0, 0),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn rewrite_compacts_atomically() {
        let mem = MemStorage::new();
        let mut j = written(&mem, &ops_sample());
        let compacted = vec![Op::CreateCollection {
            name: "items".into(),
        }];
        j.rewrite(&compacted).unwrap();
        // Appends after rewrite land after the compacted content.
        j.append(&ops_sample()[2]).unwrap();
        drop(j);
        let replayed = replay_with(&mem, Path::new("j"), RecoveryMode::Strict).unwrap();
        assert_eq!(replayed.ops.len(), 2);
        assert_eq!(replayed.ops[0], compacted[0]);
    }

    #[test]
    fn ops_with_newlines_in_strings_survive() {
        let op = Op::Insert {
            name: "items".into(),
            id: 7,
            doc: Document::new().with("note", "line one\nline two\nC fake op"),
        };
        let mut buf = String::new();
        op.encode_into(&mut buf);
        let mut pos = 0;
        assert_eq!(Op::decode_prefix(buf.as_bytes(), &mut pos).unwrap(), op);
    }
}

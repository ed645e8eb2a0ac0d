//! Error type for the K-DB.

use std::fmt;

/// Errors produced by the document store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KdbError {
    /// The named collection does not exist.
    UnknownCollection(String),
    /// A collection with this name already exists.
    CollectionExists(String),
    /// No document with the given id.
    UnknownDocument(u64),
    /// A document with the given id already exists.
    DuplicateDocument(u64),
    /// An index on this path already exists.
    IndexExists(String),
    /// Malformed canonical encoding: (byte offset, reason).
    Decode(usize, String),
    /// Malformed journal entry: (line number, reason).
    Journal(usize, String),
    /// Mid-file journal corruption localized to a record.
    Corrupt {
        /// Byte offset of the corrupt record's frame start.
        offset: u64,
        /// Zero-based index of the corrupt record.
        record: usize,
        /// What failed (crc mismatch, sequence gap, …).
        reason: String,
    },
    /// A document violated a typed schema contract (reason).
    Schema(String),
    /// Underlying I/O failure (stringified to keep the error comparable).
    Io(String),
}

impl fmt::Display for KdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownCollection(name) => write!(f, "unknown collection {name:?}"),
            Self::CollectionExists(name) => write!(f, "collection {name:?} already exists"),
            Self::UnknownDocument(id) => write!(f, "unknown document id {id}"),
            Self::DuplicateDocument(id) => write!(f, "document id {id} already exists"),
            Self::IndexExists(path) => write!(f, "index on {path:?} already exists"),
            Self::Decode(offset, reason) => {
                write!(f, "decode error at byte {offset}: {reason}")
            }
            Self::Journal(line, reason) => write!(f, "journal error at line {line}: {reason}"),
            Self::Corrupt {
                offset,
                record,
                reason,
            } => write!(
                f,
                "journal corrupt at byte {offset} (record {record}): {reason}"
            ),
            Self::Schema(reason) => write!(f, "schema violation: {reason}"),
            Self::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for KdbError {}

impl From<std::io::Error> for KdbError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

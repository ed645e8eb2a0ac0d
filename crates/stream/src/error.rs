//! Typed streaming errors.

use ada_kdb::KdbError;

/// Everything that can go wrong inside the streaming layer.
#[derive(Debug)]
pub enum StreamError {
    /// A checkpoint read or write against K-DB failed.
    Kdb(KdbError),
    /// Durable checkpoints disagree with the replayed state — the
    /// store was written by a different configuration (or corrupted
    /// behind our back). Resuming would silently fork history, so the
    /// open is refused instead.
    Corrupt(String),
    /// The stream's handle was closed (the service is stopping) before
    /// the operation could be queued.
    Closed,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Kdb(e) => write!(f, "stream checkpoint store error: {e}"),
            StreamError::Corrupt(msg) => write!(f, "stream checkpoint corrupt: {msg}"),
            StreamError::Closed => write!(f, "stream closed"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Kdb(e) => Some(e),
            StreamError::Corrupt(_) | StreamError::Closed => None,
        }
    }
}

impl From<KdbError> for StreamError {
    fn from(e: KdbError) -> Self {
        StreamError::Kdb(e)
    }
}

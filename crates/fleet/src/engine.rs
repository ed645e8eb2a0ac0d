//! The follower's replication core, transport-free.
//!
//! [`ReplicaEngine`] owns the read-only replica's [`SharedKdb`] and a
//! [`ReplStream`], and turns shipped bytes into applied state:
//! bootstrap from a journal image, then feed live frames. A
//! [`ReplMsg::Snapshot`] is **authoritative**: the replica is rebuilt
//! wholesale to exactly the shipped image
//! ([`SharedKdb::reset_replica`]), never prefix-extended — so a
//! post-compaction image, whose op indexes live in a restarted
//! sequence space, installs correctly no matter what the follower held
//! before. Live frames go through [`SharedKdb::apply_replicated`] — the
//! normal check → append → apply write path — so the follower journals
//! the stream locally exactly as a primary journals its writes, and a
//! clean replicated journal is byte-identical to the source's.
//!
//! The engine is deliberately transport-agnostic: `fleet_torture`
//! drives it through in-memory links with seeded kills and partitions,
//! and the TCP endpoints in [`crate::ship`] drive the same code over
//! real sockets. One apply path, two harnesses.

use std::sync::Arc;

use ada_kdb::journal::{replay_bytes, RecoveryMode};
use ada_kdb::{KdbError, SharedKdb};
use ada_obs::ReplMetrics;

use crate::stream::{ReplStream, StreamFault};
use crate::wire::ReplMsg;

/// Why replication halted. `Stream` faults (gap/corruption) are sticky
/// and require a re-bootstrap; `Apply`/`Bootstrap` mean the replica's
/// state diverged or its own storage failed — never papered over.
#[derive(Debug)]
pub enum ReplError {
    /// The shipped stream gapped or corrupted (see [`StreamFault`]).
    Stream(StreamFault),
    /// A verified op failed to apply to the local store.
    Apply(KdbError),
    /// The bootstrap image failed verification.
    Bootstrap(String),
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Stream(fault) => write!(f, "{fault}"),
            ReplError::Apply(e) => write!(f, "replicated apply failed: {e}"),
            ReplError::Bootstrap(reason) => write!(f, "bootstrap rejected: {reason}"),
        }
    }
}

impl std::error::Error for ReplError {}

/// A warm standby's replication state machine.
#[derive(Debug)]
pub struct ReplicaEngine {
    kdb: SharedKdb,
    stream: ReplStream,
    metrics: Arc<ReplMetrics>,
    /// Ops applied from the primary's stream (bootstrap included).
    applied: u64,
    /// Lineage epoch of the image this replica was bootstrapped from
    /// (0 until the first snapshot). Echoed in `Hello` so the primary
    /// can tell whether a frame suffix still extends our state.
    source_epoch: u64,
    /// The primary's advertised durable watermark.
    source_durable: u64,
    /// Whether the sticky stream fault was already counted in the
    /// reject metrics (it re-surfaces on every later call).
    fault_counted: bool,
}

impl ReplicaEngine {
    /// Wraps a replica store (expected empty; bootstrap fills it).
    pub fn new(kdb: SharedKdb, metrics: Arc<ReplMetrics>) -> Self {
        Self {
            kdb,
            stream: ReplStream::new(),
            metrics,
            applied: 0,
            source_epoch: 0,
            source_durable: 0,
            fault_counted: false,
        }
    }

    /// The replica's store (for read-only queries and promotion).
    pub fn kdb(&self) -> &SharedKdb {
        &self.kdb
    }

    /// Ops applied from the primary so far.
    pub fn applied_ops(&self) -> u64 {
        self.applied
    }

    /// Lineage epoch of the last bootstrap image (0 before the first).
    pub fn source_epoch(&self) -> u64 {
        self.source_epoch
    }

    /// Drops any partially buffered frame bytes and clears a sticky
    /// stream fault, keeping the applied state. Call when a transport
    /// connection dies: the torn tail of the old connection must not
    /// corrupt the byte stream of the next one.
    pub fn resync(&mut self) {
        self.stream.reset(self.applied);
        self.fault_counted = false;
    }

    /// The primary's last advertised durable watermark.
    pub fn source_durable(&self) -> u64 {
        self.source_durable
    }

    /// The watermark this follower may ack: ops both applied from the
    /// stream and fsync-durable in the follower's own journal.
    pub fn acked_ops(&self) -> u64 {
        self.applied.min(self.kdb.journal_durable_ops())
    }

    /// Forces a local fsync so everything applied becomes ackable.
    ///
    /// # Errors
    /// The local fsync's [`KdbError`].
    pub fn sync(&self) -> Result<u64, KdbError> {
        self.kdb.sync()?;
        let acked = self.acked_ops();
        self.metrics.set_follower_acked(acked);
        Ok(acked)
    }

    /// Verifies a journal image under strict recovery and rebuilds the
    /// replica to be **exactly** that image, discarding whatever the
    /// replica held before ([`SharedKdb::reset_replica`]). Returns the
    /// new applied watermark — `image`'s op count, which may be *lower*
    /// than the previous watermark when the primary compacted. This is
    /// what makes post-compaction re-bootstrap safe: the image's op
    /// indexes live in a restarted sequence space, so prefix-extending
    /// against the old applied count would skip or double-apply ops.
    ///
    /// `epoch` is the image's lineage epoch, echoed in later `Hello`s.
    ///
    /// # Errors
    /// [`ReplError::Bootstrap`] when the image is torn or corrupt;
    /// [`ReplError::Apply`] when an op does not apply (the replica is
    /// left unchanged — validation happens before installation).
    pub fn bootstrap(&mut self, epoch: u64, image: &[u8]) -> Result<u64, ReplError> {
        let replay = replay_bytes(image, RecoveryMode::Strict)
            .map_err(|e| ReplError::Bootstrap(e.to_string()))?;
        if replay.truncated {
            return Err(ReplError::Bootstrap(
                "image has a torn tail; a shipped snapshot must be whole".into(),
            ));
        }
        self.kdb
            .reset_replica(&replay.ops)
            .map_err(ReplError::Apply)?;
        self.applied = replay.ops.len() as u64;
        self.source_epoch = epoch;
        for _ in &replay.ops {
            self.metrics.frame_applied();
        }
        self.stream.reset(self.applied);
        self.fault_counted = false;
        Ok(self.applied)
    }

    /// Consumes one replication message. Returns the number of newly
    /// applied ops (only `Frame`/`Snapshot`/`CatchUp` can be non-zero).
    ///
    /// # Errors
    /// A sticky [`ReplError::Stream`] (counted in the gap/corrupt
    /// reject metrics), or [`ReplError::Apply`]/[`ReplError::Bootstrap`].
    pub fn consume(&mut self, msg: &ReplMsg) -> Result<u64, ReplError> {
        match msg {
            ReplMsg::Frame { bytes } => self.feed(bytes),
            ReplMsg::Snapshot { epoch, image } => {
                let before = self.applied;
                // A compacted image can hold fewer ops than we had
                // applied — the watermark legitimately regresses.
                self.bootstrap(*epoch, image)
                    .map(|after| after.saturating_sub(before))
            }
            ReplMsg::CatchUp { from, bytes } => {
                if *from != self.applied {
                    return Err(ReplError::Bootstrap(format!(
                        "catch-up starts at {from} but {} applied",
                        self.applied
                    )));
                }
                self.resync();
                self.feed(bytes)
            }
            ReplMsg::Durable { seq } => {
                self.source_durable = self.source_durable.max(*seq);
                self.metrics.set_source_durable(self.source_durable);
                Ok(0)
            }
            ReplMsg::Reset { .. }
            | ReplMsg::Hello { .. }
            | ReplMsg::Ack { .. }
            | ReplMsg::Reject { .. } => Ok(0),
        }
    }

    /// Buffers shipped frame bytes and applies every complete verified
    /// frame. Returns the number of ops applied by this call.
    ///
    /// # Errors
    /// See [`ReplicaEngine::consume`].
    pub fn feed(&mut self, bytes: &[u8]) -> Result<u64, ReplError> {
        self.stream.push(bytes);
        let mut applied = 0;
        loop {
            match self.stream.next_op() {
                Ok(Some(op)) => {
                    self.kdb.apply_replicated(op).map_err(ReplError::Apply)?;
                    self.applied += 1;
                    applied += 1;
                    self.metrics.frame_applied();
                }
                Ok(None) => return Ok(applied),
                Err(fault) => {
                    if !self.fault_counted {
                        self.fault_counted = true;
                        match &fault {
                            StreamFault::Gap { .. } => self.metrics.gap_rejected(),
                            StreamFault::Corrupt { .. } => self.metrics.corrupt_rejected(),
                        }
                    }
                    return Err(ReplError::Stream(fault));
                }
            }
        }
    }

    /// The state fingerprint of the replica (FNV-1a over canonical op
    /// encodings — comparable with the primary's).
    pub fn fingerprint(&self) -> u64 {
        self.kdb.read().fingerprint()
    }
}

//! # ada-fleet
//!
//! Replicated fleet for ADA-HEALTH: journal shipping, warm-standby
//! failover, and consistent-hash session routing.
//!
//! The paper's service analyses one hospital's data on one box. A
//! production deployment cannot afford that box being a single point of
//! failure, so this crate turns the single-node service into a small
//! replicated fleet built directly on the K-DB v2 journal:
//!
//! * [`stream`] — [`ReplStream`], the follower's sticky frame decoder:
//!   shipped journal bytes in, CRC-verified [`ada_kdb::journal::Op`]s
//!   out. Sequence gaps and corruption are classified with absolute
//!   byte offsets and are *sticky* — nothing past a fault is ever
//!   applied until a re-bootstrap resets the stream.
//! * [`wire`] — [`ReplMsg`], the replication message codec (eight
//!   messages: `Hello`, `Snapshot`, `CatchUp`, `Frame`, `Durable`,
//!   `Ack`, `Reset`, `Reject`). Payloads ride inside ADAN1 frames;
//!   journal frames ship *verbatim*, so the bytes the follower verifies
//!   are the bytes the primary fsynced. `Hello`/`Snapshot` carry a
//!   lineage epoch that tells re-bootstrap (compaction restarted the
//!   sequence space → full authoritative image) apart from catch-up
//!   (same lineage → just the missed frame suffix).
//! * [`source`] — [`ReplSource`], the primary's journal tap: appends,
//!   fsync watermarks, and compactions become an ordered, bounded
//!   message queue. Overflow collapses to a re-bootstrap marker and is
//!   *sticky*: frames keep being dropped until the shipper serves the
//!   follower's re-`Hello`, so a half-recovered follower can never be
//!   fed a stream with a hole in it.
//! * [`engine`] — [`ReplicaEngine`], the transport-free follower core:
//!   install a journal image **wholesale** (a snapshot is
//!   authoritative — safe even when compaction shrank the journal),
//!   apply live frames through the replica's own shard + group-commit
//!   machinery, ack at the local fsync watermark. `fleet_torture`
//!   drives this directly.
//! * [`ship`] — [`ReplListener`] / [`ReplFollower`], the TCP endpoints
//!   that move the same messages over real sockets with reconnect,
//!   re-bootstrap, suffix catch-up, and rejection of surplus followers.
//! * [`router`] — [`Router`], consistent-hash session placement with
//!   `Busy.retry_after` load feedback, health probes, and deterministic
//!   primary failover.
//! * [`node`] — [`FleetNode`], one deployable member: analysis service,
//!   ADAN1 front-end, and replication role bundled behind a single
//!   Prometheus exposition.
//!
//! The invariant the whole crate defends: **a promoted follower is an
//! exact, acked prefix of the failed primary** — same ops, same
//! document ids, byte-identical journal, equal state fingerprint — and
//! a corrupt or gapped stream is always detected and never applied.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod node;
pub mod router;
pub mod ship;
pub mod source;
pub mod stream;
pub mod wire;

pub use engine::{ReplError, ReplicaEngine};
pub use node::FleetNode;
pub use router::{Role, Router};
pub use ship::{ReplFollower, ReplListener};
pub use source::ReplSource;
pub use stream::{ReplStream, StreamFault};
pub use wire::{ReplMsg, WireFault};

//! # ada-kdb
//!
//! Embedded document store: the **K-DB** substrate of ADA-HEALTH.
//!
//! The paper "designed and implemented a preliminary version of the K-DB
//! on a cluster of MongoDBs", holding six collections: (1) the original
//! dataset, (2) the transformed dataset, (3) statistical descriptors,
//! (4–5) interesting/selected knowledge items from different mining
//! algorithms, and (6) user interaction feedbacks. MongoDB is used purely
//! as a document container, so this crate substitutes a from-scratch
//! embedded store that exercises the same operations:
//!
//! * [`document`] — a BSON-like dynamic [`Value`]/[`Document`] model with
//!   a length-prefixed canonical encoding (round-trip tested);
//! * [`query`] — a composable filter AST (`Eq`/`Gt`/`In`/`And`/`Or`/…)
//!   evaluated against documents, with dotted-path field access;
//! * [`collection`] + [`index`] — insert/get/update/delete, filtered
//!   scans, and secondary ordered indexes that accelerate equality and
//!   range filters;
//! * [`store`] — a named-collection database with append-only
//!   [`journal`] persistence, snapshot compaction and crash recovery;
//! * [`sharded`] — the concurrent face of the store: [`SharedKdb`]
//!   shards the write path per collection and group-commits the
//!   journal so independent sessions fsync together;
//! * [`schema`] — the six ADA-HEALTH collections with typed helpers.
//!
//! Thread safety: wrap a [`Kdb`] in [`SharedKdb::new`] when sharing
//! across the optimizer's worker threads. The facade takes no global
//! lock: writers lock only the shard (collection) they touch, durability
//! is settled by a shared group committer (one fsync covers every
//! concurrently acked op), and [`SharedKdb::read`] hands back an
//! immutable [`KdbSnapshot`] — per-collection images, taken on first
//! access and sharing every document with the live store, that never
//! block behind a committing writer. Exclusive single-threaded use can
//! keep working with a plain [`Kdb`]; code generic over both goes
//! through the [`KdbRead`]/[`KdbWrite`] traits.

#![warn(missing_docs)]

pub mod collection;
pub mod document;
pub mod index;
pub mod journal;
pub mod query;
pub mod schema;
pub mod sharded;
pub mod storage;
pub mod store;

mod error;

pub use collection::{Collection, DocId};
pub use document::{Document, Value};
pub use error::KdbError;
pub use journal::{CorruptionReport, DurabilityPolicy, JournalTap, JournalVersion, RecoveryMode};
pub use query::Filter;
pub use sharded::{
    CommitObserver, CommitRole, GroupCommitSnapshot, KdbRead, KdbSnapshot, KdbWrite, KdbWriter,
    SharedKdb,
};
pub use storage::{FaultHandle, FaultKind, FaultyStorage, FileStorage, MemStorage, Storage};
pub use store::{fingerprint_ops, Kdb, StoreOptions};

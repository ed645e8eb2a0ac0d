//! The K-DB database object: named collections + optional journal.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::collection::{Collection, DocId};
use crate::document::Document;
use crate::error::KdbError;
use crate::journal::{replay_bytes, CorruptionReport, DurabilityPolicy, Journal, Op, RecoveryMode};
use crate::query::Filter;
use crate::storage::{FileStorage, Storage};

/// How a [`Kdb`] opens its journal: which storage backend, when the
/// store fsyncs, and how to react to corruption.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Storage backend (real filesystem by default; swap in
    /// [`crate::storage::MemStorage`] or [`crate::storage::FaultyStorage`]
    /// in tests).
    pub storage: Arc<dyn Storage>,
    /// When the store fsyncs appended ops.
    pub durability: DurabilityPolicy,
    /// Strict (fail loudly) or salvage (recover prefix + quarantine)
    /// on mid-file corruption.
    pub recovery: RecoveryMode,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            storage: Arc::new(FileStorage),
            durability: DurabilityPolicy::default(),
            recovery: RecoveryMode::default(),
        }
    }
}

impl StoreOptions {
    /// Options over a specific storage backend.
    pub fn with_storage(storage: Arc<dyn Storage>) -> Self {
        Self {
            storage,
            ..Self::default()
        }
    }

    /// Sets the durability policy.
    #[must_use]
    pub fn durability(mut self, durability: DurabilityPolicy) -> Self {
        self.durability = durability;
        self
    }

    /// Sets the corruption recovery mode.
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryMode) -> Self {
        self.recovery = recovery;
        self
    }
}

/// A document database of named collections.
///
/// All mutations go through [`Kdb`] methods so they can be journaled;
/// reads can also borrow a [`Collection`] directly via
/// [`Kdb::collection`].
///
/// ```
/// use ada_kdb::{Document, Filter, Kdb};
///
/// let mut db = Kdb::in_memory();
/// db.create_collection("items").unwrap();
/// db.insert("items", Document::new().with("kind", "cluster").with("score", 0.9))
///     .unwrap();
/// let found = db.find("items", &Filter::eq("kind", "cluster")).unwrap();
/// assert_eq!(found.len(), 1);
/// ```
#[derive(Debug)]
pub struct Kdb {
    pub(crate) collections: BTreeMap<String, Collection>,
    pub(crate) journal: Option<Journal>,
    /// When [`Kdb::commit`] fsyncs; [`crate::SharedKdb::new`] takes it
    /// over as its group-commit policy.
    pub(crate) durability: DurabilityPolicy,
    /// Journal appends that failed (their ops were never applied) plus
    /// fsyncs that failed after their append landed.
    pub(crate) journal_faults: u64,
    /// Corruption salvaged at open (quarantined remainder), if any.
    pub(crate) salvaged: Option<CorruptionReport>,
}

impl Kdb {
    /// An in-memory store with no persistence.
    pub fn in_memory() -> Self {
        Self {
            collections: BTreeMap::new(),
            journal: None,
            durability: DurabilityPolicy::default(),
            journal_faults: 0,
            salvaged: None,
        }
    }

    /// Opens (creating if needed) a journaled store at `path`, replaying
    /// the existing journal and truncating any torn tail left by a
    /// crash.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] on filesystem failures,
    /// [`KdbError::Corrupt`] on a corrupt journal or a file that is not
    /// one (the file is left untouched), or
    /// [`KdbError::Journal`] when a *replayed* operation is inconsistent
    /// (e.g. an insert into a collection that was never created).
    pub fn open(path: &Path) -> Result<Self, KdbError> {
        Self::open_with(path, StoreOptions::default())
    }

    /// [`Kdb::open`] with explicit storage backend, durability policy
    /// and recovery mode. Under [`RecoveryMode::Salvage`] a corrupt
    /// journal's valid prefix is recovered, the unreadable remainder (all
    /// of a file that is not a journal) is copied to the first free
    /// [`quarantine_path`] — an earlier salvage's quarantine is never
    /// overwritten — and the report is available via [`Kdb::salvaged`].
    ///
    /// # Errors
    /// As [`Kdb::open`]; strict mode surfaces [`KdbError::Corrupt`].
    pub fn open_with(path: &Path, options: StoreOptions) -> Result<Self, KdbError> {
        let StoreOptions {
            storage,
            durability,
            recovery,
        } = options;
        let mut store = Self::in_memory();
        let mut next_seq = 0;
        let valid_len = if storage.exists(path) {
            let bytes = storage.read(path)?;
            let replayed = replay_bytes(&bytes, recovery)?;
            next_seq = replayed.ops.len() as u64;
            for (line, op) in replayed.ops.into_iter().enumerate() {
                store
                    .commit(op)
                    .map_err(|e| KdbError::Journal(line + 1, e.to_string()))?;
            }
            if let Some(report) = replayed.corruption {
                // Salvage: preserve the unreadable remainder next to the
                // journal before it is truncated away, for forensics, in
                // a file no earlier salvage wrote.
                let quarantine = (0..)
                    .map(|n| quarantine_path(path, n))
                    .find(|candidate| !storage.exists(candidate))
                    .expect("some quarantine number is free");
                let mut file = storage.create(&quarantine)?;
                file.append(&bytes[usize::try_from(replayed.valid_len).unwrap_or(0)..])?;
                file.sync()?;
                store.salvaged = Some(report);
            }
            Some(replayed.valid_len)
        } else {
            None
        };
        store.journal = Some(Journal::open_with(storage, path, valid_len, next_seq)?);
        store.durability = durability;
        Ok(store)
    }

    /// The corruption report when this store was opened in salvage mode
    /// over a corrupt journal (the remainder sits in the first
    /// [`quarantine_path`] that was free).
    pub fn salvaged(&self) -> Option<&CorruptionReport> {
        self.salvaged.as_ref()
    }

    /// The one write path: checks `op` against the state, appends it to
    /// the journal, then applies it. A refused op or a failed append
    /// (counted towards [`Kdb::journal_fault_count`]) returns before any
    /// collection is touched, so memory never runs ahead of the journal.
    /// Under [`DurabilityPolicy::Always`] the append is fsynced; a failed
    /// fsync is counted as a fault, not returned — the op is in the
    /// journal, only not known durable, so memory still agrees with it.
    pub(crate) fn commit(&mut self, op: Op) -> Result<(), KdbError> {
        match (self.collections.get(op.collection()), &op) {
            (Some(coll), _) => coll.check(&op)?,
            (None, Op::CreateCollection { .. }) => {}
            (None, _) => return Err(KdbError::UnknownCollection(op.collection().to_owned())),
        }
        if let Some(journal) = &mut self.journal {
            journal
                .append(&op)
                .inspect_err(|_| self.journal_faults += 1)?;
            if self.durability == DurabilityPolicy::Always && journal.sync().is_err() {
                self.journal_faults += 1;
            }
        }
        match op {
            Op::CreateCollection { name } => {
                self.collections.insert(name.clone(), Collection::new(name));
            }
            op => self
                .collections
                .get_mut(op.collection())
                .expect("checked: the collection exists")
                .apply(op),
        }
        Ok(())
    }

    /// Creates a collection.
    ///
    /// # Errors
    /// Returns [`KdbError::CollectionExists`] for duplicates, or an I/O
    /// error from the journal.
    pub fn create_collection(&mut self, name: impl Into<String>) -> Result<(), KdbError> {
        self.commit(Op::CreateCollection { name: name.into() })
    }

    /// Creates a collection if it does not already exist.
    ///
    /// # Errors
    /// Returns journal I/O errors.
    pub fn ensure_collection(&mut self, name: impl Into<String>) -> Result<(), KdbError> {
        let name = name.into();
        if !self.collections.contains_key(&name) {
            self.create_collection(name)?;
        }
        Ok(())
    }

    /// Creates a secondary index if the path is not already indexed.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`] or a journal I/O error.
    pub fn ensure_index(&mut self, collection: &str, path: &str) -> Result<(), KdbError> {
        match self.create_index(collection, path) {
            Err(KdbError::IndexExists(_)) => Ok(()),
            other => other,
        }
    }

    /// Creates a secondary index.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`], [`KdbError::IndexExists`]
    /// or a journal I/O error.
    pub fn create_index(
        &mut self,
        collection: &str,
        path: impl Into<String>,
    ) -> Result<(), KdbError> {
        self.commit(Op::CreateIndex {
            name: collection.to_owned(),
            path: path.into(),
        })
    }

    /// Inserts a document, returning its id. The journaled document
    /// carries its `_id`.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`] or a journal I/O error.
    pub fn insert(&mut self, collection: &str, mut doc: Document) -> Result<DocId, KdbError> {
        let id = self
            .collection(collection)
            .ok_or_else(|| KdbError::UnknownCollection(collection.to_owned()))?
            .next_id();
        doc.set("_id", id as i64);
        self.commit(Op::Insert {
            name: collection.to_owned(),
            id,
            doc,
        })?;
        Ok(id)
    }

    /// Replaces a document.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`],
    /// [`KdbError::UnknownDocument`] or a journal I/O error.
    pub fn update(&mut self, collection: &str, id: DocId, doc: Document) -> Result<(), KdbError> {
        self.commit(Op::Update {
            name: collection.to_owned(),
            id,
            doc,
        })
    }

    /// Deletes a document.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`],
    /// [`KdbError::UnknownDocument`] or a journal I/O error.
    pub fn delete(&mut self, collection: &str, id: DocId) -> Result<(), KdbError> {
        self.commit(Op::Delete {
            name: collection.to_owned(),
            id,
        })
    }

    /// Borrows a collection for reads.
    pub fn collection(&self, name: &str) -> Option<&Collection> {
        self.collections.get(name)
    }

    /// Finds documents in a collection (cloned out for ownership
    /// simplicity at call sites that hold the store mutably elsewhere).
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`].
    pub fn find(
        &self,
        collection: &str,
        filter: &Filter,
    ) -> Result<Vec<(DocId, Document)>, KdbError> {
        find_cloned(collection, self.collection(collection), filter)
    }

    /// The minimal op sequence that reconstructs the current state, in
    /// deterministic (collection name, doc id) order. This is both the
    /// snapshot-compaction content and the basis of [`Kdb::fingerprint`].
    pub fn state_ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for coll in self.collections.values() {
            collection_state_ops(coll, &mut ops);
        }
        ops
    }

    /// A 64-bit FNV-1a digest of the canonical state encoding. Two
    /// stores holding the same collections/indexes/documents produce
    /// the same fingerprint regardless of the journal history that got
    /// them there — the equality check behind the torture harness's
    /// prefix-consistency invariant.
    pub fn fingerprint(&self) -> u64 {
        fingerprint_ops(&self.state_ops())
    }

    /// Compacts the journal to the minimal op sequence reconstructing
    /// the current state. No-op for in-memory stores.
    ///
    /// # Errors
    /// Returns journal I/O errors.
    pub fn snapshot(&mut self) -> Result<(), KdbError> {
        let ops = self.state_ops();
        let Some(journal) = &mut self.journal else {
            return Ok(());
        };
        journal.rewrite(&ops)
    }

    /// Forces an fsync of the journal, making every acknowledged op
    /// durable. No-op for in-memory stores.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] when the fsync fails.
    pub fn sync(&mut self) -> Result<(), KdbError> {
        match &mut self.journal {
            Some(journal) => journal.sync(),
            None => Ok(()),
        }
    }

    /// Journal faults observed since open: failed appends (their ops
    /// were refused) plus fsync failures swallowed as non-durable acks.
    /// The service watches this to decide when to degrade.
    pub fn journal_fault_count(&self) -> u64 {
        self.journal_faults
    }

    /// Ops acknowledged by the journal since open (0 when in-memory).
    pub fn journal_acked_ops(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::acked_ops)
    }

    /// Ops known fsync-durable since open (0 when in-memory).
    pub fn journal_durable_ops(&self) -> u64 {
        self.journal.as_ref().map_or(0, Journal::durable_ops)
    }
}

/// The matches of `filter` in `coll` (the collection named
/// `collection`, `None` when absent), cloned out.
pub(crate) fn find_cloned(
    collection: &str,
    coll: Option<&Collection>,
    filter: &Filter,
) -> Result<Vec<(DocId, Document)>, KdbError> {
    let coll = coll.ok_or_else(|| KdbError::UnknownCollection(collection.to_owned()))?;
    Ok(coll
        .find(filter)
        .into_iter()
        .map(|(id, d)| (id, d.clone()))
        .collect())
}

/// Appends the canonical state ops of one collection to `ops`: its
/// creation, its indexes, then its documents in id order.
pub(crate) fn collection_state_ops(coll: &Collection, ops: &mut Vec<Op>) {
    let name = coll.name();
    ops.push(Op::CreateCollection {
        name: name.to_owned(),
    });
    for path in coll.index_paths() {
        ops.push(Op::CreateIndex {
            name: name.to_owned(),
            path: path.to_owned(),
        });
    }
    for (id, doc) in coll.iter() {
        ops.push(Op::Insert {
            name: name.to_owned(),
            id,
            doc: doc.clone(),
        });
    }
}

/// Where salvage mode preserves the unreadable remainder of a corrupt
/// journal: `<journal>.quarantine` for the first salvage (`n` = 0),
/// `<journal>.quarantine.<n>` for the later ones, each salvage taking
/// the first that does not exist.
pub fn quarantine_path(journal: &Path, n: u32) -> PathBuf {
    let mut name = journal.as_os_str().to_owned();
    name.push(".quarantine");
    name.push(if n > 0 { format!(".{n}") } else { "".into() });
    PathBuf::from(name)
}

/// A 64-bit FNV-1a digest over a canonical op sequence — the shared
/// fingerprint primitive behind [`Kdb::fingerprint`] and the per-shard
/// digests of the sharded facade. Ops are separated by an out-of-band
/// byte so concatenation ambiguity cannot collide.
pub fn fingerprint_ops(ops: &[Op]) -> u64 {
    let mut buf = String::new();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for op in ops {
        buf.clear();
        op.encode_into(&mut buf);
        for b in buf.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        hash ^= 0xFF;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Value;

    fn item(kind: &str, score: f64) -> Document {
        Document::new().with("kind", kind).with("score", score)
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ada_kdb_store_{tag}_{}", std::process::id()))
    }

    #[test]
    fn in_memory_crud() {
        let mut db = Kdb::in_memory();
        db.create_collection("items").unwrap();
        let id = db.insert("items", item("cluster", 0.9)).unwrap();
        assert_eq!(db.collection("items").unwrap().len(), 1);
        db.update("items", id, item("cluster", 0.1)).unwrap();
        let found = db.find("items", &Filter::eq("kind", "cluster")).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1.get("score").unwrap().as_f64(), Some(0.1));
        db.delete("items", id).unwrap();
        assert!(db.collection("items").unwrap().is_empty());
    }

    #[test]
    fn unknown_collection_errors() {
        let mut db = Kdb::in_memory();
        assert!(matches!(
            db.insert("nope", Document::new()),
            Err(KdbError::UnknownCollection(_))
        ));
        assert!(db.find("nope", &Filter::True).is_err());
        db.create_collection("a").unwrap();
        assert_eq!(
            db.create_collection("a"),
            Err(KdbError::CollectionExists("a".into()))
        );
        db.ensure_collection("a").unwrap(); // idempotent
    }

    #[test]
    fn persistence_round_trip() {
        let path = temp_path("rt");
        std::fs::remove_file(&path).ok();
        let id;
        {
            let mut db = Kdb::open(&path).unwrap();
            db.create_collection("items").unwrap();
            db.create_index("items", "kind").unwrap();
            id = db.insert("items", item("cluster", 0.9)).unwrap();
            db.insert("items", item("pattern", 0.4)).unwrap();
            db.update("items", id, item("cluster", 0.95)).unwrap();
        }
        {
            let db = Kdb::open(&path).unwrap();
            let coll = db.collection("items").unwrap();
            assert_eq!(coll.len(), 2);
            assert!(coll.has_index("kind"));
            assert_eq!(
                coll.get(id).unwrap().get("score").unwrap().as_f64(),
                Some(0.95)
            );
            // New inserts continue the id sequence.
        }
        {
            let mut db = Kdb::open(&path).unwrap();
            let next = db.insert("items", item("x", 0.0)).unwrap();
            assert_eq!(next, 3);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_recovery_truncates_torn_tail() {
        let path = temp_path("crash");
        std::fs::remove_file(&path).ok();
        {
            let mut db = Kdb::open(&path).unwrap();
            db.create_collection("items").unwrap();
            db.insert("items", item("a", 1.0)).unwrap();
            db.insert("items", item("b", 2.0)).unwrap();
        }
        // Tear the final record.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        {
            let mut db = Kdb::open(&path).unwrap();
            // Second insert was torn away; first survives.
            assert_eq!(db.collection("items").unwrap().len(), 1);
            // The store keeps working after recovery.
            db.insert("items", item("c", 3.0)).unwrap();
        }
        let db = Kdb::open(&path).unwrap();
        assert_eq!(db.collection("items").unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_compacts_but_preserves_state() {
        let path = temp_path("snap");
        std::fs::remove_file(&path).ok();
        {
            let mut db = Kdb::open(&path).unwrap();
            db.create_collection("items").unwrap();
            db.create_index("items", "score").unwrap();
            let mut ids = Vec::new();
            for i in 0..20 {
                ids.push(db.insert("items", item("k", i as f64)).unwrap());
            }
            for &id in &ids[..10] {
                db.delete("items", id).unwrap();
            }
            let before = std::fs::metadata(&path).unwrap().len();
            db.snapshot().unwrap();
            let after = std::fs::metadata(&path).unwrap().len();
            assert!(after < before, "snapshot must shrink ({before} -> {after})");
        }
        let db = Kdb::open(&path).unwrap();
        let coll = db.collection("items").unwrap();
        assert_eq!(coll.len(), 10);
        assert!(coll.has_index("score"));
        let found = coll.find(&Filter::Gte("score".into(), Value::F64(15.0)));
        assert_eq!(found.len(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writes_after_snapshot_replay_correctly() {
        let path = temp_path("postsnap");
        std::fs::remove_file(&path).ok();
        {
            let mut db = Kdb::open(&path).unwrap();
            db.create_collection("items").unwrap();
            db.insert("items", item("a", 1.0)).unwrap();
            db.snapshot().unwrap();
            db.insert("items", item("b", 2.0)).unwrap();
        }
        let db = Kdb::open(&path).unwrap();
        assert_eq!(db.collection("items").unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    fn mem_kdb(storage: Arc<dyn Storage>, durability: DurabilityPolicy) -> Kdb {
        let options = StoreOptions::with_storage(storage).durability(durability);
        Kdb::open_with(Path::new("j"), options).unwrap()
    }

    #[test]
    fn durability_policies_ack_when_promised() {
        let mem = Arc::new(crate::storage::MemStorage::new());
        let mut db = mem_kdb(mem.clone(), DurabilityPolicy::Always);
        db.create_collection("items").unwrap();
        db.insert("items", item("a", 1.0)).unwrap();
        assert_eq!(db.journal_acked_ops(), 2);
        assert_eq!(db.journal_durable_ops(), 2, "Always syncs per op");
        drop(db);

        let mut db = mem_kdb(mem, DurabilityPolicy::SnapshotOnly);
        db.insert("items", item("b", 2.0)).unwrap();
        db.insert("items", item("c", 3.0)).unwrap();
        assert_eq!(db.journal_acked_ops(), 2);
        assert_eq!(
            db.journal_durable_ops(),
            0,
            "SnapshotOnly never syncs on append"
        );
        db.sync().unwrap();
        assert_eq!(db.journal_durable_ops(), 2);
    }

    #[test]
    fn swallowed_fsync_failures_are_counted_not_fatal() {
        use crate::storage::{FaultKind, FaultyStorage, MemStorage};
        let (storage, handle) = FaultyStorage::wrap(Arc::new(MemStorage::new()));
        let mut db = mem_kdb(storage, DurabilityPolicy::Always);
        db.create_collection("items").unwrap();
        handle.fail_persistently(FaultKind::SyncFail);
        db.insert("items", item("a", 1.0))
            .expect("append acknowledged though not durable");
        assert_eq!(db.journal_fault_count(), 1);
        assert_eq!(db.journal_acked_ops(), 2);
        assert_eq!(db.journal_durable_ops(), 1);
        assert_eq!(db.collection("items").unwrap().len(), 1);
        handle.clear();
        db.insert("items", item("b", 2.0)).unwrap();
        assert_eq!(db.journal_durable_ops(), 3, "the next fsync re-covers it");
        assert_eq!(db.journal_fault_count(), 1, "counted once");
    }

    #[test]
    fn reopening_an_empty_journal_keeps_one_magic() {
        let mem = crate::storage::MemStorage::new();
        for _ in 0..3 {
            mem_kdb(Arc::new(mem.clone()), DurabilityPolicy::Always);
            assert_eq!(mem.bytes(Path::new("j")).unwrap(), crate::journal::V2_MAGIC);
        }
    }
}

//! The sharded, concurrently-writable face of the K-DB.
//!
//! [`SharedKdb`] replaces the old `Arc<RwLock<Kdb>>` sharing model with
//! per-collection shards so sessions touching different collections
//! commit in parallel:
//!
//! * **Per-collection shards.** Every collection lives behind its own
//!   `RwLock`; a writer locks exactly one shard (the shard *registry*
//!   is only write-locked to create a collection). Writers on distinct
//!   collections never contend.
//! * **Group-commit journaling.** All shards append to one journal
//!   (append order = the global op order) under a short mutex that
//!   covers only the buffered write — never the fsync. Durability is a
//!   separate rendezvous: under [`DurabilityPolicy::Always`] the first
//!   waiter becomes the *leader*, issues one fsync covering every op
//!   appended before it, and hands the result to all covered waiters
//!   (the commit-waiter protocol). N writers therefore share ~1 fsync
//!   per round instead of paying one each.
//! * **Lazy shared-document snapshot reads.** [`SharedKdb::read`] copies
//!   nothing: a [`KdbSnapshot`] images a collection the first time it is
//!   asked for it, so a reader pays only for the collections it touches.
//!   An image clones the shard's id map and indexes; its documents are
//!   the shard's own `Arc<Document>`s — writers never mutate one in
//!   place (`update` swaps the `Arc`) — so it shares every document with
//!   the live shard and the image before it, and the last holder frees
//!   it (plain reference counting). Each shard caches its latest image
//!   under a write-epoch counter: unchanged, the cached `Arc` is served
//!   without touching the shard lock; changed, the shard is re-imaged
//!   under a read lock held only for the `Arc`-bump clone. Queries never
//!   block behind a committing writer (fsync is outside every lock).
//!
//! Lock order (deadlock freedom): shard registry → shard(s, in name
//! order when several) → journal mutex → commit state. The commit
//! leader drops the commit lock *before* taking the journal mutex, so
//! the journal → commit edge is the only one that exists while both are
//! held.
//!
//! Consistency: a shard write lock spans apply + append, so the journal
//! order of any single collection equals its apply order, and any
//! journal prefix replays to a per-collection prefix of acknowledged
//! ops — the invariant the multi-producer torture harness checks.
//! Cross-collection snapshot reads are *per-collection* consistent: each
//! collection is pinned at the snapshot's first access to it, without a
//! global barrier.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use crate::collection::{Collection, DocId};
use crate::document::Document;
use crate::error::KdbError;
use crate::journal::{CorruptionReport, DurabilityPolicy, Journal, JournalTap, Op};
use crate::query::Filter;
use crate::store::{fingerprint_ops, Kdb, StoreOptions};

// ---------------------------------------------------------------------
// Read / write access traits.
// ---------------------------------------------------------------------

/// Write access to a K-DB: implemented by the plain [`Kdb`] (exclusive
/// `&mut` access) and by [`KdbWriter`] (the sharded facade's per-op
/// locking). Schema helpers and persistence sinks are generic over this
/// trait so one code path serves both sharing models.
pub trait KdbWrite {
    /// Creates a collection.
    ///
    /// # Errors
    /// Returns [`KdbError::CollectionExists`] or a journal I/O error.
    fn create_collection(&mut self, name: &str) -> Result<(), KdbError>;

    /// Creates a collection if it does not already exist (race-safe on
    /// the sharded facade: a concurrent creator winning is success).
    ///
    /// # Errors
    /// Returns journal I/O errors.
    fn ensure_collection(&mut self, name: &str) -> Result<(), KdbError>;

    /// Creates a secondary index.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`], [`KdbError::IndexExists`]
    /// or a journal I/O error.
    fn create_index(&mut self, collection: &str, path: &str) -> Result<(), KdbError>;

    /// Creates a secondary index if the path is not already indexed.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`] or a journal I/O error.
    fn ensure_index(&mut self, collection: &str, path: &str) -> Result<(), KdbError>;

    /// Inserts a document, returning its id.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`] or a journal I/O error.
    fn insert(&mut self, collection: &str, doc: Document) -> Result<DocId, KdbError>;

    /// Replaces a document.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`],
    /// [`KdbError::UnknownDocument`] or a journal I/O error.
    fn update(&mut self, collection: &str, id: DocId, doc: Document) -> Result<(), KdbError>;

    /// Deletes a document.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`],
    /// [`KdbError::UnknownDocument`] or a journal I/O error.
    fn delete(&mut self, collection: &str, id: DocId) -> Result<(), KdbError>;
}

impl KdbWrite for Kdb {
    fn create_collection(&mut self, name: &str) -> Result<(), KdbError> {
        Kdb::create_collection(self, name)
    }

    fn ensure_collection(&mut self, name: &str) -> Result<(), KdbError> {
        Kdb::ensure_collection(self, name)
    }

    fn create_index(&mut self, collection: &str, path: &str) -> Result<(), KdbError> {
        Kdb::create_index(self, collection, path)
    }

    fn ensure_index(&mut self, collection: &str, path: &str) -> Result<(), KdbError> {
        Kdb::ensure_index(self, collection, path)
    }

    fn insert(&mut self, collection: &str, doc: Document) -> Result<DocId, KdbError> {
        Kdb::insert(self, collection, doc)
    }

    fn update(&mut self, collection: &str, id: DocId, doc: Document) -> Result<(), KdbError> {
        Kdb::update(self, collection, id, doc)
    }

    fn delete(&mut self, collection: &str, id: DocId) -> Result<(), KdbError> {
        Kdb::delete(self, collection, id)
    }
}

/// Read access to a K-DB state image: implemented by the plain [`Kdb`]
/// and by [`KdbSnapshot`]. Query helpers are generic over this trait.
pub trait KdbRead {
    /// Borrows a collection for reads.
    fn collection(&self, name: &str) -> Option<&Collection>;

    /// Collection names, sorted.
    fn collection_names(&self) -> Vec<&str>;

    /// Finds documents in a collection (cloned out).
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`].
    fn find(&self, collection: &str, filter: &Filter) -> Result<Vec<(DocId, Document)>, KdbError> {
        let coll = self
            .collection(collection)
            .ok_or_else(|| KdbError::UnknownCollection(collection.to_owned()))?;
        Ok(coll
            .find(filter)
            .into_iter()
            .map(|(id, d)| (id, d.clone()))
            .collect())
    }

    /// The minimal op sequence reconstructing the current state, in
    /// deterministic (collection name, doc id) order.
    fn state_ops(&self) -> Vec<Op> {
        let mut ops = Vec::new();
        for name in self.collection_names() {
            let coll = self.collection(name).expect("listed collection");
            collection_state_ops(name, coll, &mut ops);
        }
        ops
    }

    /// FNV-1a digest of the canonical state encoding (see
    /// [`Kdb::fingerprint`]).
    fn fingerprint(&self) -> u64 {
        fingerprint_ops(&self.state_ops())
    }
}

impl KdbRead for Kdb {
    fn collection(&self, name: &str) -> Option<&Collection> {
        Kdb::collection(self, name)
    }

    fn collection_names(&self) -> Vec<&str> {
        Kdb::collection_names(self)
    }
}

/// Appends the canonical state ops of one collection to `ops`.
fn collection_state_ops(name: &str, coll: &Collection, ops: &mut Vec<Op>) {
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

// ---------------------------------------------------------------------
// Group-commit instrumentation.
// ---------------------------------------------------------------------

/// Buckets of the group-commit batch-size histogram (log2: bucket `i`
/// counts batches of `2^i ..= 2^(i+1)-1` ops).
pub const BATCH_BUCKETS: usize = 16;
/// Buckets of the flush-latency histogram (log2 nanoseconds).
pub const FLUSH_BUCKETS: usize = 40;

/// Lock-free counters of the group committer (owned by the facade —
/// the service exports them as the pinned `ada_kdb_*` Prometheus
/// families).
#[derive(Debug)]
struct GroupCommitStats {
    /// Completed fsync rounds (successful or failed).
    commits: AtomicU64,
    /// Rounds whose fsync failed (every covered op acked non-durable).
    failures: AtomicU64,
    /// Ops covered by completed rounds (sum of batch sizes).
    ops: AtomicU64,
    /// Log2 batch-size histogram.
    batch_hist: [AtomicU64; BATCH_BUCKETS],
    /// Log2 flush-latency histogram (ns).
    flush_hist: [AtomicU64; FLUSH_BUCKETS],
    /// Total flush nanoseconds across rounds.
    flush_ns: AtomicU64,
}

impl Default for GroupCommitStats {
    fn default() -> Self {
        Self {
            commits: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            batch_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            flush_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            flush_ns: AtomicU64::new(0),
        }
    }
}

fn log2_bucket(value: u64, buckets: usize) -> usize {
    (63 - value.max(1).leading_zeros() as usize).min(buckets - 1)
}

impl GroupCommitStats {
    fn record(&self, batch: u64, flush: Duration, ok: bool) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        self.ops.fetch_add(batch, Ordering::Relaxed);
        self.batch_hist[log2_bucket(batch, BATCH_BUCKETS)].fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(flush.as_nanos()).unwrap_or(u64::MAX);
        self.flush_hist[log2_bucket(ns, FLUSH_BUCKETS)].fetch_add(1, Ordering::Relaxed);
        self.flush_ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn snapshot(&self) -> GroupCommitSnapshot {
        GroupCommitSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            batch_hist: std::array::from_fn(|i| self.batch_hist[i].load(Ordering::Relaxed)),
            flush_hist: std::array::from_fn(|i| self.flush_hist[i].load(Ordering::Relaxed)),
            flush_ns: self.flush_ns.load(Ordering::Relaxed),
            acked_ops: 0,
            durable_ops: 0,
        }
    }
}

/// A point-in-time view of the group committer's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupCommitSnapshot {
    /// Completed fsync rounds.
    pub commits: u64,
    /// Rounds whose fsync failed.
    pub failures: u64,
    /// Ops covered by completed rounds.
    pub ops: u64,
    /// Log2 batch-size histogram (bucket `i` = batches of `2^i..2^(i+1)`
    /// ops).
    pub batch_hist: [u64; BATCH_BUCKETS],
    /// Log2 flush-latency histogram in nanoseconds.
    pub flush_hist: [u64; FLUSH_BUCKETS],
    /// Total flush nanoseconds.
    pub flush_ns: u64,
    /// Journal ops acknowledged since open.
    pub acked_ops: u64,
    /// Journal ops known fsync-durable since open.
    pub durable_ops: u64,
}

impl Default for GroupCommitSnapshot {
    fn default() -> Self {
        Self {
            commits: 0,
            failures: 0,
            ops: 0,
            batch_hist: [0; BATCH_BUCKETS],
            flush_hist: [0; FLUSH_BUCKETS],
            flush_ns: 0,
            acked_ops: 0,
            durable_ops: 0,
        }
    }
}

/// The part a committing thread played in one group-commit fsync round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitRole {
    /// This thread held the fsync baton: it waited the accumulation
    /// window, took the journal mutex, and issued the round's fsync.
    Leader,
    /// This thread parked on the commit condvar and was covered by a
    /// leader's round.
    Follower,
}

impl CommitRole {
    /// Canonical lowercase label (`"leader"` / `"follower"`).
    pub fn name(self) -> &'static str {
        match self {
            CommitRole::Leader => "leader",
            CommitRole::Follower => "follower",
        }
    }
}

/// Observer of group-commit fsync rounds, registered on a [`SharedKdb`]
/// by the layer that owns request attribution (the analysis service
/// wires it to the flight recorder, keyed by the worker thread's
/// current trace context).
///
/// Called once per *waiting thread* per round it took part in, after
/// every K-DB lock the round held has been released — implementations
/// may take their own locks but must never call back into the store.
/// `wait` is the time this thread spent blocked on the round
/// (accumulation window + journal mutex for the leader, condvar parking
/// for a follower) excluding the fsync itself; `fsync` is the round's
/// fsync duration (zero for followers — they never touched the device).
pub trait CommitObserver: Send + Sync + std::fmt::Debug {
    /// One thread's view of one finished commit round.
    fn on_commit_round(
        &self,
        role: CommitRole,
        batch: u64,
        wait: Duration,
        fsync: Duration,
        durable: bool,
    );
}

/// What one fsync round did: ops covered, fsync duration, and the I/O
/// outcome (stats and watermarks are already published either way).
struct RoundOutcome {
    batch: u64,
    flush: Duration,
    result: Result<(), KdbError>,
}

impl GroupCommitSnapshot {
    /// Mean ops per completed fsync round (1.0 when no round ran).
    pub fn mean_batch(&self) -> f64 {
        if self.commits == 0 {
            1.0
        } else {
            self.ops as f64 / self.commits as f64
        }
    }

    /// Approximate quantile of a log2 histogram: the representative
    /// value (geometric bucket midpoint) of the bucket holding quantile
    /// `q` of the observations.
    pub fn quantile(hist: &[u64], q: f64) -> f64 {
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                // Geometric midpoint of [2^i, 2^(i+1)).
                return (1u64 << i) as f64 * std::f64::consts::SQRT_2;
            }
        }
        (1u64 << (hist.len() - 1)) as f64
    }
}

// ---------------------------------------------------------------------
// Shards.
// ---------------------------------------------------------------------

/// One collection shard: the live collection, its write epoch, and the
/// cached snapshot image.
#[derive(Debug)]
struct Shard {
    coll: RwLock<Collection>,
    /// Bumped under the shard write lock after every applied mutation;
    /// snapshot reads use it to validate the cached image.
    epoch: AtomicU64,
    /// `(epoch, image)` of the last snapshot image; re-served without
    /// touching `coll` while the epoch still matches.
    cache: parking_lot::Mutex<Option<(u64, Arc<Collection>)>>,
}

impl Shard {
    fn new(coll: Collection) -> Self {
        Self {
            coll: RwLock::new(coll),
            epoch: AtomicU64::new(0),
            cache: parking_lot::Mutex::new(None),
        }
    }

    /// The shard's current image, served from the epoch-validated cache
    /// when possible (no shard lock), re-imaged when the shard changed
    /// since the last snapshot. The read lock spans only the clone —
    /// one `Arc` bump per document plus the index maps; allocating the
    /// image and retiring the stale one happen outside it.
    fn image(&self) -> Arc<Collection> {
        let epoch = self.epoch.load(Ordering::Acquire);
        if let Some((cached_epoch, image)) = self.cache.lock().as_ref() {
            if *cached_epoch == epoch {
                return Arc::clone(image);
            }
        }
        let (epoch, coll) = {
            let guard = self.coll.read();
            // The epoch is stable while the read lock is held (writers
            // bump it under the write lock), so image and epoch pair
            // correctly.
            (self.epoch.load(Ordering::Acquire), guard.clone())
        };
        let image = Arc::new(coll);
        let stale = self.cache.lock().replace((epoch, Arc::clone(&image)));
        drop(stale);
        image
    }
}

// ---------------------------------------------------------------------
// The facade.
// ---------------------------------------------------------------------

/// Commit-waiter rendezvous of the group committer.
#[derive(Debug)]
struct CommitState {
    /// Highest acked-op count covered by a *finished* fsync round
    /// (successful or not).
    attempted: u64,
    /// Highest acked-op count covered by a successful fsync.
    durable: u64,
    /// A leader currently holds the fsync baton.
    syncing: bool,
    /// When the last fsync round finished (Batch `max_delay` clock).
    last_sync: Instant,
    /// Ops covered by the previous round — evidence of concurrent
    /// appenders, used to size the leader's accumulation window.
    last_batch: u64,
}

/// Outcome of journaling one op, settled after the shard lock drops.
enum Ticket {
    /// In-memory store: nothing to wait for.
    None,
    /// Durability already decided (Batch / SnapshotOnly policies).
    Done(bool),
    /// Wait for a group-commit round covering this acked-op count.
    Wait(u64),
}

#[derive(Debug)]
struct SharedInner {
    /// Shard registry: write-locked only to create a collection.
    shards: RwLock<BTreeMap<String, Arc<Shard>>>,
    /// The single journal appender. Its own policy is pinned to
    /// `SnapshotOnly` so `append` never fsyncs inline — the facade's
    /// `policy` decides durability via the group committer.
    journal: Option<parking_lot::Mutex<Journal>>,
    /// Facade-level durability policy.
    policy: parking_lot::Mutex<DurabilityPolicy>,
    commit: Mutex<CommitState>,
    commit_cv: Condvar,
    /// Append failures rolled back by the mutators (seeded with any
    /// carried over from the decomposed [`Kdb`]).
    log_failures: AtomicU64,
    /// Fsync failures observed by the group committer.
    sync_failures: AtomicU64,
    stats: GroupCommitStats,
    salvaged: Option<CorruptionReport>,
    /// Per-round observer hook (trace attribution). `None` — the
    /// default — keeps the commit path exactly as it was.
    commit_observer: RwLock<Option<Arc<dyn CommitObserver>>>,
}

/// A concurrently shareable K-DB: per-collection shard locks, one
/// group-committed journal, and lazily imaged snapshot reads. Cloning is
/// cheap (an `Arc` bump) and every clone addresses the same store.
///
/// ```
/// use ada_kdb::{Document, Filter, Kdb, SharedKdb};
///
/// let db = SharedKdb::new(Kdb::in_memory());
/// db.create_collection("items").unwrap();
/// db.insert("items", Document::new().with("kind", "cluster")).unwrap();
/// let snap = db.read();
/// assert_eq!(snap.find("items", &Filter::True).unwrap().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SharedKdb {
    inner: Arc<SharedInner>,
}

impl SharedKdb {
    /// Wraps a [`Kdb`] (journaled or in-memory), decomposing it into
    /// per-collection shards. The store's durability policy becomes the
    /// facade's group-commit policy.
    pub fn new(kdb: Kdb) -> Self {
        let (collections, mut journal, log_failures, salvaged) = kdb.into_parts();
        let policy = journal
            .as_ref()
            .map(Journal::durability)
            .unwrap_or_default();
        if let Some(j) = &mut journal {
            // The facade owns durability; inline fsyncs would serialize
            // every appender behind the journal mutex.
            j.set_durability(DurabilityPolicy::SnapshotOnly);
        }
        let shards = collections
            .into_iter()
            .map(|(name, coll)| (name, Arc::new(Shard::new(coll))))
            .collect();
        Self {
            inner: Arc::new(SharedInner {
                shards: RwLock::new(shards),
                journal: journal.map(parking_lot::Mutex::new),
                policy: parking_lot::Mutex::new(policy),
                commit: Mutex::new(CommitState {
                    attempted: 0,
                    durable: 0,
                    syncing: false,
                    last_sync: Instant::now(),
                    last_batch: 1,
                }),
                commit_cv: Condvar::new(),
                log_failures: AtomicU64::new(log_failures),
                sync_failures: AtomicU64::new(0),
                stats: GroupCommitStats::default(),
                salvaged,
                commit_observer: RwLock::new(None),
            }),
        }
    }

    /// A sharded in-memory store.
    pub fn in_memory() -> Self {
        Self::new(Kdb::in_memory())
    }

    /// Opens (creating if needed) a journaled store, replaying the
    /// journal, and wraps it in the sharded facade.
    ///
    /// # Errors
    /// As [`Kdb::open_with`].
    pub fn open_with(path: &Path, options: StoreOptions) -> Result<Self, KdbError> {
        Ok(Self::new(Kdb::open_with(path, options)?))
    }

    // -- write path ----------------------------------------------------

    fn shard(&self, name: &str) -> Result<Arc<Shard>, KdbError> {
        self.inner
            .shards
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| KdbError::UnknownCollection(name.to_owned()))
    }

    /// Appends one op under the journal mutex (buffered write + flush
    /// only — no fsync) and decides how durability will be settled.
    /// Called with the target shard write-locked, so per-collection
    /// journal order equals apply order. A failure means the op is not
    /// persisted: the caller must roll back its in-memory effect.
    fn log(&self, op: &Op) -> Result<Ticket, KdbError> {
        let Some(journal_mx) = &self.inner.journal else {
            return Ok(Ticket::None);
        };
        let mut journal = journal_mx.lock();
        if let Err(e) = journal.append(op) {
            self.inner.log_failures.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        let seq = journal.acked_ops();
        let policy = *self.inner.policy.lock();
        match policy {
            DurabilityPolicy::SnapshotOnly => Ok(Ticket::Done(false)),
            DurabilityPolicy::Always => Ok(Ticket::Wait(seq)),
            DurabilityPolicy::Batch { max_ops, max_delay } => {
                let pending = seq.saturating_sub(journal.durable_ops());
                let overdue = {
                    let state = lock(&self.inner.commit);
                    state.last_sync.elapsed() >= max_delay
                };
                if pending >= max_ops.max(1) as u64 || overdue {
                    // The appender that fills the batch performs the
                    // sync inline (same ack shape as `Journal::append`
                    // under `Batch`: the triggering op reports durable).
                    Ok(Ticket::Done(self.sync_round(&mut journal).result.is_ok()))
                } else {
                    Ok(Ticket::Done(false))
                }
            }
        }
    }

    /// One fsync round over the locked journal: syncs, records stats,
    /// publishes the new attempted/durable watermarks and wakes every
    /// covered commit waiter. Returns the round's batch size, fsync
    /// duration, and I/O outcome so callers (the commit-waiter leader
    /// path) can report it to the [`CommitObserver`] hook.
    fn sync_round(&self, journal: &mut Journal) -> RoundOutcome {
        let end = journal.acked_ops();
        let started = Instant::now();
        let result = journal.sync();
        let elapsed = started.elapsed();
        if result.is_err() {
            self.inner.sync_failures.fetch_add(1, Ordering::Relaxed);
        }
        let durable_now = journal.durable_ops();
        let mut state = lock(&self.inner.commit);
        let batch = end.saturating_sub(state.attempted);
        self.inner.stats.record(batch, elapsed, result.is_ok());
        state.attempted = state.attempted.max(end);
        state.durable = state.durable.max(durable_now);
        state.last_sync = Instant::now();
        state.last_batch = batch;
        drop(state);
        self.inner.commit_cv.notify_all();
        RoundOutcome {
            batch,
            flush: elapsed,
            result,
        }
    }

    /// How long an elected leader waits for concurrent appenders before
    /// fsyncing: a quarter of the mean observed flush cost, capped at
    /// 500µs, and zero until concurrency shows up (`last_batch <= 1`)
    /// or a flush has been measured.
    fn accumulation_window(&self, last_batch: u64) -> Duration {
        if last_batch <= 1 {
            return Duration::ZERO;
        }
        let commits = self.inner.stats.commits.load(Ordering::Relaxed);
        if commits == 0 {
            return Duration::ZERO;
        }
        let mean_flush_ns = self.inner.stats.flush_ns.load(Ordering::Relaxed) / commits;
        Duration::from_nanos((mean_flush_ns / 4).min(500_000))
    }

    /// The registered commit observer, if any (one `RwLock` read —
    /// nanoseconds against the round's fsync).
    fn commit_observer(&self) -> Option<Arc<dyn CommitObserver>> {
        self.inner.commit_observer.read().clone()
    }

    /// The commit-waiter protocol: blocks until an fsync round covering
    /// `seq` has finished, electing this thread leader when no round is
    /// in flight. Returns whether `seq` is known durable.
    ///
    /// When a [`CommitObserver`] is registered, each exit path reports
    /// this thread's view of the round it took part in — role, batch
    /// size, time spent waiting vs. fsyncing — strictly after every
    /// store lock has been released.
    fn wait_durable(&self, seq: u64) -> bool {
        let Some(journal_mx) = &self.inner.journal else {
            return false;
        };
        let observer = self.commit_observer();
        let entered = observer.as_ref().map(|_| Instant::now());
        let mut parked = false;
        let mut state = lock(&self.inner.commit);
        loop {
            if state.attempted >= seq {
                let durable = state.durable >= seq;
                let batch = state.last_batch;
                drop(state);
                if parked {
                    if let (Some(obs), Some(t0)) = (&observer, entered) {
                        obs.on_commit_round(
                            CommitRole::Follower,
                            batch,
                            t0.elapsed(),
                            Duration::ZERO,
                            durable,
                        );
                    }
                }
                return durable;
            }
            if state.syncing {
                parked = true;
                state = self
                    .inner
                    .commit_cv
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            state.syncing = true;
            let last_batch = state.last_batch;
            drop(state);
            // Accumulation: when the previous round actually batched,
            // concurrent appenders are in flight — give them a brief
            // window to land their frames before taking the journal
            // mutex (which appends block on for the fsync's duration),
            // so this round's fsync covers them all. The window is a
            // fraction of the observed flush cost, so it never
            // dominates commit latency, and a lone writer skips it.
            let window = self.accumulation_window(last_batch);
            if !window.is_zero() {
                std::thread::sleep(window);
            }
            let round = {
                let mut journal = journal_mx.lock();
                self.sync_round(&mut journal)
            };
            if let (Some(obs), Some(t0)) = (&observer, entered) {
                obs.on_commit_round(
                    CommitRole::Leader,
                    round.batch,
                    t0.elapsed().saturating_sub(round.flush),
                    round.flush,
                    round.result.is_ok(),
                );
                // The leader's own round is the one it reports; a prior
                // condvar park (for an earlier, non-covering round) must
                // not fire a second, follower-shaped report at return.
                parked = false;
            }
            state = lock(&self.inner.commit);
            state.syncing = false;
            // Wake waiters parked on the baton; the loop re-checks the
            // watermarks (our own append is covered by our round).
            drop(state);
            self.inner.commit_cv.notify_all();
            state = lock(&self.inner.commit);
        }
    }

    fn settle(&self, ticket: Ticket) -> bool {
        match ticket {
            Ticket::None => false,
            Ticket::Done(durable) => durable,
            Ticket::Wait(seq) => self.wait_durable(seq),
        }
    }

    /// Creates a collection. The registry write lock spans apply +
    /// append so the `CreateCollection` frame precedes every op on the
    /// new collection in the journal.
    ///
    /// # Errors
    /// Returns [`KdbError::CollectionExists`] or a journal I/O error.
    pub fn create_collection(&self, name: &str) -> Result<(), KdbError> {
        let ticket;
        {
            let mut shards = self.inner.shards.write();
            if shards.contains_key(name) {
                return Err(KdbError::CollectionExists(name.to_owned()));
            }
            let op = Op::CreateCollection {
                name: name.to_owned(),
            };
            ticket = self.log(&op)?;
            shards.insert(name.to_owned(), Arc::new(Shard::new(Collection::new(name))));
        }
        self.settle(ticket);
        Ok(())
    }

    /// Creates a collection if it does not already exist. Race-safe: a
    /// concurrent creator winning counts as success.
    ///
    /// # Errors
    /// Returns journal I/O errors.
    pub fn ensure_collection(&self, name: &str) -> Result<(), KdbError> {
        if self.inner.shards.read().contains_key(name) {
            return Ok(());
        }
        match self.create_collection(name) {
            Err(KdbError::CollectionExists(_)) => Ok(()),
            other => other,
        }
    }

    /// Creates a secondary index.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`], [`KdbError::IndexExists`]
    /// or a journal I/O error.
    pub fn create_index(&self, collection: &str, path: &str) -> Result<(), KdbError> {
        let shard = self.shard(collection)?;
        let ticket;
        {
            let mut coll = shard.coll.write();
            coll.create_index(path.to_owned())?;
            let op = Op::CreateIndex {
                name: collection.to_owned(),
                path: path.to_owned(),
            };
            match self.log(&op) {
                Ok(t) => ticket = t,
                Err(e) => {
                    coll.drop_index(path);
                    return Err(e);
                }
            }
            shard.epoch.fetch_add(1, Ordering::Release);
        }
        self.settle(ticket);
        Ok(())
    }

    /// Creates a secondary index if the path is not already indexed.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`] or a journal I/O error.
    pub fn ensure_index(&self, collection: &str, path: &str) -> Result<(), KdbError> {
        match self.create_index(collection, path) {
            Err(KdbError::IndexExists(_)) => Ok(()),
            other => other,
        }
    }

    /// Inserts a document, returning its id.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`] or a journal I/O error.
    pub fn insert(&self, collection: &str, doc: Document) -> Result<DocId, KdbError> {
        self.insert_committed(collection, doc).map(|(id, _)| id)
    }

    /// [`SharedKdb::insert`] with a commit receipt: the second element
    /// reports whether the op is already covered by a successful fsync
    /// (`false` under `Batch`/`SnapshotOnly` acked-non-durable acks or
    /// after a failed group fsync).
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`] or a journal I/O error.
    pub fn insert_committed(
        &self,
        collection: &str,
        doc: Document,
    ) -> Result<(DocId, bool), KdbError> {
        let shard = self.shard(collection)?;
        let (id, ticket) = {
            let mut coll = shard.coll.write();
            let id = coll.insert(doc);
            let stored = coll.get(id).expect("just inserted").clone();
            let op = Op::Insert {
                name: collection.to_owned(),
                id,
                doc: stored,
            };
            match self.log(&op) {
                Ok(ticket) => {
                    shard.epoch.fetch_add(1, Ordering::Release);
                    (id, ticket)
                }
                Err(e) => {
                    coll.uninsert(id);
                    return Err(e);
                }
            }
        };
        let durable = self.settle(ticket);
        Ok((id, durable))
    }

    /// Replaces a document.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`],
    /// [`KdbError::UnknownDocument`] or a journal I/O error.
    pub fn update(&self, collection: &str, id: DocId, doc: Document) -> Result<(), KdbError> {
        self.update_committed(collection, id, doc).map(|_| ())
    }

    /// [`SharedKdb::update`] with a commit receipt (see
    /// [`SharedKdb::insert_committed`]).
    ///
    /// # Errors
    /// As [`SharedKdb::update`].
    pub fn update_committed(
        &self,
        collection: &str,
        id: DocId,
        doc: Document,
    ) -> Result<bool, KdbError> {
        self.mutate_doc(collection, id, move |_| doc)
    }

    /// Atomic read-modify-write: applies `f` to the current document
    /// under the shard write lock, so no concurrent writer can slip
    /// between the read and the update. Returns the commit receipt.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`],
    /// [`KdbError::UnknownDocument`] or a journal I/O error.
    pub fn update_with<F>(&self, collection: &str, id: DocId, f: F) -> Result<bool, KdbError>
    where
        F: FnOnce(&Document) -> Document,
    {
        self.mutate_doc(collection, id, f)
    }

    fn mutate_doc<F>(&self, collection: &str, id: DocId, f: F) -> Result<bool, KdbError>
    where
        F: FnOnce(&Document) -> Document,
    {
        let shard = self.shard(collection)?;
        let ticket = {
            let mut coll = shard.coll.write();
            let prior = coll.get(id).cloned().ok_or(KdbError::UnknownDocument(id))?;
            let doc = f(&prior);
            coll.update(id, doc.clone())?;
            let op = Op::Update {
                name: collection.to_owned(),
                id,
                doc,
            };
            match self.log(&op) {
                Ok(ticket) => {
                    shard.epoch.fetch_add(1, Ordering::Release);
                    ticket
                }
                Err(e) => {
                    coll.update(id, prior).expect("rollback of applied update");
                    return Err(e);
                }
            }
        };
        Ok(self.settle(ticket))
    }

    /// Deletes a document.
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`],
    /// [`KdbError::UnknownDocument`] or a journal I/O error.
    pub fn delete(&self, collection: &str, id: DocId) -> Result<(), KdbError> {
        self.delete_committed(collection, id).map(|_| ())
    }

    /// [`SharedKdb::delete`] with a commit receipt (see
    /// [`SharedKdb::insert_committed`]).
    ///
    /// # Errors
    /// As [`SharedKdb::delete`].
    pub fn delete_committed(&self, collection: &str, id: DocId) -> Result<bool, KdbError> {
        let shard = self.shard(collection)?;
        let ticket = {
            let mut coll = shard.coll.write();
            let prior = coll.get(id).cloned().ok_or(KdbError::UnknownDocument(id))?;
            coll.delete(id)?;
            let op = Op::Delete {
                name: collection.to_owned(),
                id,
            };
            match self.log(&op) {
                Ok(ticket) => {
                    shard.epoch.fetch_add(1, Ordering::Release);
                    ticket
                }
                Err(e) => {
                    coll.insert_with_id(id, prior)
                        .expect("rollback of applied delete");
                    return Err(e);
                }
            }
        };
        Ok(self.settle(ticket))
    }

    /// A write handle implementing [`KdbWrite`] for `&mut`-shaped call
    /// sites (schema helpers, persistence sinks). Holds no lock — every
    /// method locks per op.
    pub fn write(&self) -> KdbWriter<'_> {
        KdbWriter { db: self }
    }

    // -- replication ---------------------------------------------------

    /// Applies one replicated op — exactly as decoded from a primary's
    /// journal frame, preserving assigned document ids — through the
    /// shard and group-commit machinery, so the op is journaled locally
    /// with the same rollback discipline as a native write. Returns the
    /// commit receipt (whether the op is already fsync-covered; schema
    /// ops report `false`, the conservative floor, like
    /// [`SharedKdb::insert_committed`]'s receipt convention).
    ///
    /// A clean replicated stream applied here produces a local journal
    /// byte-identical to the primary's (frame encoding is deterministic
    /// and sequence numbers restart from the same base).
    ///
    /// # Errors
    /// Any native-write error: an op that does not apply (unknown
    /// collection/document, duplicate id) means the stream diverged
    /// from this replica's state and must not be papered over.
    pub fn apply_replicated(&self, op: &Op) -> Result<bool, KdbError> {
        match op {
            Op::CreateCollection { name } => self.create_collection(name).map(|()| false),
            Op::CreateIndex { name, path } => self.create_index(name, path).map(|()| false),
            Op::Insert { name, id, doc } => self.insert_replicated(name, *id, doc.clone()),
            Op::Update { name, id, doc } => self.update_committed(name, *id, doc.clone()),
            Op::Delete { name, id } => self.delete_committed(name, *id),
        }
    }

    /// Insert under a primary-assigned id (the replicated counterpart
    /// of [`SharedKdb::insert_committed`]).
    fn insert_replicated(
        &self,
        collection: &str,
        id: DocId,
        doc: Document,
    ) -> Result<bool, KdbError> {
        let shard = self.shard(collection)?;
        let ticket = {
            let mut coll = shard.coll.write();
            coll.insert_with_id(id, doc.clone())?;
            let op = Op::Insert {
                name: collection.to_owned(),
                id,
                doc,
            };
            match self.log(&op) {
                Ok(ticket) => {
                    shard.epoch.fetch_add(1, Ordering::Release);
                    ticket
                }
                Err(e) => {
                    coll.uninsert(id);
                    return Err(e);
                }
            }
        };
        Ok(self.settle(ticket))
    }

    /// Installs (or removes) the [`JournalTap`] observing this store's
    /// journal — the primary half of journal replication. No-op for
    /// in-memory stores (nothing to ship).
    pub fn set_journal_tap(&self, tap: Option<Arc<dyn JournalTap>>) {
        if let Some(journal_mx) = &self.inner.journal {
            journal_mx.lock().set_tap(tap);
        }
    }

    /// The journal file's current bytes (magic + frame stream), read
    /// under the journal mutex so the image is frame-aligned with any
    /// concurrently registered tap.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] for in-memory stores (no journal) or
    /// when the backing file is unreadable.
    pub fn journal_image(&self) -> Result<Vec<u8>, KdbError> {
        match &self.inner.journal {
            Some(journal_mx) => journal_mx.lock().image(),
            None => Err(KdbError::Io(
                "in-memory store has no journal to replicate".into(),
            )),
        }
    }

    /// Rebuilds this store **in place** from a replicated journal
    /// image's op sequence: fresh collections are replayed from `ops`
    /// off to the side, the journal is atomically rewritten to exactly
    /// those frames (fsynced, so every installed op is durable and the
    /// acked/durable accounting restarts at `ops.len()`), and the shard
    /// registry is swapped wholesale. Concurrent readers see the old
    /// state until the swap and the new state after — never an empty
    /// store.
    ///
    /// This is the re-bootstrap path of a replication follower whose
    /// primary compacted (the shipped image no longer extends the
    /// replica's applied prefix, so prefix arithmetic is meaningless
    /// and the image must be taken as authoritative). The caller must
    /// ensure no concurrent writers — on a follower the replication
    /// engine is the store's only writer.
    ///
    /// # Errors
    /// [`KdbError`] when an op in `ops` does not apply to the state
    /// built so far (nothing is mutated in that case), or a journal
    /// I/O error from the rewrite (in-memory state is then unchanged,
    /// but the journal may be poisoned — as for any failed rewrite).
    pub fn reset_replica(&self, ops: &[Op]) -> Result<(), KdbError> {
        // 1. Validate by building the replacement state off to the side.
        fn coll_mut<'a>(
            map: &'a mut BTreeMap<String, Collection>,
            name: &str,
        ) -> Result<&'a mut Collection, KdbError> {
            map.get_mut(name)
                .ok_or_else(|| KdbError::UnknownCollection(name.to_owned()))
        }
        let mut collections: BTreeMap<String, Collection> = BTreeMap::new();
        for op in ops {
            match op {
                Op::CreateCollection { name } => {
                    if collections.contains_key(name) {
                        return Err(KdbError::CollectionExists(name.clone()));
                    }
                    collections.insert(name.clone(), Collection::new(name.clone()));
                }
                Op::CreateIndex { name, path } => {
                    coll_mut(&mut collections, name)?.create_index(path.clone())?;
                }
                Op::Insert { name, id, doc } => {
                    coll_mut(&mut collections, name)?.insert_with_id(*id, doc.clone())?;
                }
                Op::Update { name, id, doc } => {
                    coll_mut(&mut collections, name)?.update(*id, doc.clone())?;
                }
                Op::Delete { name, id } => {
                    coll_mut(&mut collections, name)?.delete(*id)?;
                }
            }
        }
        // 2. Install the journal first (atomic rename, fsynced) …
        if let Some(journal_mx) = &self.inner.journal {
            journal_mx.lock().reset_to(ops)?;
        }
        // 3. … then swap the shard registry and restart the commit
        //    watermarks at the installed (all-durable) op count.
        let shards = collections
            .into_iter()
            .map(|(name, coll)| (name, Arc::new(Shard::new(coll))))
            .collect();
        *self.inner.shards.write() = shards;
        let mut state = lock(&self.inner.commit);
        state.attempted = ops.len() as u64;
        state.durable = ops.len() as u64;
        state.last_sync = Instant::now();
        drop(state);
        self.inner.commit_cv.notify_all();
        Ok(())
    }

    // -- read path -----------------------------------------------------

    /// A snapshot over the collections that exist now. Nothing is
    /// copied here: each collection is imaged at the snapshot's first
    /// access to it (see [`KdbSnapshot`]).
    pub fn read(&self) -> KdbSnapshot {
        let shards = self.inner.shards.read();
        KdbSnapshot {
            shards: shards
                .iter()
                .map(|(name, shard)| (name.clone(), (Arc::clone(shard), OnceLock::new())))
                .collect(),
        }
    }

    // -- durability & maintenance --------------------------------------

    /// Forces an fsync round, making every acknowledged op durable.
    /// No-op for in-memory stores.
    ///
    /// # Errors
    /// Returns [`KdbError::Io`] when the fsync fails.
    pub fn sync(&self) -> Result<(), KdbError> {
        let Some(journal_mx) = &self.inner.journal else {
            return Ok(());
        };
        let mut journal = journal_mx.lock();
        self.sync_round(&mut journal).result
    }

    /// Compacts the journal to the minimal op sequence reconstructing
    /// the current state. Quiesces every shard (write locks, in name
    /// order) so the rewritten image is a true point-in-time state; on
    /// success every acknowledged op is durable (the image was fsynced).
    ///
    /// # Errors
    /// Returns journal I/O errors.
    pub fn snapshot(&self) -> Result<(), KdbError> {
        let shards = self.inner.shards.read();
        let guards: Vec<(&String, parking_lot::RwLockWriteGuard<'_, Collection>)> = shards
            .iter()
            .map(|(name, shard)| (name, shard.coll.write()))
            .collect();
        let mut ops = Vec::new();
        for (name, coll) in &guards {
            collection_state_ops(name, coll, &mut ops);
        }
        let Some(journal_mx) = &self.inner.journal else {
            return Ok(());
        };
        let mut journal = journal_mx.lock();
        journal.rewrite(&ops)?;
        let end = journal.acked_ops();
        drop(journal);
        let mut state = lock(&self.inner.commit);
        state.attempted = state.attempted.max(end);
        state.durable = state.durable.max(end);
        state.last_sync = Instant::now();
        drop(state);
        self.inner.commit_cv.notify_all();
        Ok(())
    }

    /// Replaces the facade's durability policy for subsequent commits.
    pub fn set_durability(&self, durability: DurabilityPolicy) {
        *self.inner.policy.lock() = durability;
    }

    /// Registers (or, with `None`, removes) the per-round
    /// [`CommitObserver`]. Unset — the default — the commit path is
    /// byte-for-byte the pre-tracing one; the analysis service only
    /// registers an observer when its trace `sample_rate` is non-zero.
    pub fn set_commit_observer(&self, observer: Option<Arc<dyn CommitObserver>>) {
        *self.inner.commit_observer.write() = observer;
    }

    /// The active durability policy.
    pub fn durability(&self) -> DurabilityPolicy {
        *self.inner.policy.lock()
    }

    /// Journal faults observed since open: append failures rolled back
    /// plus group-fsync rounds that failed (each counted once however
    /// many ops it covered). The service watches this to degrade.
    pub fn journal_fault_count(&self) -> u64 {
        self.inner.log_failures.load(Ordering::Relaxed)
            + self.inner.sync_failures.load(Ordering::Relaxed)
    }

    /// Ops acknowledged by the journal since open (0 when in-memory).
    pub fn journal_acked_ops(&self) -> u64 {
        self.inner
            .journal
            .as_ref()
            .map_or(0, |mx| mx.lock().acked_ops())
    }

    /// Ops known fsync-durable since open (0 when in-memory).
    pub fn journal_durable_ops(&self) -> u64 {
        self.inner
            .journal
            .as_ref()
            .map_or(0, |mx| mx.lock().durable_ops())
    }

    /// The corruption report when the store was opened in salvage mode.
    pub fn salvaged(&self) -> Option<&CorruptionReport> {
        self.inner.salvaged.as_ref()
    }

    /// The group committer's counters (batch sizes, flush latency,
    /// failure count) plus the journal's acked/durable watermarks.
    pub fn group_commit_stats(&self) -> GroupCommitSnapshot {
        let mut snap = self.inner.stats.snapshot();
        if let Some(mx) = &self.inner.journal {
            let journal = mx.lock();
            snap.acked_ops = journal.acked_ops();
            snap.durable_ops = journal.durable_ops();
        }
        snap
    }
}

fn lock(mutex: &Mutex<CommitState>) -> std::sync::MutexGuard<'_, CommitState> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Writer handle.
// ---------------------------------------------------------------------

/// A lockless write handle over a [`SharedKdb`] implementing
/// [`KdbWrite`]; every method delegates to the facade's per-op locking.
#[derive(Debug)]
pub struct KdbWriter<'a> {
    db: &'a SharedKdb,
}

impl KdbWrite for KdbWriter<'_> {
    fn create_collection(&mut self, name: &str) -> Result<(), KdbError> {
        self.db.create_collection(name)
    }

    fn ensure_collection(&mut self, name: &str) -> Result<(), KdbError> {
        self.db.ensure_collection(name)
    }

    fn create_index(&mut self, collection: &str, path: &str) -> Result<(), KdbError> {
        self.db.create_index(collection, path)
    }

    fn ensure_index(&mut self, collection: &str, path: &str) -> Result<(), KdbError> {
        self.db.ensure_index(collection, path)
    }

    fn insert(&mut self, collection: &str, doc: Document) -> Result<DocId, KdbError> {
        self.db.insert(collection, doc)
    }

    fn update(&mut self, collection: &str, id: DocId, doc: Document) -> Result<(), KdbError> {
        self.db.update(collection, id, doc)
    }

    fn delete(&mut self, collection: &str, id: DocId) -> Result<(), KdbError> {
        self.db.delete(collection, id)
    }
}

// ---------------------------------------------------------------------
// Snapshot.
// ---------------------------------------------------------------------

/// An immutable view of the collections that existed at
/// [`SharedKdb::read`]. A collection is imaged — pinned — the first time
/// the snapshot is asked for it and never observes a later write; until
/// then it costs nothing. Each image is per-collection consistent;
/// images of *different* collections may straddle concurrent commits
/// (no global barrier). [`KdbSnapshot::state_ops`] and
/// [`KdbSnapshot::fingerprint`] touch every collection. Cheap to clone
/// (`Arc`s).
#[derive(Debug, Clone)]
pub struct KdbSnapshot {
    shards: BTreeMap<String, (Arc<Shard>, OnceLock<Arc<Collection>>)>,
}

impl KdbSnapshot {
    /// Borrows a collection image, taking it on first access.
    pub fn collection(&self, name: &str) -> Option<&Collection> {
        let (shard, image) = self.shards.get(name)?;
        Some(image.get_or_init(|| shard.image()))
    }

    /// Collection names, sorted.
    pub fn collection_names(&self) -> Vec<&str> {
        self.shards.keys().map(String::as_str).collect()
    }

    /// Names of the collections this snapshot has imaged so far, sorted.
    pub fn imaged_collections(&self) -> Vec<&str> {
        self.shards
            .iter()
            .filter(|(_, (_, image))| image.get().is_some())
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Finds documents in a collection (cloned out).
    ///
    /// # Errors
    /// Returns [`KdbError::UnknownCollection`].
    pub fn find(
        &self,
        collection: &str,
        filter: &Filter,
    ) -> Result<Vec<(DocId, Document)>, KdbError> {
        KdbRead::find(self, collection, filter)
    }

    /// The canonical op sequence of this snapshot (see
    /// [`Kdb::state_ops`]).
    pub fn state_ops(&self) -> Vec<Op> {
        KdbRead::state_ops(self)
    }

    /// FNV-1a digest of the snapshot state (see [`Kdb::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        KdbRead::fingerprint(self)
    }
}

impl KdbRead for KdbSnapshot {
    fn collection(&self, name: &str) -> Option<&Collection> {
        KdbSnapshot::collection(self, name)
    }

    fn collection_names(&self) -> Vec<&str> {
        KdbSnapshot::collection_names(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Value;
    use crate::storage::{FaultKind, FaultyStorage, MemStorage, Storage};

    fn item(kind: &str, score: f64) -> Document {
        Document::new().with("kind", kind).with("score", score)
    }

    fn mem_store(policy: DurabilityPolicy) -> (SharedKdb, MemStorage) {
        let mem = MemStorage::new();
        let options = StoreOptions::with_storage(Arc::new(mem.clone())).durability(policy);
        let db = SharedKdb::open_with(Path::new("j"), options).unwrap();
        (db, mem)
    }

    #[test]
    fn crud_round_trip_through_the_facade() {
        let db = SharedKdb::in_memory();
        db.create_collection("items").unwrap();
        db.create_index("items", "kind").unwrap();
        let id = db.insert("items", item("cluster", 0.9)).unwrap();
        db.update("items", id, item("cluster", 0.5)).unwrap();
        let snap = db.read();
        assert_eq!(snap.collection("items").unwrap().len(), 1);
        let found = snap.find("items", &Filter::eq("kind", "cluster")).unwrap();
        assert_eq!(found[0].1.get("score").and_then(Value::as_f64), Some(0.5));
        db.delete("items", id).unwrap();
        assert!(db.read().collection("items").unwrap().is_empty());
        // Stale snapshot still sees the pre-delete image.
        assert_eq!(snap.collection("items").unwrap().len(), 1);
    }

    #[test]
    fn facade_state_matches_plain_kdb_fingerprint() {
        let build = |db: &mut dyn KdbWrite| {
            db.create_collection("a").unwrap();
            db.ensure_index("a", "kind").unwrap();
            db.create_collection("b").unwrap();
            for i in 0..5 {
                db.insert("a", item("x", f64::from(i))).unwrap();
                db.insert("b", item("y", f64::from(i))).unwrap();
            }
            db.delete("a", 2).unwrap();
        };
        let mut plain = Kdb::in_memory();
        build(&mut plain);
        let sharded = SharedKdb::in_memory();
        build(&mut sharded.write());
        assert_eq!(plain.fingerprint(), sharded.read().fingerprint());
    }

    #[test]
    fn reset_replica_installs_an_image_wholesale() {
        // Source store: some history with an update and a delete.
        let (src, _) = mem_store(DurabilityPolicy::Always);
        src.create_collection("items").unwrap();
        src.create_index("items", "kind").unwrap();
        let a = src.insert("items", item("cluster", 0.9)).unwrap();
        let b = src.insert("items", item("pattern", 0.2)).unwrap();
        src.update("items", a, item("cluster", 0.7)).unwrap();
        src.delete("items", b).unwrap();
        src.sync().unwrap();
        let image = src.journal_image().unwrap();
        let ops = crate::journal::replay_bytes(&image, crate::journal::RecoveryMode::Strict)
            .unwrap()
            .ops;

        // Target store holds unrelated state the reset must wipe.
        let (dst, _) = mem_store(DurabilityPolicy::Always);
        dst.create_collection("stale").unwrap();
        dst.insert("stale", item("old", 1.0)).unwrap();
        dst.reset_replica(&ops).unwrap();

        assert_eq!(dst.read().fingerprint(), src.read().fingerprint());
        assert_eq!(
            dst.journal_image().unwrap(),
            image,
            "journal byte-identical"
        );
        assert_eq!(dst.journal_acked_ops(), ops.len() as u64);
        assert_eq!(
            dst.journal_durable_ops(),
            ops.len() as u64,
            "an installed image is fsynced, so every op is durable"
        );
        assert!(dst.read().collection("stale").is_none(), "old state wiped");

        // The rebuilt store keeps working: appends extend the image.
        dst.insert("items", item("fresh", 0.1)).unwrap();
        dst.sync().unwrap();
        assert_eq!(dst.journal_acked_ops(), ops.len() as u64 + 1);
        let replayed = crate::journal::replay_bytes(
            &dst.journal_image().unwrap(),
            crate::journal::RecoveryMode::Strict,
        )
        .unwrap();
        assert_eq!(replayed.ops.len(), ops.len() + 1);

        // An image with a non-applying op is rejected without mutating.
        let before = dst.read().fingerprint();
        let bad = vec![Op::Delete {
            name: "nope".into(),
            id: 1,
        }];
        assert!(dst.reset_replica(&bad).is_err());
        assert_eq!(dst.read().fingerprint(), before);
    }

    #[test]
    fn snapshot_cache_reuses_unchanged_shards() {
        let db = SharedKdb::in_memory();
        db.create_collection("hot").unwrap();
        db.create_collection("cold").unwrap();
        db.insert("cold", item("c", 1.0)).unwrap();
        let image = |snap: &KdbSnapshot, name: &str| {
            snap.collection(name).expect("collection exists");
            Arc::clone(snap.shards[name].1.get().expect("just imaged"))
        };
        let a = db.read();
        let b = db.read();
        assert!(Arc::ptr_eq(&image(&a, "cold"), &image(&b, "cold")));
        let hot_before = image(&a, "hot");
        db.insert("hot", item("h", 1.0)).unwrap();
        let c = db.read();
        assert!(Arc::ptr_eq(&image(&a, "cold"), &image(&c, "cold")));
        assert!(!Arc::ptr_eq(&hot_before, &image(&c, "hot")));
    }

    #[test]
    fn snapshot_images_a_collection_at_first_access_only() {
        let db = SharedKdb::in_memory();
        db.create_collection("sessions").unwrap();
        db.create_collection("other").unwrap();
        db.insert("sessions", item("s", 1.0)).unwrap();
        let snap = db.read();
        assert!(
            snap.imaged_collections().is_empty(),
            "read() copies nothing"
        );
        assert_eq!(snap.collection("sessions").unwrap().len(), 1);
        assert_eq!(snap.imaged_collections(), vec!["sessions"]);
        // Pinned: a later write is never observed.
        db.insert("sessions", item("s", 2.0)).unwrap();
        assert_eq!(snap.collection("sessions").unwrap().len(), 1);
        // A collection created after read() is not part of the snapshot.
        db.create_collection("late").unwrap();
        assert!(snap.collection("late").is_none());
        // The whole-state walks touch everything.
        snap.fingerprint();
        assert_eq!(snap.imaged_collections(), vec!["other", "sessions"]);
    }

    #[test]
    fn group_commit_always_acks_durable_and_persists() {
        let (db, mem) = mem_store(DurabilityPolicy::Always);
        db.create_collection("items").unwrap();
        let (_, durable) = db.insert_committed("items", item("a", 1.0)).unwrap();
        assert!(durable, "Always must ack durable");
        assert_eq!(db.journal_durable_ops(), db.journal_acked_ops());
        let stats = db.group_commit_stats();
        assert!(stats.commits >= 1);
        assert_eq!(stats.failures, 0);
        drop(db);
        let reopened =
            Kdb::open_with(Path::new("j"), StoreOptions::with_storage(Arc::new(mem))).unwrap();
        assert_eq!(reopened.collection("items").unwrap().len(), 1);
    }

    #[test]
    fn concurrent_writers_on_distinct_collections_commit_all_ops() {
        let (db, mem) = mem_store(DurabilityPolicy::Always);
        const WRITERS: usize = 4;
        const OPS: usize = 25;
        for w in 0..WRITERS {
            db.create_collection(&format!("w{w}")).unwrap();
        }
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let db = db.clone();
                scope.spawn(move || {
                    let coll = format!("w{w}");
                    for i in 0..OPS {
                        let (_, durable) =
                            db.insert_committed(&coll, item("row", i as f64)).unwrap();
                        assert!(durable, "Always policy acked non-durable");
                    }
                });
            }
        });
        let acked = db.journal_acked_ops();
        assert_eq!(acked, (WRITERS * (OPS + 1)) as u64);
        assert_eq!(db.journal_durable_ops(), acked);
        let expected = db.read().fingerprint();
        drop(db);
        let reopened =
            Kdb::open_with(Path::new("j"), StoreOptions::with_storage(Arc::new(mem))).unwrap();
        assert_eq!(reopened.fingerprint(), expected);
        for w in 0..WRITERS {
            assert_eq!(reopened.collection(&format!("w{w}")).unwrap().len(), OPS);
        }
    }

    #[test]
    fn failed_append_rolls_back_and_counts_fault() {
        let mem = MemStorage::new();
        let (storage, handle) = FaultyStorage::wrap(Arc::new(mem) as Arc<dyn Storage>);
        let db = SharedKdb::open_with(
            Path::new("j"),
            StoreOptions::with_storage(storage).durability(DurabilityPolicy::Always),
        )
        .unwrap();
        db.create_collection("items").unwrap();
        db.insert("items", item("a", 1.0)).unwrap();
        handle.fail_persistently(FaultKind::NoSpace);
        let err = db.insert("items", item("b", 2.0)).unwrap_err();
        assert!(matches!(err, KdbError::Io(_)));
        assert_eq!(db.journal_fault_count(), 1);
        // Memory rolled back: the second insert left no trace, and the
        // next insert (after the journal is poisoned) also fails.
        assert_eq!(db.read().collection("items").unwrap().len(), 1);
        handle.clear();
        assert!(db.insert("items", item("c", 3.0)).is_err(), "poisoned");
    }

    #[test]
    fn update_with_is_atomic_under_contention() {
        let db = SharedKdb::in_memory();
        db.create_collection("counters").unwrap();
        let id = db
            .insert("counters", Document::new().with("n", 0i64))
            .unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let db = db.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        db.update_with("counters", id, |doc| {
                            let n = doc.get("n").and_then(Value::as_i64).unwrap();
                            doc.clone().with("n", n + 1)
                        })
                        .unwrap();
                    }
                });
            }
        });
        let snap = db.read();
        let doc = snap.collection("counters").unwrap().get(id).unwrap();
        assert_eq!(doc.get("n").and_then(Value::as_i64), Some(400));
    }

    #[test]
    fn batch_policy_syncs_on_the_filling_op() {
        let (db, _mem) = mem_store(DurabilityPolicy::Batch {
            max_ops: 3,
            max_delay: Duration::from_secs(3600),
        });
        db.create_collection("items").unwrap(); // op 1
        let (_, d2) = db.insert_committed("items", item("a", 1.0)).unwrap(); // op 2
        assert!(!d2);
        let (_, d3) = db.insert_committed("items", item("b", 2.0)).unwrap(); // op 3 fills
        assert!(d3, "the op filling the batch acks durable");
        assert_eq!(db.journal_durable_ops(), 3);
        let stats = db.group_commit_stats();
        assert!(stats.commits >= 1);
    }

    #[test]
    fn snapshot_compaction_quiesces_and_makes_all_ops_durable() {
        let (db, mem) = mem_store(DurabilityPolicy::SnapshotOnly);
        db.create_collection("items").unwrap();
        for i in 0..10 {
            db.insert("items", item("k", f64::from(i))).unwrap();
        }
        for id in 1..=5 {
            db.delete("items", id).unwrap();
        }
        assert_eq!(db.journal_durable_ops(), 0);
        let before = mem.len(Path::new("j")).unwrap();
        db.snapshot().unwrap();
        assert!(mem.len(Path::new("j")).unwrap() < before);
        let expected = db.read().fingerprint();
        drop(db);
        let reopened =
            Kdb::open_with(Path::new("j"), StoreOptions::with_storage(Arc::new(mem))).unwrap();
        assert_eq!(reopened.fingerprint(), expected);
    }
}

//! A lock-free span/event tracer.
//!
//! [`Tracer`] is the event transport of the observability layer: each
//! producing thread appends [`TraceEvent`]s to its own single-producer
//! ring buffer, a global atomic sequence number gives the events a
//! total order, and [`Tracer::drain`] merges every ring back into that
//! order on the consumer side. The emit path is wait-free after a
//! thread's first event (one TLS lookup, one `fetch_add` for the
//! sequence, one monotonic clock read, one ring write); only the first
//! event a thread ever emits for a given tracer takes a lock, to
//! register the new ring.
//!
//! A ring lives as long as its producer: when the producing thread
//! exits, its thread-local registry entry marks the ring orphaned, and
//! the next [`Tracer::drain`] takes what the ring still holds and then
//! unregisters it. Short-lived producers (the optimizer's per-K sweep
//! threads) therefore cost a ring only until the next drain, not for
//! the life of the tracer.
//!
//! Rings are bounded: when a producer outruns the consumer the ring
//! drops the *newest* event and counts it ([`Tracer::dropped`]) — the
//! oldest events keep the span-tree roots intact, and a dropped-count
//! of zero certifies a complete trace.
//!
//! Span identity: [`Tracer::next_span_id`] allocates process-unique
//! span ids (starting at 1; 0 is [`PARENT_NONE`]). Start/End events
//! carry the ids; parentage is the caller's contract (the flight
//! recorder tracks the open-stage stack per session).

use std::cell::{RefCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ada_core::control::PipelineStage;
use parking_lot::Mutex;

/// The parent id of a root span (span ids start at 1).
pub const PARENT_NONE: u64 = 0;

/// What a [`TraceEvent`] records.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A span opened. `parent` is the span id of the enclosing span
    /// ([`PARENT_NONE`] for a root).
    Start {
        /// The opened span's id.
        span: u64,
        /// The enclosing span's id, or [`PARENT_NONE`].
        parent: u64,
    },
    /// A span closed after `dur_ns` nanoseconds.
    End {
        /// The closed span's id.
        span: u64,
        /// Wall-clock duration of the span in nanoseconds.
        dur_ns: u64,
    },
    /// A point event with an optional associated duration (queue wait,
    /// retry backoff, cancellation).
    Mark {
        /// Associated duration in nanoseconds (0 when inapplicable).
        dur_ns: u64,
    },
    /// Kernel instrumentation counters attributed to the innermost
    /// open span of the event's stage. Values accumulate.
    Counters {
        /// Stable `(name, value)` pairs.
        pairs: Vec<(&'static str, u64)>,
    },
    /// Attributes attached to one specific span (fsync-round batch
    /// size, leader/follower role, wait-vs-fsync split). Unlike
    /// [`EventKind::Counters`], values *replace* rather than
    /// accumulate, and they bind to a span id instead of "the
    /// innermost open span".
    Annotate {
        /// The annotated span's id.
        span: u64,
        /// Stable `(name, value)` pairs.
        pairs: Vec<(&'static str, u64)>,
    },
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Global sequence number — the authoritative total order.
    pub seq: u64,
    /// Nanoseconds since the tracer's epoch (monotonic clock).
    pub t_ns: u64,
    /// The session the event belongs to.
    pub session: Arc<str>,
    /// The pipeline stage the event is attributed to, if any.
    pub stage: Option<PipelineStage>,
    /// Event name (span name, mark name, or `"counters"`).
    pub name: Arc<str>,
    /// The payload.
    pub kind: EventKind,
}

/// A single-producer ring: the owning thread pushes, [`Tracer::drain`]
/// pops under the registry lock. Capacity is a power of two; a full
/// ring drops the incoming (newest) event and counts it.
struct Ring {
    slots: Box<[UnsafeCell<MaybeUninit<TraceEvent>>]>,
    mask: usize,
    /// Producer cursor (monotonically increasing slot count).
    head: AtomicUsize,
    /// Consumer cursor.
    tail: AtomicUsize,
    dropped: AtomicU64,
    /// Set (Release) when the producer's thread-local entry is dropped —
    /// thread exit, or the tracer closed. No push follows it, so a
    /// consumer that reads it (Acquire) *before* popping has seen the
    /// ring's last event and may unregister the ring.
    orphaned: AtomicBool,
}

// SAFETY: slot `i` is written only by the producing thread while
// `tail <= i < head` excludes it from the consumer, and read only by
// the consumer once `head` (Release-published) covers it. The two
// cursors never address the same slot concurrently.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            slots,
            mask: cap - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            orphaned: AtomicBool::new(false),
        }
    }

    /// Producer-side push (only the owning thread calls this).
    fn push(&self, event: TraceEvent) {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head - tail > self.mask {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: slot is outside [tail, head), so the consumer cannot
        // be reading it; this thread is the only producer.
        unsafe {
            (*self.slots[head & self.mask].get()).write(event);
        }
        self.head.store(head + 1, Ordering::Release);
    }

    /// Consumer-side pop of everything currently visible (called under
    /// the tracer's registry lock — single consumer).
    fn pop_all(&self, out: &mut Vec<TraceEvent>) {
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Relaxed);
        while tail < head {
            // SAFETY: the producer published the slot via the Release
            // store of `head`; it will not rewrite it until `tail`
            // advances past it.
            out.push(unsafe { (*self.slots[tail & self.mask].get()).assume_init_read() });
            tail += 1;
        }
        self.tail.store(tail, Ordering::Release);
    }
}

impl Drop for Ring {
    fn drop(&mut self) {
        // Drain any unconsumed events so their heap payloads free.
        let mut sink = Vec::new();
        self.pop_all(&mut sink);
    }
}

/// State shared between a [`Tracer`], its per-thread rings, and the
/// TLS registry entries that outlive it.
struct TracerShared {
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Drop counts of rings already unregistered by `drain`.
    dropped_retired: AtomicU64,
    closed: AtomicU64,
    ring_capacity: usize,
}

/// Process-unique tracer ids, so one thread can hold rings for several
/// tracers (tests, multiple services in one process).
static TRACER_IDS: AtomicU64 = AtomicU64::new(1);

/// One TLS registry entry: this thread's ring for one tracer. Dropping
/// it — at thread exit, or when pruned after its tracer closed — orphans
/// the ring.
struct LocalRing {
    tracer: u64,
    shared: Arc<TracerShared>,
    ring: Arc<Ring>,
}

impl Drop for LocalRing {
    fn drop(&mut self) {
        self.ring.orphaned.store(true, Ordering::Release);
    }
}

thread_local! {
    /// This thread's rings, keyed by tracer id. Entries for closed
    /// tracers are pruned on the next emit through this registry.
    static LOCAL_RINGS: RefCell<Vec<LocalRing>> =
        const { RefCell::new(Vec::new()) };
}

/// The lock-free span/event tracer (see the module docs).
pub struct Tracer {
    id: u64,
    shared: Arc<TracerShared>,
    seq: AtomicU64,
    span_ids: AtomicU64,
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl Tracer {
    /// A tracer whose per-thread rings hold `ring_capacity` events
    /// (rounded up to a power of two, minimum 2).
    pub fn new(ring_capacity: usize) -> Self {
        Self {
            id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
            shared: Arc::new(TracerShared {
                rings: Mutex::new(Vec::new()),
                dropped_retired: AtomicU64::new(0),
                closed: AtomicU64::new(0),
                ring_capacity,
            }),
            seq: AtomicU64::new(0),
            span_ids: AtomicU64::new(1),
            epoch: Instant::now(),
        }
    }

    /// Allocates a process-unique span id (never [`PARENT_NONE`]).
    pub fn next_span_id(&self) -> u64 {
        self.span_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Nanoseconds since the tracer's epoch (monotonic).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Emits one event from the calling thread (wait-free after the
    /// thread's first emit for this tracer).
    pub fn emit(
        &self,
        session: &Arc<str>,
        stage: Option<PipelineStage>,
        name: &Arc<str>,
        kind: EventKind,
    ) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            seq,
            t_ns: self.now_ns(),
            session: Arc::clone(session),
            stage,
            name: Arc::clone(name),
            kind,
        };
        LOCAL_RINGS.with(|cell| {
            let mut local = cell.borrow_mut();
            // Prune rings of dropped tracers while we're here.
            local.retain(|entry| entry.shared.closed.load(Ordering::Relaxed) == 0);
            if let Some(entry) = local.iter().find(|entry| entry.tracer == self.id) {
                entry.ring.push(event);
                return;
            }
            let ring = Arc::new(Ring::new(self.shared.ring_capacity));
            self.shared.rings.lock().push(Arc::clone(&ring));
            ring.push(event);
            local.push(LocalRing {
                tracer: self.id,
                shared: Arc::clone(&self.shared),
                ring,
            });
        });
    }

    /// Removes every currently visible event from every thread's ring
    /// and returns them merged in sequence order. Rings whose producer
    /// has exited are unregistered once emptied.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut rings = self.shared.rings.lock();
        let mut out = Vec::new();
        rings.retain(|ring| {
            // Flag first, then pop: see `Ring::orphaned`.
            let orphaned = ring.orphaned.load(Ordering::Acquire);
            ring.pop_all(&mut out);
            if orphaned {
                self.shared
                    .dropped_retired
                    .fetch_add(ring.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            !orphaned
        });
        drop(rings);
        out.sort_unstable_by_key(|e| e.seq);
        out
    }

    /// Total events dropped because a ring was full.
    pub fn dropped(&self) -> u64 {
        // Under the registry lock, so a ring is counted exactly once
        // while `drain` moves its count to `dropped_retired`.
        let rings = self.shared.rings.lock();
        let live: u64 = rings
            .iter()
            .map(|r| r.dropped.load(Ordering::Relaxed))
            .sum();
        live + self.shared.dropped_retired.load(Ordering::Relaxed)
    }

    /// Rings currently registered: one per thread that has emitted and
    /// not yet exited, plus exited threads' rings awaiting the next
    /// [`drain`](Tracer::drain).
    pub fn ring_count(&self) -> usize {
        self.shared.rings.lock().len()
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        self.shared.closed.store(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn events_drain_in_sequence_order() {
        let tracer = Tracer::new(64);
        let session = arc("s");
        for i in 0..10u64 {
            let span = tracer.next_span_id();
            tracer.emit(
                &session,
                None,
                &arc(&format!("e{i}")),
                EventKind::Start {
                    span,
                    parent: PARENT_NONE,
                },
            );
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 10);
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].t_ns <= pair[1].t_ns);
        }
        // Draining again yields nothing.
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn multi_thread_emits_merge_by_seq_without_loss() {
        let tracer = Arc::new(Tracer::new(4096));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let tracer = Arc::clone(&tracer);
                std::thread::spawn(move || {
                    let session = arc(&format!("s{t}"));
                    let name = arc("tick");
                    for _ in 0..1000 {
                        tracer.emit(&session, None, &name, EventKind::Mark { dur_ns: 0 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 4000);
        assert_eq!(tracer.dropped(), 0);
        // Sequence numbers are a permutation of 0..4000.
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 4000);
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn full_ring_drops_newest_and_counts() {
        let tracer = Tracer::new(8);
        let session = arc("s");
        let name = arc("m");
        for _ in 0..20 {
            tracer.emit(&session, None, &name, EventKind::Mark { dur_ns: 1 });
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 8);
        assert_eq!(tracer.dropped(), 12);
        // The oldest events survived (drop-newest policy keeps roots).
        assert_eq!(events[0].seq, 0);
        assert_eq!(events.last().unwrap().seq, 7);
    }

    #[test]
    fn exited_thread_leaves_no_ring_and_loses_no_event() {
        let tracer = Arc::new(Tracer::new(16));
        let session = arc("s");
        let name = arc("m");
        tracer.emit(&session, None, &name, EventKind::Mark { dur_ns: 0 });
        for round in 1..=3u64 {
            let worker = {
                let (tracer, session, name) = (Arc::clone(&tracer), session.clone(), name.clone());
                std::thread::spawn(move || {
                    // Overflow the ring too: the drop count must outlive it.
                    for _ in 0..20 {
                        tracer.emit(&session, None, &name, EventKind::Mark { dur_ns: round });
                    }
                })
            };
            worker.join().unwrap();
            // The exited thread's ring is still registered, events intact…
            assert_eq!(tracer.ring_count(), 2, "round {round}");
            let events = tracer.drain();
            let from_worker = events
                .iter()
                .filter(|e| e.kind == EventKind::Mark { dur_ns: round })
                .count();
            assert_eq!(from_worker, 16, "round {round}: the ring held 16 events");
            // …and gone after the drain; this (live) thread's ring stays.
            assert_eq!(tracer.ring_count(), 1, "round {round}");
            assert_eq!(
                tracer.dropped(),
                4 * round,
                "drop counts survive their ring"
            );
        }
        tracer.emit(&session, None, &name, EventKind::Mark { dur_ns: 9 });
        assert_eq!(tracer.drain().len(), 1, "the live ring still works");
    }

    #[test]
    fn span_ids_are_unique_and_nonzero() {
        let tracer = Tracer::new(8);
        let a = tracer.next_span_id();
        let b = tracer.next_span_id();
        assert_ne!(a, PARENT_NONE);
        assert_ne!(a, b);
    }

    #[test]
    fn two_tracers_on_one_thread_stay_separate() {
        let t1 = Tracer::new(16);
        let t2 = Tracer::new(16);
        let session = arc("s");
        let name = arc("m");
        t1.emit(&session, None, &name, EventKind::Mark { dur_ns: 1 });
        t2.emit(&session, None, &name, EventKind::Mark { dur_ns: 2 });
        t2.emit(&session, None, &name, EventKind::Mark { dur_ns: 3 });
        assert_eq!(t1.drain().len(), 1);
        assert_eq!(t2.drain().len(), 2);
    }

    #[test]
    fn drain_interleaved_with_emission_loses_nothing() {
        let tracer = Arc::new(Tracer::new(1024));
        let total = Arc::new(AtomicU64::new(0));
        let producer = {
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                let session = arc("p");
                let name = arc("m");
                for _ in 0..5000 {
                    tracer.emit(&session, None, &name, EventKind::Mark { dur_ns: 0 });
                }
            })
        };
        while !producer.is_finished() {
            total.fetch_add(tracer.drain().len() as u64, Ordering::Relaxed);
        }
        producer.join().unwrap();
        total.fetch_add(tracer.drain().len() as u64, Ordering::Relaxed);
        assert_eq!(
            total.load(Ordering::Relaxed) + tracer.dropped(),
            5000,
            "every emitted event is either drained or counted dropped"
        );
    }
}

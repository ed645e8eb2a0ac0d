//! The concurrent front door: a bounded, backpressured ingestion
//! channel in front of a [`StreamEngine`].
//!
//! Producers (wire handlers, the example feed, benches) enqueue
//! batches without blocking the engine; a dedicated worker thread
//! drains them in arrival order. The channel is bounded by
//! [`crate::StreamConfig::channel_capacity`] — a full channel rejects
//! the batch instead of buffering unboundedly, which the service layer
//! maps to its standard `Busy` backpressure signal.
//!
//! Reads are *read-your-writes*: [`StreamHandle::status`] and
//! [`StreamHandle::seal`] flush everything enqueued before them, so a
//! caller that saw its batch accepted sees that batch's effect in the
//! next query.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use ada_dataset::ExamRecord;
use ada_kdb::Document;

use crate::engine::StreamEngine;
use crate::error::StreamError;

/// Why a batch was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestRejected {
    /// The bounded channel is full: back off and retry.
    Full,
    /// The stream was closed (service shutdown or explicit close).
    Closed,
    /// The worker hit a persistent fault (e.g. a checkpoint write
    /// failed); the stream is poisoned and reports the first error.
    Fault(String),
}

impl std::fmt::Display for IngestRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestRejected::Full => write!(f, "ingestion channel full"),
            IngestRejected::Closed => write!(f, "stream closed"),
            IngestRejected::Fault(msg) => write!(f, "stream faulted: {msg}"),
        }
    }
}

/// A successful enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// Records accepted in this batch.
    pub accepted: usize,
    /// Batches enqueued but not yet drained (including this one).
    pub pending: usize,
}

enum Op {
    Ingest(Vec<ExamRecord>),
    Seal,
}

struct Shared {
    /// Batches enqueued and not yet fully processed.
    pending: Mutex<usize>,
    drained: Condvar,
    /// First worker error, if any (poisons the stream).
    fault: Mutex<Option<String>>,
}

/// Thread-safe handle over a [`StreamEngine`]: bounded ingestion plus
/// flushing queries. Cloning is cheap (it is an `Arc` inside); the
/// worker stops when [`StreamHandle::close`] runs or the last handle
/// drops.
pub struct StreamHandle {
    engine: Arc<Mutex<StreamEngine>>,
    sender: Mutex<Option<SyncSender<Op>>>,
    shared: Arc<Shared>,
    worker: Mutex<Option<JoinHandle<()>>>,
    name: String,
    capacity: usize,
}

impl StreamHandle {
    /// Wraps an opened engine, spawning the drain worker.
    pub fn spawn(engine: StreamEngine) -> Arc<Self> {
        let capacity = engine.config().channel_capacity.max(1);
        let name = engine.config().name.clone();
        let engine = Arc::new(Mutex::new(engine));
        let shared = Arc::new(Shared {
            pending: Mutex::new(0),
            drained: Condvar::new(),
            fault: Mutex::new(None),
        });
        let (sender, receiver) = sync_channel::<Op>(capacity);
        let worker = {
            let engine = Arc::clone(&engine);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ada-stream-{name}"))
                .spawn(move || drain(&engine, &shared, &receiver))
                .expect("spawn stream worker")
        };
        Arc::new(Self {
            engine,
            sender: Mutex::new(Some(sender)),
            shared,
            worker: Mutex::new(Some(worker)),
            name,
            capacity,
        })
    }

    /// The stream's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bounded channel's capacity in batches (the backpressure
    /// threshold reported alongside `Full` rejections).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues a batch without blocking. A full channel rejects with
    /// [`IngestRejected::Full`] — that is the backpressure contract.
    pub fn try_ingest(&self, records: Vec<ExamRecord>) -> Result<IngestAck, IngestRejected> {
        if let Some(msg) = self.shared.fault.lock().unwrap().clone() {
            return Err(IngestRejected::Fault(msg));
        }
        let accepted = records.len();
        let sender = self.sender.lock().unwrap();
        let Some(sender) = sender.as_ref() else {
            return Err(IngestRejected::Closed);
        };
        // Count before sending so a racing flush cannot observe the
        // batch in the channel but not in `pending`.
        let mut pending = self.shared.pending.lock().unwrap();
        *pending += 1;
        match sender.try_send(Op::Ingest(records)) {
            Ok(()) => Ok(IngestAck {
                accepted,
                pending: *pending,
            }),
            Err(err) => {
                *pending -= 1;
                match err {
                    TrySendError::Full(_) => Err(IngestRejected::Full),
                    TrySendError::Disconnected(_) => Err(IngestRejected::Closed),
                }
            }
        }
    }

    /// Blocks until every batch enqueued before this call has been
    /// drained into the engine, then surfaces any worker fault.
    pub fn flush(&self) -> Result<(), StreamError> {
        let mut pending = self.shared.pending.lock().unwrap();
        while *pending > 0 {
            pending = self.shared.drained.wait(pending).unwrap();
        }
        drop(pending);
        match self.shared.fault.lock().unwrap().clone() {
            Some(msg) => Err(StreamError::Corrupt(msg)),
            None => Ok(()),
        }
    }

    /// Flushes, then closes every buffered window regardless of the
    /// watermark (end of feed).
    ///
    /// # Errors
    /// [`StreamError::Closed`] once [`StreamHandle::close`] has run;
    /// worker faults and checkpoint persistence failures.
    pub fn seal(&self) -> Result<(), StreamError> {
        {
            let guard = self.sender.lock().unwrap();
            let Some(sender) = guard.as_ref() else {
                return Err(StreamError::Closed);
            };
            // Never block inside `send` while holding the `pending`
            // mutex: the worker needs it to finish an op (and free
            // channel space), which would deadlock against a full
            // channel. Wait for room on the `drained` condvar instead —
            // the worker signals it after every op.
            let mut pending = self.shared.pending.lock().unwrap();
            loop {
                *pending += 1;
                match sender.try_send(Op::Seal) {
                    Ok(()) => break,
                    Err(TrySendError::Full(_)) => {
                        *pending -= 1;
                        pending = self.shared.drained.wait(pending).unwrap();
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        *pending -= 1;
                        return Err(StreamError::Closed);
                    }
                }
            }
        }
        self.flush()
    }

    /// Flushes and returns the stream's status document
    /// (read-your-writes: reflects every batch accepted before this
    /// call).
    ///
    /// # Errors
    /// Worker faults surfaced by the flush.
    pub fn status(&self) -> Result<Document, StreamError> {
        self.flush()?;
        Ok(self.engine.lock().unwrap().status_document())
    }

    /// Flushes and runs `f` against the engine (model queries, forced
    /// re-fits).
    ///
    /// # Errors
    /// Worker faults surfaced by the flush.
    pub fn with_engine<T>(&self, f: impl FnOnce(&mut StreamEngine) -> T) -> Result<T, StreamError> {
        self.flush()?;
        Ok(f(&mut self.engine.lock().unwrap()))
    }

    /// Drains outstanding work and stops the worker. Idempotent; the
    /// handle rejects ingestion afterwards. Does *not* seal — buffered
    /// windows stay buffered (their records are pre-watermark and will
    /// be re-delivered on resume by a replaying source).
    pub fn close(&self) {
        let sender = self.sender.lock().unwrap().take();
        drop(sender);
        if let Some(worker) = self.worker.lock().unwrap().take() {
            let _ = worker.join();
        }
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        self.close();
    }
}

/// The worker loop: apply operations in arrival order, record the
/// first fault, signal the flush barrier after every operation.
fn drain(engine: &Mutex<StreamEngine>, shared: &Shared, receiver: &Receiver<Op>) {
    while let Ok(op) = receiver.recv() {
        let result = {
            let mut engine = engine.lock().unwrap();
            match op {
                Op::Ingest(records) => engine.ingest(&records),
                Op::Seal => engine.seal(),
            }
        };
        if let Err(err) = result {
            let mut fault = shared.fault.lock().unwrap();
            if fault.is_none() {
                *fault = Some(err.to_string());
            }
        }
        let mut pending = shared.pending.lock().unwrap();
        *pending = pending.saturating_sub(1);
        shared.drained.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StreamConfig;
    use ada_dataset::{Date, ExamTypeId, PatientId};

    fn rec(patient: u32, exam: u32, month: u8, day: u8) -> ExamRecord {
        ExamRecord::new(
            PatientId(patient),
            ExamTypeId(exam),
            Date::new(2015, month, day).unwrap(),
        )
    }

    #[test]
    fn handle_matches_direct_engine_state() {
        let config = StreamConfig::new("h")
            .window_days(7)
            .lateness_days(3)
            .k(2)
            .min_rows(2);
        let feed = vec![
            rec(0, 0, 1, 2),
            rec(1, 1, 1, 4),
            rec(0, 1, 1, 12),
            rec(2, 0, 1, 20),
            rec(1, 0, 2, 3),
        ];
        let handle = StreamHandle::spawn(StreamEngine::new(config.clone()));
        for batch in feed.chunks(2) {
            handle.try_ingest(batch.to_vec()).unwrap();
        }
        handle.seal().unwrap();
        let via_handle = handle
            .with_engine(|e| (e.vsm_fingerprint(), e.model_fingerprint()))
            .unwrap();
        handle.close();

        let mut direct = StreamEngine::new(config);
        direct.ingest(&feed).unwrap();
        direct.seal().unwrap();
        assert_eq!(
            via_handle,
            (direct.vsm_fingerprint(), direct.model_fingerprint())
        );
    }

    #[test]
    fn seal_survives_a_saturated_channel() {
        // Regression: seal once blocked inside `send` while holding the
        // `pending` mutex, deadlocking against a full channel whose
        // worker needed that mutex to free a slot. Hammer a capacity-1
        // channel so seal frequently races a full buffer.
        let handle = StreamHandle::spawn(StreamEngine::new(
            StreamConfig::new("full")
                .window_days(7)
                .lateness_days(3)
                .channel_capacity(1),
        ));
        let mut sent = 0u64;
        for i in 0..400u32 {
            let batch = vec![rec(i % 11, i % 5, 1 + (i % 6) as u8, 1 + (i % 27) as u8)];
            loop {
                match handle.try_ingest(batch.clone()) {
                    Ok(_) => {
                        sent += 1;
                        break;
                    }
                    Err(IngestRejected::Full) => std::thread::yield_now(),
                    Err(other) => panic!("unexpected rejection: {other}"),
                }
            }
            if i % 40 == 0 {
                handle.seal().unwrap();
            }
        }
        handle.seal().unwrap();
        let status = handle.status().unwrap();
        assert_eq!(status.get("ingested").unwrap().as_i64(), Some(sent as i64));
        handle.close();
    }

    #[test]
    fn status_is_read_your_writes_and_close_rejects() {
        let handle = StreamHandle::spawn(StreamEngine::new(
            StreamConfig::new("s").window_days(7).lateness_days(3),
        ));
        let ack = handle
            .try_ingest(vec![rec(0, 0, 1, 2), rec(1, 0, 1, 3)])
            .unwrap();
        assert_eq!(ack.accepted, 2);
        let status = handle.status().unwrap();
        assert_eq!(status.get("ingested").unwrap().as_i64(), Some(2));
        handle.close();
        assert_eq!(
            handle.try_ingest(vec![rec(2, 0, 1, 4)]),
            Err(IngestRejected::Closed)
        );
        assert!(matches!(handle.seal(), Err(StreamError::Closed)));
    }
}

//! The bounded, prioritized job queue feeding the worker pool.
//!
//! Storage is a binary heap ordered by `(priority, submission order)`
//! behind one mutex. Idle workers park on a condition variable of that
//! same mutex, so a push wakes one of them and nothing spins. Closing
//! the queue wakes them all; each keeps popping until the heap is
//! empty, so graceful shutdown drains the backlog before workers exit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

use crate::job::Priority;

struct QueuedJob<T> {
    priority: Priority,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for QueuedJob<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for QueuedJob<T> {}
impl<T> PartialOrd for QueuedJob<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueuedJob<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: higher priority first, then lower seq (FIFO within
        // a priority class).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A bounded priority queue whose workers block in [`JobQueue::pop`].
pub(crate) struct JobQueue<T> {
    heap: Mutex<Heap<T>>,
    ready: Condvar,
    capacity: usize,
}

struct Heap<T> {
    jobs: BinaryHeap<QueuedJob<T>>,
    next_seq: u64,
    closed: bool,
}

impl<T> JobQueue<T> {
    pub(crate) fn bounded(capacity: usize) -> Self {
        Self {
            heap: Mutex::new(Heap {
                jobs: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues a job, or refuses with the queue's capacity
    /// (backpressure — the service layers a retry hint on top to build
    /// the caller-facing `ServiceError::Busy`).
    pub(crate) fn push(&self, priority: Priority, payload: T) -> Result<(), usize> {
        let mut heap = self.heap.lock().expect("queue lock");
        if heap.jobs.len() >= self.capacity {
            return Err(self.capacity);
        }
        let seq = heap.next_seq;
        heap.next_seq += 1;
        heap.jobs.push(QueuedJob {
            priority,
            seq,
            payload,
        });
        drop(heap);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is queued and pops the highest-priority one;
    /// `None` once the queue is closed and empty.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut heap = self.heap.lock().expect("queue lock");
        loop {
            if let Some(job) = heap.jobs.pop() {
                return Some(job.payload);
            }
            if heap.closed {
                return None;
            }
            heap = self.ready.wait(heap).expect("queue lock");
        }
    }

    /// Current queue depth.
    pub(crate) fn len(&self) -> usize {
        self.heap.lock().expect("queue lock").jobs.len()
    }

    /// Wakes every parked worker to drain what is queued and stop.
    pub(crate) fn close(&self) {
        self.heap.lock().expect("queue lock").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn orders_by_priority_then_fifo() {
        let q = JobQueue::bounded(8);
        q.push(Priority::Low, "low-1").unwrap();
        q.push(Priority::High, "high-1").unwrap();
        q.push(Priority::Normal, "norm-1").unwrap();
        q.push(Priority::High, "high-2").unwrap();
        q.close();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec!["high-1", "high-2", "norm-1", "low-1"]);
    }

    #[test]
    fn refuses_beyond_capacity() {
        let q = JobQueue::bounded(2);
        q.push(Priority::Normal, 1).unwrap();
        q.push(Priority::Normal, 2).unwrap();
        assert_eq!(q.push(Priority::Normal, 3), Err(2));
        assert_eq!(q.len(), 2);
        q.pop();
        q.push(Priority::Normal, 3).unwrap();
    }

    #[test]
    fn a_parked_worker_wakes_for_a_push_and_for_close() {
        let q = Arc::new(JobQueue::bounded(4));
        let worker = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop(), q.pop()))
        };
        // Give the worker time to park on the empty queue first.
        std::thread::sleep(Duration::from_millis(50));
        q.push(Priority::Normal, 7).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(worker.join().unwrap(), (Some(7), None));
    }

    #[test]
    fn close_drains_queued_jobs_before_workers_exit() {
        let q = Arc::new(JobQueue::bounded(8));
        for i in 0..6 {
            q.push(Priority::Normal, i).unwrap();
        }
        q.close();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || std::iter::from_fn(|| q.pop()).collect::<Vec<_>>())
            })
            .collect();
        let mut drained: Vec<i32> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 0);
    }
}

//! The session registry: lifecycle state for every submitted session.
//!
//! One mutex guards every entry; workers' transitions, every `Status`
//! poll and the metrics snapshot all take it, so nothing under it may
//! copy a report. Reports sit behind `Arc`: [`SessionRegistry::state`]
//! and [`SessionRegistry::sessions`] bump a count, and
//! [`SessionRegistry::labels`] does not touch reports at all.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

use ada_core::SessionReport;
use ada_signals::SignalSessionReport;
use ada_stream::StreamReport;

use crate::cancel::CancelToken;
use crate::error::ServiceError;

/// Opaque identifier of one submitted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// What a completed session produced, by workload. Either variant is
/// the same value a serial run of the same spec produces — concurrency
/// changes wall-clock, never results. Reports are shared: cloning an
/// outcome bumps a reference count.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcome {
    /// A full seven-stage pipeline run.
    Pipeline(Arc<SessionReport>),
    /// A safety-signal mining run.
    Signals(Arc<SignalSessionReport>),
    /// A streaming ingestion + incremental mining run.
    Stream(Arc<StreamReport>),
}

impl SessionOutcome {
    /// The pipeline report, if this was a pipeline session.
    pub fn pipeline(&self) -> Option<&SessionReport> {
        match self {
            SessionOutcome::Pipeline(report) => Some(report),
            _ => None,
        }
    }

    /// The signal-mining report, if this was a signals session.
    pub fn signals(&self) -> Option<&SignalSessionReport> {
        match self {
            SessionOutcome::Signals(report) => Some(report),
            _ => None,
        }
    }

    /// The stream-mining report, if this was a streaming session.
    pub fn stream(&self) -> Option<&StreamReport> {
        match self {
            SessionOutcome::Stream(report) => Some(report),
            _ => None,
        }
    }
}

/// Lifecycle of a session:
/// `Queued → Running → Completed | Failed | Cancelled`.
///
/// `Running` may recur with increasing `attempt` when retries kick in;
/// the other three states are terminal.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionState {
    /// Accepted and waiting for a worker.
    Queued,
    /// Executing its `attempt`-th try (0-based).
    Running {
        /// 0-based attempt counter (> 0 after retries).
        attempt: u32,
    },
    /// Finished; the outcome is the same value a serial run produces.
    Completed(SessionOutcome),
    /// Gave up: panicked past the retry budget, or exceeded its deadline.
    Failed {
        /// Human-readable failure cause.
        reason: String,
    },
    /// Cancellation was observed at a pipeline checkpoint (or before the
    /// session started).
    Cancelled,
}

impl SessionState {
    /// Whether the state is terminal (no further transitions).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            SessionState::Completed(_) | SessionState::Failed { .. } | SessionState::Cancelled
        )
    }

    /// Short state label for summaries (`queued`, `running`,
    /// `completed`, `failed`, `cancelled`).
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Queued => "queued",
            SessionState::Running { .. } => "running",
            SessionState::Completed(_) => "completed",
            SessionState::Failed { .. } => "failed",
            SessionState::Cancelled => "cancelled",
        }
    }
}

struct Entry {
    name: String,
    state: SessionState,
    cancel: CancelToken,
}

/// Tracks every session's lifecycle; blocking waits are condvar-based.
#[derive(Default)]
pub struct SessionRegistry {
    inner: Mutex<Inner>,
    changed: Condvar,
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    entries: BTreeMap<SessionId, Entry>,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new session in the `Queued` state and returns its id.
    pub fn register(&self, name: impl Into<String>, cancel: CancelToken) -> SessionId {
        let mut inner = self.inner.lock().expect("registry lock");
        let id = SessionId(inner.next_id);
        inner.next_id += 1;
        inner.entries.insert(
            id,
            Entry {
                name: name.into(),
                state: SessionState::Queued,
                cancel,
            },
        );
        id
    }

    /// Removes a session that never ran (submission rolled back).
    pub(crate) fn remove(&self, id: SessionId) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.entries.remove(&id);
    }

    /// Moves a session to a new state and wakes waiters.
    ///
    /// Terminal states are sticky: once a session completed, failed, or
    /// was cancelled, further transitions are ignored.
    pub fn transition(&self, id: SessionId, state: SessionState) {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(entry) = inner.entries.get_mut(&id) {
            if !entry.state.is_terminal() {
                entry.state = state;
                self.changed.notify_all();
            }
        }
    }

    /// The current state of a session.
    pub fn state(&self, id: SessionId) -> Result<SessionState, ServiceError> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .entries
            .get(&id)
            .map(|e| e.state.clone())
            .ok_or(ServiceError::UnknownSession(id))
    }

    /// The session's cancellation token.
    pub fn cancel_token(&self, id: SessionId) -> Result<CancelToken, ServiceError> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .entries
            .get(&id)
            .map(|e| e.cancel.clone())
            .ok_or(ServiceError::UnknownSession(id))
    }

    /// Blocks until the session reaches a terminal state, then returns it.
    pub fn wait(&self, id: SessionId) -> Result<SessionState, ServiceError> {
        let mut inner = self.inner.lock().expect("registry lock");
        loop {
            match inner.entries.get(&id) {
                None => return Err(ServiceError::UnknownSession(id)),
                Some(entry) if entry.state.is_terminal() => return Ok(entry.state.clone()),
                Some(_) => {
                    inner = self.changed.wait(inner).expect("registry lock");
                }
            }
        }
    }

    /// Every session as `(id, session name, state)`, id-ordered.
    pub fn sessions(&self) -> Vec<(SessionId, String, SessionState)> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .entries
            .iter()
            .map(|(id, e)| (*id, e.name.clone(), e.state.clone()))
            .collect()
    }

    /// Every session as `(id, session name, state label)`, id-ordered —
    /// the metrics snapshot's listing, which needs no report.
    pub fn labels(&self) -> Vec<(SessionId, String, &'static str)> {
        let inner = self.inner.lock().expect("registry lock");
        inner
            .entries
            .iter()
            .map(|(id, e)| (*id, e.name.clone(), e.state.label()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_stream::{StreamConfig, StreamEngine};

    #[test]
    fn lifecycle_transitions_and_sticky_terminals() {
        let reg = SessionRegistry::new();
        let id = reg.register("a", CancelToken::new());
        assert_eq!(reg.state(id).unwrap(), SessionState::Queued);
        reg.transition(id, SessionState::Running { attempt: 0 });
        assert_eq!(reg.state(id).unwrap().label(), "running");
        reg.transition(id, SessionState::Cancelled);
        // Terminal states win races against late transitions.
        reg.transition(
            id,
            SessionState::Failed {
                reason: "late".into(),
            },
        );
        assert_eq!(reg.state(id).unwrap(), SessionState::Cancelled);
    }

    #[test]
    fn unknown_sessions_are_reported() {
        let reg = SessionRegistry::new();
        assert_eq!(
            reg.state(SessionId(9)),
            Err(ServiceError::UnknownSession(SessionId(9)))
        );
        assert!(reg.wait(SessionId(9)).is_err());
    }

    #[test]
    fn wait_unblocks_on_terminal_transition() {
        let reg = Arc::new(SessionRegistry::new());
        let id = reg.register("w", CancelToken::new());
        let waiter = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || reg.wait(id).unwrap())
        };
        reg.transition(id, SessionState::Running { attempt: 0 });
        reg.transition(
            id,
            SessionState::Failed {
                reason: "boom".into(),
            },
        );
        assert_eq!(waiter.join().unwrap().label(), "failed");
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let reg = SessionRegistry::new();
        let a = reg.register("a", CancelToken::new());
        let b = reg.register("b", CancelToken::new());
        assert!(a < b);
        assert_eq!(reg.sessions().len(), 2);
        reg.remove(a);
        assert_eq!(reg.sessions().len(), 1);
    }

    #[test]
    fn reads_of_a_completed_session_share_one_report_allocation() {
        let reg = SessionRegistry::new();
        let report = || StreamReport::from_engine(&StreamEngine::new(StreamConfig::new("idle")));
        let ids: Vec<SessionId> = (0..1_000)
            .map(|i| {
                let id = reg.register(format!("s-{i}"), CancelToken::new());
                let outcome = SessionOutcome::Stream(Arc::new(report()));
                reg.transition(id, SessionState::Completed(outcome));
                id
            })
            .collect();
        let shared = |state: &SessionState| match state {
            SessionState::Completed(SessionOutcome::Stream(report)) => Arc::clone(report),
            other => panic!("expected a completed stream session, got {other:?}"),
        };
        // Two state() reads: the same allocation, not two copies.
        let (a, b) = (reg.state(ids[7]).unwrap(), reg.state(ids[7]).unwrap());
        assert!(Arc::ptr_eq(&shared(&a), &shared(&b)));
        // sessions() over 1,000 completed sessions clones no report.
        let first = reg.sessions();
        let second = reg.sessions();
        assert_eq!(first.len(), 1_000);
        for ((_, _, x), (_, _, y)) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(&shared(x), &shared(y)));
        }
        let labels = reg.labels();
        assert_eq!(labels.len(), 1_000);
        assert_eq!(labels[7], (ids[7], "s-7".to_owned(), "completed"));
    }
}

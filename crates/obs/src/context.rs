//! Request-scoped trace identity and deterministic sampling.
//!
//! A [`TraceContext`] names one end-to-end request: a 128-bit trace id,
//! the id of the span that created it (the client's submit span, when
//! the context crossed the ADAN1 wire), and the sampling decision. The
//! context is minted exactly once — at `Client::submit` for remote
//! callers or at `JobSpec` creation for in-process ones — and then
//! carried unchanged through the net server, the job queue, the worker,
//! the pipeline observers, and the K-DB group committer.
//!
//! Sampling is *seeded-deterministic*: the decision is a pure function
//! of `(seed, session name, rate)` via a SplitMix64 finalizer, so the
//! same submission samples identically on every run, on the client and
//! on the server, with no shared RNG and no ambient entropy. Rate 0
//! never samples (and mints nothing at all — the byte-identity
//! invariant), rate ≥ 1 always samples.
//!
//! Worker threads publish the context of the session they are executing
//! through a thread-local [`TraceScope`], which is how layers below the
//! observer seam (the group committer's fsync rounds in `ada-kdb`)
//! attribute their spans to the right session without any signature
//! changes on the mutator path.

use std::cell::RefCell;
use std::sync::Arc;

use ada_kdb::Document;

/// SplitMix64 finalizer: a bijective avalanche mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the session name — the stable identity sampling keys on.
fn session_hash(session: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in session.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The sampling draw for `(seed, session)`: a uniform value in `[0, 1)`
/// with 53 bits of precision.
fn draw(seed: u64, session: &str) -> f64 {
    let z = mix(seed ^ session_hash(session).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (z >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// A request-scoped trace identity: 128-bit trace id, originating span
/// id, and the sampling decision. Copyable and wire-encodable; absent
/// on the wire ≡ unsampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// High 64 bits of the 128-bit trace id.
    pub trace_hi: u64,
    /// Low 64 bits of the 128-bit trace id.
    pub trace_lo: u64,
    /// Id of the span that minted or last extended the context (the
    /// client submit span when the context arrived over the wire).
    pub span_id: u64,
    /// Whether this request records spans. An unsampled context
    /// propagates its identity but produces no trace document.
    pub sampled: bool,
}

impl TraceContext {
    /// The deterministic sampling decision for `(seed, session)` at
    /// `rate`: same inputs, same answer, forever. Rate 0 (or anything
    /// non-positive) never samples; rate ≥ 1 always samples.
    pub fn decision(seed: u64, session: &str, rate: f64) -> bool {
        draw(seed, session) < rate
    }

    /// Mints the context for one submission, or `None` when the
    /// deterministic decision at `rate` is "don't sample". The trace id
    /// is itself derived from `(seed, session)`, so a re-run of the
    /// same submission carries the same id — reproducibility extends to
    /// the traces.
    pub fn mint(seed: u64, session: &str, rate: f64) -> Option<Self> {
        if !Self::decision(seed, session, rate) {
            return None;
        }
        Some(Self::forced(seed, session))
    }

    /// A sampled context for `(seed, session)` regardless of rate — the
    /// slow-session log uses this to force tracing retroactively.
    pub fn forced(seed: u64, session: &str) -> Self {
        let base = seed ^ session_hash(session);
        Self {
            trace_hi: mix(base ^ 0x9e37_79b9_7f4a_7c15),
            trace_lo: mix(base.wrapping_add(0x2545_f491_4f6c_dd1d)),
            span_id: 1,
            sampled: true,
        }
    }

    /// The 128-bit trace id as 32 lowercase hex digits.
    pub fn trace_id_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }

    /// Encodes the context as a K-DB sub-document (the ADAN1 envelope
    /// field). `u64` halves travel as bit-cast `i64`s.
    pub fn to_doc(&self) -> Document {
        Document::new()
            .with("hi", self.trace_hi as i64)
            .with("lo", self.trace_lo as i64)
            .with("sampled", self.sampled)
            .with("span", self.span_id as i64)
    }

    /// Decodes a context from its wire sub-document. Any missing or
    /// mistyped field yields `None` — a mangled context degrades to
    /// "unsampled", never to an altered-but-valid identity.
    pub fn from_doc(doc: &Document) -> Option<Self> {
        let hi = doc.get("hi")?.as_i64()? as u64;
        let lo = doc.get("lo")?.as_i64()? as u64;
        let span = doc.get("span")?.as_i64()? as u64;
        let sampled = doc.get("sampled")?.as_bool()?;
        Some(Self {
            trace_hi: hi,
            trace_lo: lo,
            span_id: span,
            sampled,
        })
    }
}

thread_local! {
    /// The trace context of the session this thread is currently
    /// executing, if any.
    static CURRENT_TRACE: RefCell<Option<(Arc<str>, TraceContext)>> =
        const { RefCell::new(None) };
}

/// The calling thread's current `(session, context)`, as published by
/// the innermost live [`TraceScope`]. This is how code below the
/// observer seam (the group committer) attributes its spans.
pub fn current_trace() -> Option<(Arc<str>, TraceContext)> {
    CURRENT_TRACE.with(|cell| cell.borrow().clone())
}

/// RAII guard publishing a session's [`TraceContext`] on the calling
/// thread for the guard's lifetime. Nests: dropping restores whatever
/// was published before (worker threads never nest today, but tests
/// do).
#[derive(Debug)]
pub struct TraceScope {
    prev: Option<(Arc<str>, TraceContext)>,
}

impl TraceScope {
    /// Publishes `(session, ctx)` until the returned guard drops.
    pub fn enter(session: Arc<str>, ctx: TraceContext) -> Self {
        let prev = CURRENT_TRACE.with(|cell| cell.borrow_mut().replace((session, ctx)));
        Self { prev }
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        CURRENT_TRACE.with(|cell| {
            *cell.borrow_mut() = self.prev.take();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_seed_and_session() {
        for session in ["cohort-a", "cohort-b", "x"] {
            for seed in [0u64, 1, 0xdead_beef] {
                let first = TraceContext::decision(seed, session, 0.5);
                for _ in 0..10 {
                    assert_eq!(first, TraceContext::decision(seed, session, 0.5));
                }
                assert_eq!(
                    TraceContext::mint(seed, session, 0.5).is_some(),
                    first,
                    "mint agrees with the bare decision"
                );
            }
        }
    }

    #[test]
    fn rate_zero_never_samples_rate_one_always_samples() {
        for i in 0..200u64 {
            let session = format!("s{i}");
            assert!(!TraceContext::decision(7, &session, 0.0));
            assert!(!TraceContext::decision(7, &session, -1.0));
            assert!(TraceContext::decision(7, &session, 1.0));
            assert!(TraceContext::decision(7, &session, 2.0));
        }
    }

    #[test]
    fn mid_rate_splits_sessions_both_ways() {
        let sampled = (0..500u64)
            .filter(|i| TraceContext::decision(11, &format!("s{i}"), 0.5))
            .count();
        assert!(
            (100..400).contains(&sampled),
            "rate 0.5 sampled {sampled}/500"
        );
    }

    #[test]
    fn trace_ids_are_stable_and_distinct() {
        let a = TraceContext::forced(3, "alpha");
        let b = TraceContext::forced(3, "alpha");
        let c = TraceContext::forced(3, "beta");
        assert_eq!(a, b);
        assert_ne!((a.trace_hi, a.trace_lo), (c.trace_hi, c.trace_lo));
        assert_eq!(a.trace_id_hex().len(), 32);
        assert!(a.sampled);
    }

    #[test]
    fn doc_round_trip_and_malformed_decode() {
        let ctx = TraceContext {
            span_id: 9,
            ..TraceContext::forced(42, "s")
        };
        assert_eq!(TraceContext::from_doc(&ctx.to_doc()), Some(ctx));
        // Missing or mistyped fields degrade to None, never to a
        // different-but-valid context.
        assert_eq!(TraceContext::from_doc(&Document::new()), None);
        let mut doc = ctx.to_doc();
        doc.set("sampled", 1i64);
        assert_eq!(TraceContext::from_doc(&doc), None);
        let mut doc = ctx.to_doc();
        doc.remove("lo");
        assert_eq!(TraceContext::from_doc(&doc), None);
    }

    #[test]
    fn scope_publishes_and_restores() {
        assert!(current_trace().is_none());
        let outer = TraceContext::forced(1, "outer");
        {
            let _g = TraceScope::enter(Arc::from("outer"), outer);
            assert_eq!(current_trace().unwrap().1, outer);
            {
                let inner = TraceContext::forced(1, "inner");
                let _g2 = TraceScope::enter(Arc::from("inner"), inner);
                assert_eq!(&*current_trace().unwrap().0, "inner");
            }
            assert_eq!(&*current_trace().unwrap().0, "outer");
        }
        assert!(current_trace().is_none());
    }
}

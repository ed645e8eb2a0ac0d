//! The deterministic streaming core: reorder buffer, watermark,
//! window closes, incremental mining, durable checkpoints.
//!
//! ## Watermark and reorder semantics
//!
//! Records carry calendar days (`Date::days_since_epoch`). Windows are
//! `window_days` long and aligned to the epoch — window `w` covers
//! days `[w·len, (w+1)·len)` — so window boundaries are a property of
//! the *data*, never of arrival order. Arrivals land in a per-window
//! reorder buffer (append-only, so the hot ingest path is one `Vec`
//! push); the watermark is `newest day seen − lateness_days`, and a
//! window closes once the watermark reaches its end: from then on no
//! in-bound arrival can belong to it. Closing sorts the window's
//! records into canonical `(day, patient, exam)` order, folds them
//! into the incremental VSM, runs the mini-batch model update, and
//! persists one `stream_windows` checkpoint. Arrivals behind the
//! closed bound are *late*: counted, dropped, never folded.
//!
//! A close costs what the matrix's non-zeros and the window's records
//! cost, not the matrix's cells: every fit (first, warm, drift re-fit,
//! `force_refit`) reads the matrix's non-zero view, rebuilt once per
//! window since the fold mutates the matrix; the VSM fingerprint hashes
//! zero runs in one step; and the checkpoint stores the folded entries
//! as one packed string. The dense path's bits are kept exactly.
//!
//! ## Determinism argument
//!
//! Every fold consumes a window's records in canonical `(day, patient,
//! exam)` order with multiplicities — a pure function of the record
//! multiset, not of delivery order or batch boundaries. Model updates
//! run only at window closes, which happen at the same points (between
//! the same folds) for every delivery schedule. Hence: one batch,
//! record-by-record, or any in-bound shuffle → byte-identical VSM,
//! model, and checkpoints. Crash replay folds the checkpointed windows
//! (stored in canonical order) through the same code path and verifies
//! the stored fingerprints as it goes, then resumes at the durable
//! watermark.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use ada_dataset::ExamRecord;
use ada_kdb::schema::{self, names};
use ada_kdb::{Document, Filter, SharedKdb, Value};
use ada_mining::kmeans::pad_centroids;
use ada_mining::{KMeans, KMeansResult};
use ada_obs::{FlightRecorder, StreamMetrics};
use ada_vsm::DenseMatrix;

use crate::config::StreamConfig;
use crate::error::StreamError;
use crate::fingerprint::format_fp;
use crate::vsm::{FoldEntry, IncrementalVsm};

/// One buffered record: canonical identity `(day, patient, exam)`.
type Rec = (i64, u32, u32);

/// The deterministic streaming state machine (single-threaded; wrap in
/// [`crate::StreamHandle`] for a concurrent front door).
pub struct StreamEngine {
    config: StreamConfig,
    kdb: Option<SharedKdb>,
    metrics: Arc<StreamMetrics>,
    /// Buffered (not yet folded) records, grouped by window id in
    /// arrival order; sorted into canonical order at close.
    buffer: BTreeMap<i64, Vec<Rec>>,
    buffered_records: i64,
    /// Newest day seen (drives the watermark).
    max_day: Option<i64>,
    /// Exclusive day bound of the closed region: arrivals below it are
    /// late. `None` until the first window closes.
    closed_bound: Option<i64>,
    schema_ready: bool,
    vsm: IncrementalVsm,
    model: Option<KMeansResult>,
    /// Memoised fingerprint of `model`, reset by [`Self::set_model`].
    model_fp: OnceLock<u64>,
    /// SSE per row at the last full fit (the drift baseline).
    baseline: f64,
    last_drift: f64,
    // Deterministic (checkpointed) counters.
    windows_closed: u64,
    folded: u64,
    refits: u64,
    // Process-local (not checkpointed) counters.
    ingested: u64,
    reordered: u64,
    dropped: u64,
    forced_refits: u64,
}

impl StreamEngine {
    /// A fresh engine with no checkpoint store (tests, benches).
    pub fn new(config: StreamConfig) -> Self {
        Self {
            config,
            kdb: None,
            metrics: Arc::new(StreamMetrics::new()),
            buffer: BTreeMap::new(),
            buffered_records: 0,
            max_day: None,
            closed_bound: None,
            schema_ready: false,
            vsm: IncrementalVsm::new(),
            model: None,
            model_fp: OnceLock::new(),
            baseline: 0.0,
            last_drift: 0.0,
            windows_closed: 0,
            folded: 0,
            refits: 0,
            ingested: 0,
            reordered: 0,
            dropped: 0,
            forced_refits: 0,
        }
    }

    /// Opens a stream over a durable store: if `stream_windows` holds
    /// checkpoints for this stream name, they are replayed — each
    /// window folded through the normal code path and verified against
    /// its stored fingerprints — and the engine resumes from the last
    /// durable watermark. Returns the engine and the number of
    /// resumed windows.
    ///
    /// The configuration must equal the one that wrote the
    /// checkpoints; a mismatch surfaces as a fingerprint divergence
    /// ([`StreamError::Corrupt`]) rather than a silent history fork.
    /// The recorder argument is ignored: window closes are not traced.
    ///
    /// # Errors
    /// [`StreamError::Kdb`] on store errors, [`StreamError::Corrupt`]
    /// when replayed state disagrees with the stored fingerprints.
    pub fn open(
        config: StreamConfig,
        kdb: Option<SharedKdb>,
        metrics: Arc<StreamMetrics>,
        _recorder: Option<Arc<FlightRecorder>>,
    ) -> Result<(Self, u64), StreamError> {
        let mut engine = Self::new(config);
        engine.metrics = metrics;
        let Some(kdb) = kdb else {
            return Ok((engine, 0));
        };
        let docs = {
            let snap = kdb.read();
            if snap.collection(names::STREAM_WINDOWS).is_none() {
                Vec::new()
            } else {
                let mut docs: Vec<Document> = snap
                    .find(
                        names::STREAM_WINDOWS,
                        &Filter::eq("stream", engine.config.name.as_str()),
                    )?
                    .into_iter()
                    .map(|(_, doc)| doc)
                    .collect();
                docs.sort_by_key(|d| d.get("window").and_then(Value::as_i64).unwrap_or(i64::MAX));
                docs
            }
        };
        engine.kdb = Some(kdb);
        let resumed = docs.len() as u64;
        engine.schema_ready = resumed > 0;
        for doc in docs {
            engine.replay_checkpoint(&doc)?;
        }
        if let Some(bound) = engine.closed_bound {
            // Rewind the watermark exactly to the durable bound: the
            // source replays everything at or after it; anything below
            // is already folded and will be dropped as late.
            engine.max_day = Some(bound + engine.config.lateness_days);
        }
        Ok((engine, resumed))
    }

    /// Ingests a batch of records: buffers them, advances the
    /// watermark, closes every window the watermark has passed.
    ///
    /// The watermark advances — and windows close — *per record*, not
    /// per batch: the state trajectory is a function of the delivery
    /// sequence alone, so cutting the same sequence into different
    /// batch sizes cannot change which late arrivals are dropped.
    ///
    /// # Errors
    /// Checkpoint persistence failures ([`StreamError::Kdb`]).
    pub fn ingest(&mut self, records: &[ExamRecord]) -> Result<(), StreamError> {
        self.ingested += records.len() as u64;
        self.metrics.ingested(records.len() as u64);
        for r in records {
            let day = r.date.days_since_epoch();
            if self.max_day.is_some_and(|m| day < m) {
                self.reordered += 1;
                self.metrics.reordered();
            }
            if self.closed_bound.is_some_and(|b| day < b) {
                self.dropped += 1;
                self.metrics.dropped();
                continue;
            }
            let wid = day.div_euclid(self.config.window_days);
            self.buffer
                .entry(wid)
                .or_default()
                .push((day, r.patient.0, r.exam.0));
            self.buffered_records += 1;
            if self.max_day.is_none_or(|m| day > m) {
                self.max_day = Some(day);
                self.close_ready()?;
            }
        }
        Ok(())
    }

    /// Closes every remaining buffered window regardless of the
    /// watermark (end of feed / drain before shutdown). The stream
    /// stays usable; subsequent arrivals behind the new closed bound
    /// are late.
    ///
    /// # Errors
    /// Checkpoint persistence failures ([`StreamError::Kdb`]).
    pub fn seal(&mut self) -> Result<(), StreamError> {
        while let Some((&wid, _)) = self.buffer.iter().next() {
            self.close_window(wid)?;
        }
        Ok(())
    }

    /// Runs a full cold re-fit on the accumulated cohort right now —
    /// byte-identical to `KMeans::fit` over [`Self::matrix`]. Returns
    /// whether a fit ran (needs at least `k` active rows).
    ///
    /// This is an operator/diagnostic action outside the checkpointed
    /// history: call it at end of feed (after [`Self::seal`]) or on a
    /// stream that will not checkpoint further windows, otherwise a
    /// later crash replay — which cannot see the forced re-fit — will
    /// detect the divergence and refuse to resume.
    pub fn force_refit(&mut self) -> bool {
        if self.vsm.rows() < self.config.k.max(1) {
            return false;
        }
        let result = self.cold_fit();
        self.baseline = result.sse / self.vsm.rows() as f64;
        self.set_model(result);
        self.forced_refits += 1;
        self.metrics.refit();
        true
    }

    /// The only assignment to `model`: installs it and drops the
    /// memoised model fingerprint.
    fn set_model(&mut self, model: KMeansResult) {
        self.model = Some(model);
        self.model_fp = OnceLock::new();
    }

    fn cold_config(&self) -> KMeans {
        KMeans::new(self.config.k)
            .seed(self.config.seed)
            .max_iters(self.config.refit_iters)
    }

    /// A cold fit over the accumulated cohort's non-zero view, equal bit
    /// for bit to `KMeans::fit` over the dense matrix.
    fn cold_fit(&self) -> KMeansResult {
        self.cold_config()
            .fit_rows(&self.vsm.matrix().sparse_rows())
            .0
    }

    /// Closes every window whose end the watermark has passed, oldest
    /// first.
    fn close_ready(&mut self) -> Result<(), StreamError> {
        let Some(max_day) = self.max_day else {
            return Ok(());
        };
        let watermark = max_day - self.config.lateness_days;
        while let Some((&wid, _)) = self.buffer.iter().next() {
            if (wid + 1) * self.config.window_days <= watermark {
                self.close_window(wid)?;
            } else {
                break;
            }
        }
        Ok(())
    }

    /// Folds window `wid`'s buffered records, updates the model, and
    /// persists the checkpoint.
    fn close_window(&mut self, wid: i64) -> Result<(), StreamError> {
        let start = wid * self.config.window_days;
        let end = start + self.config.window_days;
        let mut window = self.buffer.remove(&wid).unwrap_or_default();
        debug_assert!(
            window.iter().all(|&(d, _, _)| d >= start && d < end),
            "buffered records belong to their window"
        );
        if window.is_empty() {
            // Nothing arrived for this span: no state change, no
            // checkpoint — but the closed bound still advances.
            self.closed_bound = Some(self.closed_bound.map_or(end, |b| b.max(end)));
            return Ok(());
        }
        // Canonical order with multiplicities: a pure function of the
        // window's record multiset, independent of arrival order.
        window.sort_unstable();
        let mut entries: Vec<FoldEntry> = Vec::with_capacity(window.len());
        for &(day, patient, exam) in &window {
            match entries.last_mut() {
                Some(e) if e.0 == day && e.1 == patient && e.2 == exam => e.3 += 1,
                _ => entries.push((day, patient, exam, 1)),
            }
        }
        let (refit, drift) = self.fold_and_update(end, &entries);
        self.metrics.window_closed();
        self.persist_checkpoint(wid, start, end, &entries, refit, drift)
    }

    /// The deterministic half of a window close, shared by the live
    /// path and crash replay: fold the entries, advance the bound,
    /// update the model. Returns (refit, drift score).
    fn fold_and_update(&mut self, end: i64, entries: &[FoldEntry]) -> (bool, f64) {
        let records: i64 = entries.iter().map(|&(_, _, _, c)| c).sum();
        self.buffered_records -= records.min(self.buffered_records);
        self.vsm.fold(entries);
        self.folded += records as u64;
        self.windows_closed += 1;
        self.closed_bound = Some(self.closed_bound.map_or(end, |b| b.max(end)));
        if !self.config.mine_on_close {
            return (false, self.last_drift);
        }
        self.update_model()
    }

    /// One mini-batch model update over the accumulated cohort:
    /// warm-started Lloyd with a small iteration budget, escalating to
    /// a full re-fit when the drift detector trips.
    fn update_model(&mut self) -> (bool, f64) {
        let rows = self.vsm.rows();
        if rows < self.config.k.max(self.config.min_rows) {
            return (false, self.last_drift);
        }
        match self.model.take() {
            None => {
                // First fit: cold, full budget — the streaming
                // equivalent of the batch pipeline's mining step.
                let result = self.cold_fit();
                self.baseline = result.sse / rows as f64;
                self.set_model(result);
                self.refits += 1;
                self.metrics.refit();
                (true, self.last_drift)
            }
            Some(prev) => {
                let warm_seed = pad_centroids(&prev.centroids, self.vsm.vocab());
                let warm = self
                    .cold_config()
                    .max_iters(self.config.update_iters)
                    .fit_rows_from(&self.vsm.matrix().sparse_rows(), warm_seed)
                    .0;
                let warm_rate = warm.sse / rows as f64;
                let drift = if self.baseline > 0.0 {
                    warm_rate / self.baseline
                } else if warm_rate > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                };
                self.last_drift = drift;
                self.metrics.set_drift_score(drift);
                if drift > self.config.drift_threshold {
                    // Stale: the warm model no longer explains the
                    // accumulated cohort. Full re-fit — byte-identical
                    // to a cold fit, which is the determinism gate.
                    let result = self.cold_fit();
                    self.baseline = result.sse / rows as f64;
                    self.set_model(result);
                    self.refits += 1;
                    self.metrics.refit();
                    (true, drift)
                } else {
                    self.set_model(warm);
                    (false, drift)
                }
            }
        }
    }

    /// Builds and inserts the durable checkpoint for a closed window.
    fn persist_checkpoint(
        &mut self,
        wid: i64,
        start: i64,
        end: i64,
        entries: &[FoldEntry],
        refit: bool,
        drift: f64,
    ) -> Result<(), StreamError> {
        let Some(kdb) = self.kdb.clone() else {
            return Ok(());
        };
        if !self.schema_ready {
            schema::init_stream_schema(&kdb)?;
            self.schema_ready = true;
        }
        // ≈ 17 bytes an entry; four `Value::I64`s would be 128.
        let mut records = String::with_capacity(entries.len() * 20);
        for &(day, patient, exam, count) in entries {
            let sep = if records.is_empty() { "" } else { " " };
            let _ = write!(records, "{sep}{day} {patient} {exam} {count}");
        }
        records.shrink_to_fit();
        let count = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let doc = Document::new()
            .with("stream", self.config.name.as_str())
            .with("window", wid)
            .with("start_day", start)
            .with("end_day", end)
            .with("watermark", end)
            .with("records", records)
            .with("folded", count(self.folded))
            .with("refits", count(self.refits))
            .with("refit", refit)
            .with("drift", if drift.is_finite() { drift } else { f64::MAX })
            .with("rows", count(self.vsm.rows() as u64))
            .with("vocab", count(self.vsm.vocab() as u64))
            .with("vocab_version", count(self.vsm.version()))
            .with("vsm_fp", format_fp(self.vsm.fingerprint()))
            .with(
                "model_fp",
                self.model_fingerprint().map_or(String::new(), format_fp),
            );
        schema::insert_stream_window(&kdb, doc)?;
        Ok(())
    }

    /// Replays one durable checkpoint through the deterministic close
    /// path and verifies the stored fingerprints.
    fn replay_checkpoint(&mut self, doc: &Document) -> Result<(), StreamError> {
        let corrupt = |what: &str| StreamError::Corrupt(format!("checkpoint {what}"));
        let geti = |field: &str| {
            doc.get(field)
                .and_then(Value::as_i64)
                .ok_or_else(|| corrupt(&format!("missing integer `{field}`")))
        };
        let end = geti("end_day")?;
        // Packed or (written before packing) array-form: the same quads.
        let quads = schema::stream_window_records(doc).map_err(|e| corrupt(&e.to_string()))?;
        let mut entries = Vec::with_capacity(quads.len());
        for [day, patient, exam, count] in quads {
            let patient = u32::try_from(patient).map_err(|_| corrupt("patient id out of range"))?;
            let exam = u32::try_from(exam).map_err(|_| corrupt("exam id out of range"))?;
            entries.push((day, patient, exam, count));
        }
        self.fold_and_update(end, &entries);
        let stored_vsm = doc.get("vsm_fp").and_then(Value::as_str).unwrap_or("");
        if stored_vsm != format_fp(self.vsm.fingerprint()) {
            return Err(corrupt(
                "VSM fingerprint diverged on replay (config mismatch or corruption)",
            ));
        }
        let stored_model = doc.get("model_fp").and_then(Value::as_str).unwrap_or("");
        let replayed_model = self.model_fingerprint().map_or(String::new(), format_fp);
        if stored_model != replayed_model {
            return Err(corrupt(
                "model fingerprint diverged on replay (config mismatch or corruption)",
            ));
        }
        if geti("folded")? != i64::try_from(self.folded).unwrap_or(i64::MAX)
            || geti("refits")? != i64::try_from(self.refits).unwrap_or(i64::MAX)
        {
            return Err(corrupt("cumulative counters diverged on replay"));
        }
        Ok(())
    }

    /// The stream's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The live model, once enough rows accumulated.
    pub fn model(&self) -> Option<&KMeansResult> {
        self.model.as_ref()
    }

    /// The accumulated count matrix (active patients × seen exams).
    pub fn matrix(&self) -> &DenseMatrix {
        self.vsm.matrix()
    }

    /// The incremental VSM.
    pub fn vsm(&self) -> &IncrementalVsm {
        &self.vsm
    }

    /// FNV-1a fingerprint of the VSM state.
    pub fn vsm_fingerprint(&self) -> u64 {
        self.vsm.fingerprint()
    }

    /// FNV-1a fingerprint of the model, when one exists (memoised until
    /// the model is replaced).
    pub fn model_fingerprint(&self) -> Option<u64> {
        let model = self.model.as_ref()?;
        Some(*self.model_fp.get_or_init(|| model.fingerprint()))
    }

    /// Windows closed so far (checkpointed count).
    pub fn windows_closed(&self) -> u64 {
        self.windows_closed
    }

    /// Full re-fits driven by the window path (first fits + drift
    /// escalations; checkpointed).
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Records folded through closed windows (checkpointed).
    pub fn folded(&self) -> u64 {
        self.folded
    }

    /// The exclusive day bound of the closed region (the durable
    /// watermark once checkpoints exist).
    pub fn watermark(&self) -> Option<i64> {
        self.closed_bound
    }

    /// The most recent drift score (0 until a warm update ran).
    pub fn drift(&self) -> f64 {
        self.last_drift
    }

    /// The stream's full status as one document (served over the wire
    /// by `StreamQuery`). Both fingerprints come from their memos, so a
    /// stream nothing was folded into since the last call re-hashes
    /// nothing.
    pub fn status_document(&self) -> Document {
        let count = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let model = match (&self.model, self.model_fingerprint()) {
            (Some(m), Some(fp)) => Value::Doc(
                Document::new()
                    .with("k", count(m.k() as u64))
                    .with("sse", m.sse)
                    .with("iterations", count(m.iterations as u64))
                    .with("converged", m.converged)
                    .with("fingerprint", format_fp(fp))
                    .with(
                        "cluster_sizes",
                        Value::Array(
                            m.cluster_sizes()
                                .into_iter()
                                .map(|s| Value::I64(count(s as u64)))
                                .collect(),
                        ),
                    ),
            ),
            _ => Value::Null,
        };
        Document::new()
            .with("stream", self.config.name.as_str())
            .with("windows_closed", count(self.windows_closed))
            .with(
                "watermark",
                self.closed_bound.map_or(Value::Null, Value::I64),
            )
            .with("ingested", count(self.ingested))
            .with("folded", count(self.folded))
            .with("reordered", count(self.reordered))
            .with("dropped", count(self.dropped))
            .with("buffered", self.buffered_records)
            .with("rows", count(self.vsm.rows() as u64))
            .with("vocab", count(self.vsm.vocab() as u64))
            .with("vocab_version", count(self.vsm.version()))
            .with("refits", count(self.refits))
            .with("forced_refits", count(self.forced_refits))
            .with("drift", self.last_drift)
            .with("vsm_fp", format_fp(self.vsm.fingerprint()))
            .with("model", model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::{Date, ExamTypeId, PatientId};

    fn rec(patient: u32, exam: u32, month: u8, day: u8) -> ExamRecord {
        ExamRecord::new(
            PatientId(patient),
            ExamTypeId(exam),
            Date::new(2015, month, day).unwrap(),
        )
    }

    fn tiny_config() -> StreamConfig {
        StreamConfig::new("t")
            .window_days(7)
            .lateness_days(3)
            .k(2)
            .min_rows(2)
            .update_iters(3)
            .refit_iters(20)
    }

    #[test]
    fn windows_close_only_when_watermark_passes() {
        let mut e = StreamEngine::new(tiny_config());
        e.ingest(&[rec(0, 0, 1, 1), rec(1, 1, 1, 2)]).unwrap();
        assert_eq!(e.windows_closed(), 0, "watermark still inside window");
        // A record 10+ days later pushes the watermark past the first
        // window's end.
        e.ingest(&[rec(2, 0, 1, 20)]).unwrap();
        assert_eq!(e.windows_closed(), 1);
        assert_eq!(e.folded(), 2);
        assert!(e.watermark().is_some());
        // Late arrival behind the closed bound is dropped.
        let before = e.folded();
        e.ingest(&[rec(3, 0, 1, 1)]).unwrap();
        assert_eq!(e.folded(), before);
        assert_eq!(
            e.status_document().get("dropped").unwrap().as_i64(),
            Some(1)
        );
        // Seal drains the rest.
        e.seal().unwrap();
        assert_eq!(e.folded(), 3);
        assert!(e.buffer.is_empty());
    }

    #[test]
    fn chunking_does_not_change_state() {
        let feed = [
            rec(0, 0, 1, 3),
            rec(1, 1, 1, 5),
            rec(0, 1, 1, 9),
            rec(2, 0, 1, 16),
            rec(1, 0, 1, 22),
            rec(0, 0, 2, 2),
            rec(2, 1, 2, 10),
            rec(1, 1, 2, 18),
        ];
        let run = |chunk: usize| {
            let mut e = StreamEngine::new(tiny_config());
            for batch in feed.chunks(chunk) {
                e.ingest(batch).unwrap();
            }
            e.seal().unwrap();
            (
                e.vsm_fingerprint(),
                e.model_fingerprint(),
                e.windows_closed(),
            )
        };
        let whole = run(feed.len());
        for chunk in [1, 2, 3, 5] {
            assert_eq!(run(chunk), whole, "chunk size {chunk} diverged");
        }
    }

    #[test]
    fn in_bound_reorder_is_absorbed_and_counted() {
        let ordered = vec![rec(0, 0, 1, 3), rec(1, 1, 1, 4), rec(2, 0, 1, 5)];
        let shuffled = vec![ordered[2], ordered[0], ordered[1]];
        let run = |feed: &[ExamRecord]| {
            let mut e = StreamEngine::new(tiny_config());
            e.ingest(feed).unwrap();
            e.seal().unwrap();
            (e.vsm_fingerprint(), e.status_document())
        };
        let (fp_a, _) = run(&ordered);
        let (fp_b, status_b) = run(&shuffled);
        assert_eq!(fp_a, fp_b);
        assert_eq!(status_b.get("reordered").unwrap().as_i64(), Some(2));
        assert_eq!(status_b.get("dropped").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn first_fit_then_warm_updates_then_forced_refit_equals_cold() {
        let mut cfg = tiny_config();
        cfg.min_rows = 2;
        let mut e = StreamEngine::new(cfg);
        let mut feed = Vec::new();
        for i in 0..30u32 {
            feed.push(rec(i % 6, i % 3, 1 + (i % 11) as u8, 1 + (i % 27) as u8));
        }
        feed.sort_by_key(|r| (r.date, r.patient.0, r.exam.0));
        for batch in feed.chunks(4) {
            e.ingest(batch).unwrap();
        }
        e.seal().unwrap();
        assert!(e.refits() >= 1, "first fit is a cold fit");
        assert!(e.model().is_some());
        assert!(e.force_refit());
        let cold = KMeans::new(2).seed(0).max_iters(20).fit(e.matrix());
        assert_eq!(
            e.model_fingerprint().unwrap(),
            cold.fingerprint(),
            "forced re-fit must equal a cold fit over the accumulated cohort"
        );
    }

    #[test]
    fn empty_windows_leave_no_checkpoint_but_advance_the_bound() {
        let mut e = StreamEngine::new(tiny_config());
        // Two records three windows apart: the gap windows are empty.
        e.ingest(&[rec(0, 0, 1, 1)]).unwrap();
        e.ingest(&[rec(1, 0, 2, 20)]).unwrap();
        assert_eq!(e.windows_closed(), 1, "only the non-empty window closed");
        assert!(e.watermark().unwrap() > 7, "bound advanced past the gap");
    }

    #[test]
    fn every_mutator_invalidates_the_status_fingerprints() {
        // A seeded feed with bounded disorder, status queried after
        // every batch: the memoised fingerprints in the document must
        // equal a from-scratch hash at every step, and each `&mut self`
        // entry point that replaces the model must drop its memo.
        let shape = ada_dataset::synthetic::SyntheticConfig {
            num_patients: 40,
            num_exam_types: 12,
            target_records: 600,
            ..ada_dataset::synthetic::SyntheticConfig::small()
        };
        let log = ada_dataset::synthetic::generate(&shape, 5);
        let feed: Vec<ExamRecord> = ada_dataset::StreamOrder::new(&log, 9, 6).collect();
        let mut e = StreamEngine::new(tiny_config().window_days(30).lateness_days(10));
        let check = |e: &StreamEngine| {
            let status = e.status_document();
            assert_eq!(
                status.get("vsm_fp").unwrap().as_str().unwrap(),
                format_fp(e.vsm.compute_fingerprint())
            );
            match (status.get("model").unwrap(), e.model()) {
                (Value::Null, None) => {}
                (Value::Doc(doc), Some(model)) => {
                    assert_eq!(
                        doc.get("fingerprint").unwrap().as_str().unwrap(),
                        format_fp(model.fingerprint())
                    );
                    assert!(e.model_fp.get().is_some(), "memoised by the query");
                }
                other => panic!("status and engine disagree about the model: {other:?}"),
            }
            assert_eq!(e.status_document(), status, "a repeat query is identical");
        };
        let mut closes = 0;
        for batch in feed.chunks(37) {
            let before = e.windows_closed();
            e.ingest(batch).unwrap();
            if e.windows_closed() > before && e.model().is_some() {
                closes += 1;
                assert!(
                    e.model_fp.get().is_none(),
                    "a window close replaced the model"
                );
            }
            check(&e);
        }
        assert!(closes >= 3, "the feed closed windows under a live model");
        e.seal().unwrap();
        assert!(e.model_fp.get().is_none(), "seal closed the last windows");
        check(&e);
        assert!(e.force_refit());
        assert!(e.model_fp.get().is_none(), "force_refit replaced the model");
        check(&e);
    }
}

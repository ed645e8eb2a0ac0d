//! The service-facing workload surface: a serializable spec for a
//! stream-mining session and the report it yields.

use crate::config::StreamConfig;
use crate::engine::StreamEngine;
use crate::fingerprint::format_fp;

/// Parameters of a `Workload::StreamMining` session: the service feeds
/// the session's cohort through a [`StreamEngine`] in timestamp order
/// (with seeded bounded disorder, exercising the reorder buffer) and
/// reports the resulting live model.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamMiningSpec {
    /// Window length in days.
    pub window_days: i64,
    /// Allowed lateness in days.
    pub lateness_days: i64,
    /// Clusters mined.
    pub k: usize,
    /// Master seed (K-means init *and* feed disorder).
    pub seed: u64,
    /// Warm mini-batch iteration budget.
    pub update_iters: usize,
    /// Full re-fit iteration budget.
    pub refit_iters: usize,
    /// Drift escalation threshold.
    pub drift_threshold: f64,
    /// Minimum active rows before the first fit.
    pub min_rows: usize,
    /// Bounded-disorder block size for the replayed feed (`<= 1` means
    /// strict timestamp order; must stay within the lateness bound for
    /// loss-free delivery).
    pub disorder: usize,
    /// Ingestion batch size when replaying the cohort.
    pub chunk: usize,
}

impl Default for StreamMiningSpec {
    fn default() -> Self {
        Self {
            window_days: 7,
            lateness_days: 14,
            k: 4,
            seed: 0,
            update_iters: 5,
            refit_iters: 100,
            drift_threshold: 1.25,
            min_rows: 16,
            disorder: 8,
            chunk: 256,
        }
    }
}

impl StreamMiningSpec {
    /// A small, fast spec for smoke paths and tests.
    pub fn quick() -> Self {
        Self {
            window_days: 7,
            lateness_days: 7,
            k: 3,
            update_iters: 3,
            refit_iters: 30,
            min_rows: 8,
            disorder: 4,
            chunk: 64,
            ..Self::default()
        }
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cluster count.
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// The engine configuration this spec describes, under `name`.
    pub fn to_config(&self, name: impl Into<String>) -> StreamConfig {
        StreamConfig::new(name)
            .window_days(self.window_days)
            .lateness_days(self.lateness_days)
            .k(self.k)
            .seed(self.seed)
            .update_iters(self.update_iters)
            .refit_iters(self.refit_iters)
            .drift_threshold(self.drift_threshold)
            .min_rows(self.min_rows)
    }
}

/// What a stream-mining session reports: the deterministic summary of
/// the stream's final state (fingerprints stand in for the matrices).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Stream name.
    pub stream: String,
    /// Records accepted by the engine.
    pub ingested: u64,
    /// Records folded through closed windows.
    pub folded: u64,
    /// Out-of-order arrivals absorbed by the reorder buffer.
    pub reordered: u64,
    /// Late arrivals dropped behind the closed bound.
    pub dropped: u64,
    /// Windows closed.
    pub windows_closed: u64,
    /// Full re-fits (first fit + drift escalations).
    pub refits: u64,
    /// Active patients (matrix rows).
    pub rows: usize,
    /// Vocabulary size (matrix columns).
    pub vocab: usize,
    /// Column-map version.
    pub vocab_version: u64,
    /// Last drift score.
    pub drift: f64,
    /// Final model SSE (0 when no model was fit).
    pub sse: f64,
    /// Whether a model exists.
    pub has_model: bool,
    /// FNV-1a fingerprint of the VSM state (16 hex digits).
    pub vsm_fp: String,
    /// FNV-1a fingerprint of the model ("" when none).
    pub model_fp: String,
}

impl StreamReport {
    /// Snapshots an engine's deterministic summary.
    pub fn from_engine(engine: &StreamEngine) -> Self {
        let status = engine.status_document();
        let geti = |field: &str| {
            status
                .get(field)
                .and_then(ada_kdb::Value::as_i64)
                .unwrap_or(0) as u64
        };
        Self {
            stream: engine.config().name.clone(),
            ingested: geti("ingested"),
            folded: engine.folded(),
            reordered: geti("reordered"),
            dropped: geti("dropped"),
            windows_closed: engine.windows_closed(),
            refits: engine.refits(),
            rows: engine.vsm().rows(),
            vocab: engine.vsm().vocab(),
            vocab_version: engine.vsm().version(),
            drift: engine.drift(),
            sse: engine.model().map_or(0.0, |m| m.sse),
            has_model: engine.model().is_some(),
            vsm_fp: format_fp(engine.vsm_fingerprint()),
            model_fp: engine.model_fingerprint().map_or(String::new(), format_fp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_maps_every_knob_onto_the_config() {
        let spec = StreamMiningSpec::quick().seed(9).k(5);
        let config = spec.to_config("feed");
        assert_eq!(config.name, "feed");
        assert_eq!(config.k, 5);
        assert_eq!(config.seed, 9);
        assert_eq!(config.window_days, spec.window_days);
        assert_eq!(config.lateness_days, 7);
        assert_eq!(config.update_iters, spec.update_iters);
        assert_eq!(config.refit_iters, spec.refit_iters);
        assert_eq!(config.drift_threshold, spec.drift_threshold);
        assert_eq!(config.min_rows, spec.min_rows);
        assert!(config.mine_on_close);
    }

    #[test]
    fn report_reflects_engine_state() {
        let engine = StreamEngine::new(StreamConfig::new("r"));
        let report = StreamReport::from_engine(&engine);
        assert_eq!(report.stream, "r");
        assert_eq!(report.windows_closed, 0);
        assert!(!report.has_model);
        assert_eq!(report.vsm_fp.len(), 16);
        assert_eq!(report.model_fp, "");
    }
}

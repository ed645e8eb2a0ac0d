//! Knowledge navigation: interactive ranking of knowledge items.
//!
//! "ADA-HEALTH also includes an interactive knowledge ranking algorithm
//! … which will help to select, among a set of knowledge items, which
//! ones are most interesting for a user. Based on user feedbacks, the
//! algorithm dynamically adjusts the way and order how knowledge items
//! are organized and presented."
//!
//! Before any feedback exists, items are ordered by an objective prior
//! (their composite interestingness). Each piece of feedback (a) shifts
//! a per-kind preference weight (fast adaptation) and (b) accumulates
//! labelled examples; once enough exist, a decision tree is trained to
//! predict the {high, medium, low} label from item features and takes
//! over the ordering (the paper's "prediction of a degree of
//! interestingness … by means of a classification algorithm").

use ada_kdb::schema::Interestingness;
use ada_mining::tree::{DecisionTree, TreeConfig};
use ada_vsm::DenseMatrix;

/// The kind of a knowledge item (which miner produced it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemKind {
    /// A patient cluster.
    Cluster,
    /// A frequent pattern / association rule.
    Pattern,
    /// A ranked safety signal (disproportionality finding from
    /// `ada-signals`).
    Signal,
}

impl ItemKind {
    fn index(self) -> usize {
        match self {
            ItemKind::Cluster => 0,
            ItemKind::Pattern => 1,
            ItemKind::Signal => 2,
        }
    }
}

/// A knowledge item as seen by the ranker.
#[derive(Debug, Clone, PartialEq)]
pub struct KnowledgeItem {
    /// Caller-side identifier (e.g. the K-DB document id).
    pub id: u64,
    /// Which miner produced the item.
    pub kind: ItemKind,
    /// Human-readable description.
    pub description: String,
    /// Fixed-order numeric features (see [`KnowledgeItem::cluster`] /
    /// [`KnowledgeItem::pattern`]).
    pub features: Vec<f64>,
}

impl KnowledgeItem {
    /// Feature-vector length (shared by all kinds). Layout:
    /// `[is_cluster, is_pattern, support, confidence, lift', size,
    /// cohesion, is_signal, ror', shrunk']` — indices 0–6 predate the
    /// signal kind and must never shift (the navigation stage and the
    /// ranker rebuild read them positionally); signal features append.
    pub const NUM_FEATURES: usize = 10;

    /// A cluster item: `size_fraction` of the cohort, `cohesion` =
    /// within-cluster overall similarity.
    pub fn cluster(
        id: u64,
        description: impl Into<String>,
        size_fraction: f64,
        cohesion: f64,
    ) -> Self {
        Self {
            id,
            kind: ItemKind::Cluster,
            description: description.into(),
            features: vec![
                1.0,
                0.0,
                0.0,
                0.0,
                0.0,
                size_fraction,
                cohesion,
                0.0,
                0.0,
                0.0,
            ],
        }
    }

    /// A pattern item with its rule statistics (`lift` is squashed to
    /// `lift/(1+lift)` so the feature stays bounded).
    pub fn pattern(
        id: u64,
        description: impl Into<String>,
        support: f64,
        confidence: f64,
        lift: f64,
    ) -> Self {
        let squashed = if lift.is_finite() {
            lift / (1.0 + lift)
        } else {
            1.0
        };
        Self {
            id,
            kind: ItemKind::Pattern,
            description: description.into(),
            features: vec![
                0.0, 1.0, support, confidence, squashed, 0.0, 0.0, 0.0, 0.0, 0.0,
            ],
        }
    }

    /// A safety-signal item from its disproportionality statistics:
    /// `support` = exposed-with-outcome fraction of the cohort,
    /// `ror_low` = lower bound of the 95% ROR confidence interval
    /// (the conservative association strength), `shrunk` = the
    /// EBGM-style shrunken reporting ratio. The unbounded statistics
    /// are squashed to `x/(1+x)` so features stay in [0, 1] (0.5 is
    /// the no-association point for both).
    pub fn signal(
        id: u64,
        description: impl Into<String>,
        support: f64,
        ror_low: f64,
        shrunk: f64,
    ) -> Self {
        let squash = |x: f64| if x.is_finite() { x / (1.0 + x) } else { 1.0 };
        Self {
            id,
            kind: ItemKind::Signal,
            description: description.into(),
            features: vec![
                0.0,
                0.0,
                support,
                0.0,
                0.0,
                0.0,
                0.0,
                1.0,
                squash(ror_low.max(0.0)),
                squash(shrunk.max(0.0)),
            ],
        }
    }

    /// The objective prior score used before any feedback exists.
    pub fn prior_score(&self) -> f64 {
        match self.kind {
            ItemKind::Cluster => {
                let size = self.features[5];
                let cohesion = self.features[6];
                // Peak for mid-sized cohesive clusters.
                let size_term = 1.0 - (size - 0.2).abs().min(1.0);
                0.5 * cohesion + 0.5 * size_term
            }
            ItemKind::Pattern => {
                let support = self.features[2];
                let confidence = self.features[3];
                let lift = self.features[4];
                (support + confidence + lift) / 3.0
            }
            ItemKind::Signal => {
                // The combined ranking score of the tentpole: the
                // conservative CI lower bound carries the most weight,
                // the shrunken estimate guards against sparse-cell
                // noise, and support rewards signals that are actually
                // observed (saturating at 10% of the cohort).
                let support = (self.features[2] * 10.0).min(1.0);
                let ror_low = self.features[8];
                let shrunk = self.features[9];
                0.45 * ror_low + 0.35 * shrunk + 0.2 * support
            }
        }
    }
}

/// The adaptive knowledge ranker.
#[derive(Debug, Clone)]
pub struct KnowledgeRanker {
    /// Per-kind preference weights, adapted by feedback (EMA).
    kind_weight: [f64; 3],
    /// Labelled history: (features, label index 0/1/2).
    history: Vec<(Vec<f64>, usize)>,
    /// Trained interestingness classifier, once history suffices.
    model: Option<DecisionTree>,
    /// EMA smoothing factor for kind weights.
    alpha: f64,
}

impl Default for KnowledgeRanker {
    fn default() -> Self {
        Self::new()
    }
}

impl KnowledgeRanker {
    /// Minimum feedback count before the classifier is trained.
    pub const MIN_HISTORY: usize = 12;

    /// A fresh ranker with neutral preferences.
    pub fn new() -> Self {
        Self {
            kind_weight: [1.0, 1.0, 1.0],
            history: Vec::new(),
            model: None,
            alpha: 0.2,
        }
    }

    /// Number of feedback observations absorbed.
    pub fn feedback_count(&self) -> usize {
        self.history.len()
    }

    /// Whether the learned classifier is active.
    pub fn model_active(&self) -> bool {
        self.model.is_some()
    }

    /// Records one user feedback and adapts the ordering policy.
    pub fn record_feedback(&mut self, item: &KnowledgeItem, label: Interestingness) {
        // Fast path: exponential moving average on the item's kind.
        let idx = item.kind.index();
        self.kind_weight[idx] =
            (1.0 - self.alpha) * self.kind_weight[idx] + self.alpha * (0.5 + label.score());
        // Slow path: accumulate and (re)train the classifier.
        let label_idx = match label {
            Interestingness::Low => 0,
            Interestingness::Medium => 1,
            Interestingness::High => 2,
        };
        self.history.push((item.features.clone(), label_idx));
        if self.history.len() >= Self::MIN_HISTORY {
            let rows: Vec<Vec<f64>> = self.history.iter().map(|(f, _)| f.clone()).collect();
            let labels: Vec<usize> = self.history.iter().map(|&(_, l)| l).collect();
            let matrix = DenseMatrix::from_rows(&rows);
            self.model = Some(DecisionTree::fit(
                &matrix,
                &labels,
                3,
                &TreeConfig {
                    max_depth: 5,
                    min_samples_leaf: 2,
                    ..TreeConfig::default()
                },
            ));
        }
    }

    /// The current score of an item under the adapted policy.
    pub fn score(&self, item: &KnowledgeItem) -> f64 {
        let base = match &self.model {
            Some(model) => {
                // Predicted interest dominates; the objective prior
                // breaks ties within a predicted class.
                let predicted = model.predict_row(&item.features) as f64 / 2.0;
                predicted + 0.1 * item.prior_score()
            }
            None => item.prior_score(),
        };
        base * self.kind_weight[item.kind.index()]
    }

    /// Returns the items sorted most-interesting-first (stable; ties
    /// break by kind then id for determinism — ids are per-collection,
    /// so a cluster and a pattern may share one).
    pub fn rank<'a>(&self, items: &'a [KnowledgeItem]) -> Vec<&'a KnowledgeItem> {
        let mut ranked: Vec<&KnowledgeItem> = items.iter().collect();
        ranked.sort_by(|a, b| {
            self.score(b)
                .partial_cmp(&self.score(a))
                .expect("finite scores")
                .then_with(|| (a.kind.index(), a.id).cmp(&(b.kind.index(), b.id)))
        });
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items() -> Vec<KnowledgeItem> {
        vec![
            KnowledgeItem::cluster(1, "mid-size cohesive cluster", 0.2, 0.8),
            KnowledgeItem::cluster(2, "catch-all blob", 0.9, 0.3),
            KnowledgeItem::pattern(3, "strong rule", 0.2, 0.9, 3.0),
            KnowledgeItem::pattern(4, "weak rule", 0.01, 0.2, 1.0),
        ]
    }

    #[test]
    fn prior_ranking_prefers_strong_items() {
        let ranker = KnowledgeRanker::new();
        let all = items();
        let ranked = ranker.rank(&all);
        let first_two: Vec<u64> = ranked[..2].iter().map(|i| i.id).collect();
        assert!(first_two.contains(&1), "cohesive cluster should rank high");
        assert!(first_two.contains(&3), "strong rule should rank high");
        assert_eq!(ranked[3].id, 4, "weak rule last");
    }

    #[test]
    fn kind_feedback_shifts_ordering() {
        let mut ranker = KnowledgeRanker::new();
        let all = items();
        // The user repeatedly dislikes clusters and likes patterns.
        for _ in 0..5 {
            ranker.record_feedback(&all[0], Interestingness::Low);
            ranker.record_feedback(&all[2], Interestingness::High);
        }
        assert!(
            ranker.kind_weight[ItemKind::Pattern.index()]
                > ranker.kind_weight[ItemKind::Cluster.index()]
        );
        let ranked = ranker.rank(&all);
        assert_eq!(ranked[0].kind, ItemKind::Pattern);
    }

    #[test]
    fn model_activates_after_enough_feedback_and_learns_policy() {
        let mut ranker = KnowledgeRanker::new();
        // Teach: high-confidence patterns are High, low-confidence Low.
        for i in 0..10 {
            let strong = KnowledgeItem::pattern(100 + i, "s", 0.2, 0.9, 2.5);
            let weak = KnowledgeItem::pattern(200 + i, "w", 0.2, 0.1, 2.5);
            ranker.record_feedback(&strong, Interestingness::High);
            ranker.record_feedback(&weak, Interestingness::Low);
        }
        assert!(ranker.model_active());
        let unseen_strong = KnowledgeItem::pattern(999, "new strong", 0.2, 0.85, 2.5);
        let unseen_weak = KnowledgeItem::pattern(998, "new weak", 0.2, 0.15, 2.5);
        assert!(
            ranker.score(&unseen_strong) > ranker.score(&unseen_weak),
            "classifier must generalize the feedback policy"
        );
    }

    #[test]
    fn rank_is_deterministic_and_stable_on_ties() {
        let ranker = KnowledgeRanker::new();
        let twins = vec![
            KnowledgeItem::pattern(7, "a", 0.2, 0.5, 1.5),
            KnowledgeItem::pattern(3, "b", 0.2, 0.5, 1.5),
        ];
        let ranked = ranker.rank(&twins);
        assert_eq!(ranked[0].id, 3, "ties break by id");
    }

    #[test]
    fn feature_vectors_have_fixed_length() {
        let mut all = items();
        all.push(KnowledgeItem::signal(9, "signal", 0.05, 2.4, 1.8));
        for item in all {
            assert_eq!(item.features.len(), KnowledgeItem::NUM_FEATURES);
        }
    }

    #[test]
    fn signal_prior_prefers_strong_associations() {
        let strong = KnowledgeItem::signal(1, "strong", 0.08, 3.0, 2.5);
        let neutral = KnowledgeItem::signal(2, "neutral", 0.08, 1.0, 1.0);
        let sparse = KnowledgeItem::signal(3, "sparse", 0.001, 0.4, 0.9);
        assert!(strong.prior_score() > neutral.prior_score());
        assert!(neutral.prior_score() > sparse.prior_score());
        for item in [&strong, &neutral, &sparse] {
            assert!((0.0..=1.0).contains(&item.prior_score()));
        }
    }

    #[test]
    fn signal_ties_break_by_kind_then_id() {
        // Three kinds engineered onto one score: kind index then id
        // decides, exactly like the cluster/pattern tie-break fix.
        let ranker = KnowledgeRanker::new();
        let twins = vec![
            KnowledgeItem::signal(5, "a", 0.1, 2.0, 2.0),
            KnowledgeItem::signal(2, "b", 0.1, 2.0, 2.0),
        ];
        let ranked = ranker.rank(&twins);
        assert_eq!(ranked[0].id, 2, "signal ties break by id");
    }

    #[test]
    fn signal_feedback_does_not_perturb_other_kinds() {
        let mut ranker = KnowledgeRanker::new();
        let all = items();
        let before: Vec<f64> = all.iter().map(|i| ranker.score(i)).collect();

        // Fewer than MIN_HISTORY labels, so only the per-kind EMA path
        // runs — and that path is kind-isolated by construction.
        let signal = KnowledgeItem::signal(9, "renal signal", 0.05, 2.4, 1.8);
        for _ in 0..8 {
            ranker.record_feedback(&signal, Interestingness::High);
        }
        assert!(!ranker.model_active());
        assert!(ranker.kind_weight[ItemKind::Signal.index()] > 1.0);

        let after: Vec<f64> = all.iter().map(|i| ranker.score(i)).collect();
        assert_eq!(before, after, "cluster/pattern scores must not move");
    }
}

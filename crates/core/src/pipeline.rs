//! The end-to-end ADA-HEALTH pipeline (Figure 1 of the paper).
//!
//! One [`AdaHealth::run`] call executes every architecture box in order:
//!
//! 1. **Data characterization** — compute the [`DatasetDescriptor`],
//!    store it in the K-DB (collection 3);
//! 2. **Data transformation selection** — score VSM weightings, pick
//!    the best;
//! 3. **Adaptive partial mining** — grow the exam-type subset until the
//!    overall similarity is within ε of the full data (Section IV-B);
//! 4. **Algorithm optimization** — the Table I K-sweep on the selected
//!    subset, auto-selecting K;
//! 5. **Knowledge extraction** — final clustering at the selected K plus
//!    FP-growth association rules over visits, both stored as knowledge
//!    items (collections 4–5);
//! 6. **End-goal identification** — viability rules + (when history
//!    exists) the learned interest model;
//! 7. **Knowledge navigation** — rank items, gather simulated-physician
//!    feedback (collection 6), adapt, re-rank.

use ada_dataset::taxonomy::ConditionGroup;
use ada_dataset::ExamLog;
use ada_kdb::schema::{self, names};
use ada_kdb::{Document, Kdb, KdbRead, KdbSnapshot, SharedKdb};
use ada_metrics::cluster;
use ada_mining::kmeans::KMeans;
use ada_mining::patterns::rules::{format_rule, Rule};
use ada_mining::patterns::{fpgrowth, relative_min_support, rules};
use ada_vsm::VsmBuilder;
use serde::{Deserialize, Serialize};

use crate::annotator::SimulatedPhysician;
use crate::characterize::DatasetDescriptor;
use crate::compliance::{self, ComplianceReport};
use crate::control::{PipelineError, PipelineStage, RunControl};
use crate::goals::{self, EndGoal, GoalInterestModel, GoalViability, SessionExample};
use crate::optimize::{Optimizer, OptimizerReport};
use crate::partial::{HorizontalPartialMiner, PartialMiningReport};
use crate::rank::{KnowledgeItem, KnowledgeRanker};
use crate::transform::{TransformReport, TransformSelector};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct AdaHealthConfig {
    /// Session identifier (tags every K-DB document).
    pub session: String,
    /// Transformation-selection settings.
    pub transform: TransformSelector,
    /// Partial-mining settings.
    pub partial: HorizontalPartialMiner,
    /// K-sweep settings.
    pub optimizer: Optimizer,
    /// Relative minimum support for visit-level pattern mining.
    pub min_support: f64,
    /// Minimum confidence for association rules.
    pub min_confidence: f64,
    /// Maximum number of pattern knowledge items kept.
    pub max_pattern_items: usize,
    /// Simulated-physician noise level.
    pub annotator_noise: f64,
    /// Simulated-physician specialty bias.
    pub annotator_specialty: Option<ConditionGroup>,
    /// How many top-ranked items receive feedback per session.
    pub feedback_budget: usize,
    /// Master seed.
    pub seed: u64,
}

impl AdaHealthConfig {
    /// The paper's configuration (Table I K values, 10-fold CV, ε = 5%).
    pub fn paper(session: impl Into<String>) -> Self {
        Self {
            session: session.into(),
            transform: TransformSelector::default(),
            partial: HorizontalPartialMiner::default(),
            optimizer: Optimizer::paper(),
            min_support: 0.05,
            min_confidence: 0.6,
            max_pattern_items: 50,
            annotator_noise: 0.1,
            annotator_specialty: None,
            feedback_budget: 20,
            seed: 0,
        }
    }

    /// A fast configuration for tests and examples.
    pub fn quick(session: impl Into<String>) -> Self {
        Self {
            optimizer: Optimizer::quick(vec![4, 6, 8]),
            partial: HorizontalPartialMiner {
                ks: vec![6],
                ..Default::default()
            },
            feedback_budget: 10,
            ..Self::paper(session)
        }
    }
}

/// A stored cluster summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSummary {
    /// Cluster index within the final clustering.
    pub cluster: usize,
    /// Number of member patients.
    pub size: usize,
    /// Within-cluster cohesion (overall similarity of the singleton
    /// cluster set {C}).
    pub cohesion: f64,
    /// The three condition groups most over-represented in the cluster's
    /// records.
    pub top_groups: Vec<ConditionGroup>,
}

/// Everything one pipeline run produced.
///
/// Derives `PartialEq` so callers (the service determinism tests in
/// particular) can assert that a concurrent run reproduced its serial
/// counterpart exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Step 1: the dataset descriptor.
    pub descriptor: DatasetDescriptor,
    /// Step 2: the transformation report (winner first).
    pub transform: TransformReport,
    /// Step 3: the adaptive partial-mining report.
    pub partial: PartialMiningReport,
    /// Step 4: the K-sweep (Table I shape) and the selected K.
    pub optimizer: OptimizerReport,
    /// Step 5a: per-cluster summaries of the final clustering.
    pub clusters: Vec<ClusterSummary>,
    /// Step 5b: the mined association rules (confidence-sorted).
    pub rules: Vec<Rule>,
    /// Step 5c: guideline-compliance audit, run when the
    /// treatment-compliance goal is viable for this dataset.
    pub compliance: Option<ComplianceReport>,
    /// Step 6: goals ranked for this dataset.
    pub goals: Vec<(EndGoal, f64, GoalViability)>,
    /// Step 7: item descriptions in final (post-feedback) rank order.
    pub ranked_items: Vec<String>,
    /// Number of feedback entries recorded this session.
    pub feedback_recorded: usize,
}

/// The ADA-HEALTH engine instance: configuration + K-DB.
pub struct AdaHealth {
    config: AdaHealthConfig,
    kdb: SharedKdb,
    goal_model: Option<GoalInterestModel>,
    goal_history: Vec<SessionExample>,
    /// The knowledge ranker, persistent across sessions: its feedback
    /// history is rebuilt from the K-DB's feedback collection on open
    /// and keeps absorbing new sessions' feedback afterwards.
    ranker: KnowledgeRanker,
}

impl AdaHealth {
    /// Creates an engine with an in-memory K-DB.
    ///
    /// # Panics
    /// Panics when schema initialization fails (impossible in memory).
    pub fn new(config: AdaHealthConfig) -> Self {
        Self::with_kdb(config, Kdb::in_memory())
    }

    /// Creates an engine over an existing (possibly persistent) K-DB,
    /// taking sole ownership of it.
    ///
    /// # Panics
    /// Panics when the schema cannot be initialized (journal I/O).
    pub fn with_kdb(config: AdaHealthConfig, kdb: Kdb) -> Self {
        Self::with_shared_kdb(config, SharedKdb::new(kdb))
    }

    /// Creates an engine over a K-DB shared with other engines or
    /// readers (the multi-session service case). Every K-DB operation
    /// the engine performs locks only the collection shard it touches,
    /// so concurrent engines on different collections never contend and
    /// same-collection writers interleave at document granularity.
    ///
    /// # Panics
    /// Panics when the schema cannot be initialized (journal I/O).
    pub fn with_shared_kdb(config: AdaHealthConfig, kdb: SharedKdb) -> Self {
        schema::init_schema(&mut kdb.write()).expect("K-DB schema initialization failed");
        // Reload past-session interactions: every descriptor document
        // carrying both a feature vector and a chosen goal becomes a
        // training example for the end-goal interest model.
        let mut goal_history = Vec::new();
        let (goal_model, ranker) = {
            let db = kdb.read();
            if let Some(coll) = db.collection(names::DESCRIPTORS) {
                for (_, doc) in coll.iter() {
                    let features: Option<Vec<f64>> = doc.get("features").and_then(|v| {
                        v.as_array()
                            .map(|a| a.iter().filter_map(ada_kdb::Value::as_f64).collect())
                    });
                    let goal = doc
                        .get("chosen_goal")
                        .and_then(ada_kdb::Value::as_str)
                        .and_then(EndGoal::parse);
                    if let (Some(features), Some(goal)) = (features, goal) {
                        goal_history.push(SessionExample { features, goal });
                    }
                }
            }
            (
                GoalInterestModel::train(&goal_history),
                Self::rebuild_ranker(&db),
            )
        };
        Self {
            config,
            kdb,
            goal_model,
            goal_history,
            ranker,
        }
    }

    /// Creates an engine over a shared K-DB *without* absorbing the
    /// store's accumulated history: the goal model and ranker start
    /// fresh, exactly as on an empty store.
    ///
    /// This is the constructor the analysis service uses for concurrent
    /// sessions — each session's [`SessionReport`] then depends only on
    /// its own config, seed, and input log, so it is byte-identical to a
    /// serial run of the same session on an empty K-DB, no matter how
    /// sessions interleave on the shared store.
    ///
    /// # Panics
    /// Panics when the schema cannot be initialized (journal I/O).
    pub fn with_shared_kdb_isolated(config: AdaHealthConfig, kdb: SharedKdb) -> Self {
        schema::init_schema(&mut kdb.write()).expect("K-DB schema initialization failed");
        Self {
            config,
            kdb,
            goal_model: None,
            goal_history: Vec::new(),
            ranker: KnowledgeRanker::new(),
        }
    }

    /// Rebuilds the knowledge ranker from persisted feedback: every
    /// feedback document is joined to its knowledge item, the item's
    /// ranking features are reconstructed, and the (item, label) pair is
    /// replayed ("based on previous interactions … the algorithm
    /// dynamically adjusts the … order").
    fn rebuild_ranker<R: KdbRead>(kdb: &R) -> KnowledgeRanker {
        use ada_kdb::schema::Interestingness;
        let mut ranker = KnowledgeRanker::new();
        let Some(feedback) = kdb.collection(names::FEEDBACK) else {
            return ranker;
        };
        for (_, doc) in feedback.iter() {
            let Some(coll_name) = doc.get("item_collection").and_then(|v| v.as_str()) else {
                continue;
            };
            let Some(item_id) = doc.get("item_id").and_then(|v| v.as_i64()) else {
                continue;
            };
            let Some(label) = doc
                .get("interest")
                .and_then(|v| v.as_str())
                .and_then(Interestingness::parse)
            else {
                continue;
            };
            let Some(item_doc) = kdb
                .collection(coll_name)
                .and_then(|c| c.get(item_id as u64))
            else {
                continue; // item was deleted or compacted away
            };
            let get_f64 = |key: &str| item_doc.get(key).and_then(|v| v.as_f64());
            let description = item_doc
                .get("description")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_owned();
            let item = match item_doc.get("kind").and_then(|v| v.as_str()) {
                Some("cluster") => {
                    let size = get_f64("size").unwrap_or(0.0);
                    let cohesion = get_f64("score").unwrap_or(0.0);
                    // Size fraction is unknown without the cohort size;
                    // approximate with the stored absolute size scaled by
                    // a nominal cohort (ranking only needs ordering).
                    KnowledgeItem::cluster(
                        item_id as u64,
                        description,
                        (size / 1_000.0).min(1.0),
                        cohesion,
                    )
                }
                Some("pattern") => KnowledgeItem::pattern(
                    item_id as u64,
                    description,
                    get_f64("support").unwrap_or(0.0),
                    get_f64("confidence").unwrap_or(0.0),
                    get_f64("lift").unwrap_or(0.0),
                ),
                Some("signal") => KnowledgeItem::signal(
                    item_id as u64,
                    description,
                    get_f64("support").unwrap_or(0.0),
                    get_f64("ci_low").unwrap_or(0.0),
                    get_f64("shrunk").unwrap_or(0.0),
                ),
                _ => continue, // compliance items are not ranked
            };
            ranker.record_feedback(&item, label);
        }
        ranker
    }

    /// Number of feedback observations the ranker currently holds.
    pub fn ranker_feedback_count(&self) -> usize {
        self.ranker.feedback_count()
    }

    /// A point-in-time snapshot of the K-DB for reading (inspection and
    /// tests). The snapshot holds no lock — it is an immutable image, so
    /// it can be kept while pipelines run on engines sharing the store.
    pub fn kdb(&self) -> KdbSnapshot {
        self.kdb.read()
    }

    /// A clone of the shared K-DB handle (for concurrent readers or
    /// further engines over the same store).
    pub fn shared_kdb(&self) -> SharedKdb {
        self.kdb.clone()
    }

    /// Feeds past session history into the end-goal interest model
    /// ("the model is trained by previous user interactions").
    pub fn absorb_history(&mut self, examples: impl IntoIterator<Item = SessionExample>) {
        self.goal_history.extend(examples);
        self.goal_model = GoalInterestModel::train(&self.goal_history);
    }

    /// Whether the end-goal interest model is trained.
    pub fn goal_model_active(&self) -> bool {
        self.goal_model.is_some()
    }

    /// Runs the full pipeline on a log.
    ///
    /// # Panics
    /// Panics on degenerate inputs (empty log) or K-DB journal failures.
    pub fn run(&mut self, log: &ExamLog) -> SessionReport {
        self.run_controlled(log, &RunControl::new())
            .expect("a default RunControl never cancels or expires")
    }

    /// Runs the full pipeline under `control`: checkpoints at every
    /// stage boundary (and inside the partial-mining and K-sweep loops)
    /// poll the cancel flag and deadline, and an attached observer
    /// receives per-stage start/end events with wall-clock latency.
    ///
    /// On early exit the K-DB keeps the documents of the stages that
    /// completed — every insert is individually journaled and atomic —
    /// so the store stays consistent and its journal replayable; only
    /// the report is withheld.
    ///
    /// # Panics
    /// Panics on degenerate inputs (empty log) or K-DB journal failures.
    #[allow(clippy::needless_range_loop)] // lockstep multi-array indexing
    pub fn run_controlled(
        &mut self,
        log: &ExamLog,
        control: &RunControl,
    ) -> Result<SessionReport, PipelineError> {
        let session = self.config.session.clone();
        // Inner loops (partial-mining rungs, sweep points) emit sub-span
        // and counter events through the control; label it so those
        // events carry the session name the stage events use.
        let control = &control.clone().with_session(&session);
        let taxonomy = log.taxonomy();

        // 1. Characterization. The descriptor document also carries the
        // raw feature vector so future sessions can retrain the
        // end-goal interest model straight from the K-DB.
        let (descriptor, descriptor_id) =
            control.stage(&session, PipelineStage::Characterize, || {
                let descriptor = DatasetDescriptor::compute(log);
                let descriptor_doc = descriptor
                    .to_document()
                    .with("features", descriptor.feature_vector());
                let descriptor_id =
                    schema::insert_descriptors(&mut self.kdb.write(), &session, descriptor_doc)
                        .expect("K-DB insert failed");
                self.kdb
                    .insert(
                        names::RAW_DATA,
                        Document::new()
                            .with("session", session.as_str())
                            .with("patients", log.num_patients() as i64)
                            .with("exam_types", log.num_exam_types() as i64)
                            .with("records", log.num_records() as i64),
                    )
                    .expect("K-DB insert failed");
                Ok((descriptor, descriptor_id))
            })?;

        // 2. Transformation selection.
        let transform = control.stage(&session, PipelineStage::Transform, || {
            let transform = self.config.transform.select(log);
            self.kdb
                .insert(
                    names::TRANSFORMED_DATA,
                    Document::new()
                        .with("session", session.as_str())
                        .with("weighting", transform.best().to_string())
                        .with(
                            "candidates",
                            transform
                                .ranked
                                .iter()
                                .map(|s| s.weighting.to_string())
                                .collect::<Vec<_>>(),
                        ),
                )
                .expect("K-DB insert failed");
            Ok(transform)
        })?;
        let weighting = transform.best();

        // 3. Adaptive partial mining (on the chosen weighting).
        let partial = control.stage(&session, PipelineStage::PartialMining, || {
            let mut partial_cfg = self.config.partial.clone();
            partial_cfg.weighting = weighting;
            partial_cfg.run_with_control(log, control)
        })?;

        // 4. Optimization on the selected subset.
        let (optimizer, pv) = control.stage(&session, PipelineStage::Optimize, || {
            let selected_types = partial.selected_step().included;
            let pv = VsmBuilder::new()
                .weighting(weighting)
                .top_features(log, selected_types)
                .build(log);
            let optimizer = self
                .config
                .optimizer
                .run_with_control(&pv.matrix, control)?;
            Ok((optimizer, pv))
        })?;
        let k = optimizer.selected_k;

        // 5. Knowledge extraction: final clustering + pattern mining.
        let (clusters, mined_rules, items) =
            control.stage(&session, PipelineStage::KnowledgeExtraction, || {
                // 5a. Final clustering at the selected K -> cluster knowledge.
                // (Over the non-zero view the sweep already built.)
                let (final_clustering, kernel_stats) = KMeans::new(k)
                    .seed(self.config.optimizer.seed)
                    .fit_rows(&pv.matrix.sparse_rows());
                control.counters(
                    PipelineStage::KnowledgeExtraction,
                    &kernel_stats.as_pairs(),
                );
                let mut clusters = Vec::with_capacity(k);
                let mut items: Vec<KnowledgeItem> = Vec::new();
                let sizes = final_clustering.cluster_sizes();
                for cluster_idx in 0..k {
                    let members: Vec<usize> = (0..pv.matrix.num_rows())
                        .filter(|&i| final_clustering.assignments[i] == cluster_idx)
                        .collect();
                    if members.is_empty() {
                        continue;
                    }
                    let sub = pv.matrix.select_rows(&members);
                    let cohesion = cluster::overall_similarity(&sub, &vec![0; members.len()], 1);
                    // Over-represented condition groups: mean feature mass per group.
                    let mut group_mass = vec![0.0f64; ConditionGroup::ALL.len()];
                    for row in sub.rows_iter() {
                        for (c, &v) in row.iter().enumerate() {
                            if let Some(g) = taxonomy.group_of(pv.features[c]) {
                                group_mass[g.index()] += v;
                            }
                        }
                    }
                    let mut order: Vec<usize> = (0..group_mass.len()).collect();
                    order.sort_by(|&a, &b| {
                        group_mass[b]
                            .partial_cmp(&group_mass[a])
                            .expect("finite mass")
                    });
                    let top_groups: Vec<ConditionGroup> = order
                        .into_iter()
                        .take(3)
                        .map(|i| ConditionGroup::ALL[i])
                        .collect();
                    let size = sizes[cluster_idx];
                    let description = format!(
                        "cluster {cluster_idx}/{k}: {size} patients, cohesion {cohesion:.3}, dominant groups {}",
                        top_groups
                            .iter()
                            .map(|g| g.to_string())
                            .collect::<Vec<_>>()
                            .join(", ")
                    );
                    let doc_id = schema::insert_cluster_item(
                        &mut self.kdb.write(),
                        &session,
                        k,
                        cluster_idx,
                        size,
                        cohesion,
                        &description,
                    )
                    .expect("K-DB insert failed");
                    let size_fraction = size as f64 / pv.matrix.num_rows() as f64;
                    items.push(KnowledgeItem::cluster(
                        doc_id,
                        description.clone(),
                        size_fraction,
                        cohesion,
                    ));
                    clusters.push(ClusterSummary {
                        cluster: cluster_idx,
                        size,
                        cohesion,
                        top_groups,
                    });
                }

                // 5b. Pattern mining over visits -> pattern knowledge.
                let visits = log.visits();
                let transactions: Vec<Vec<u32>> = visits
                    .iter()
                    .map(|v| v.exams.iter().map(|e| e.0).collect())
                    .collect();
                let min_support = relative_min_support(transactions.len(), self.config.min_support);
                let frequent = fpgrowth::mine(&transactions, min_support);
                let mut mined_rules =
                    rules::generate(&frequent, transactions.len(), self.config.min_confidence);
                mined_rules.truncate(self.config.max_pattern_items);
                for rule in &mined_rules {
                    let description = format_rule(rule, |i| {
                        log.catalog()
                            .get(i as usize)
                            .map(|e| e.name.clone())
                            .unwrap_or_else(|| format!("exam-{i}"))
                    });
                    let items_flat: Vec<u32> = rule
                        .antecedent
                        .iter()
                        .chain(rule.consequent.iter())
                        .copied()
                        .collect();
                    let doc_id = schema::insert_pattern_item(
                        &mut self.kdb.write(),
                        &session,
                        &items_flat,
                        rule.support(),
                        rule.confidence(),
                        rule.lift(),
                        &description,
                    )
                    .expect("K-DB insert failed");
                    items.push(KnowledgeItem::pattern(
                        doc_id,
                        description,
                        rule.support(),
                        rule.confidence(),
                        rule.lift(),
                    ));
                }
                Ok((clusters, mined_rules, items))
            })?;

        // 6. End-goal identification, plus the goal-gated compliance
        // audit (step 5c of the architecture; it needs the goal ranking
        // to decide whether the compliance goal is viable).
        let (goals, compliance_report) =
            control.stage(&session, PipelineStage::GoalIdentification, || {
                let goals = goals::rank_goals(&descriptor, self.goal_model.as_ref());
                let compliance_viable = goals
                    .iter()
                    .any(|(g, _, v)| *g == EndGoal::TreatmentCompliance && v.viable);
                let compliance_report = if compliance_viable {
                    let guidelines = compliance::diabetes_guidelines(log);
                    if guidelines.is_empty() {
                        None
                    } else {
                        let audit = compliance::assess(log, &guidelines);
                        for result in &audit.results {
                            self.kdb
                                .insert(
                                    names::PATTERN_KNOWLEDGE,
                                    Document::new()
                                        .with("session", session.as_str())
                                        .with("kind", "compliance")
                                        .with("guideline", result.name.as_str())
                                        .with("eligible", result.eligible as i64)
                                        .with("compliant", result.compliant as i64)
                                        .with("score", result.rate())
                                        .with(
                                            "description",
                                            format!(
                                                "guideline \"{}\": {:.1}% compliant",
                                                result.name,
                                                result.rate() * 100.0
                                            ),
                                        ),
                                )
                                .expect("K-DB insert failed");
                        }
                        Some(audit)
                    }
                } else {
                    None
                };
                Ok((goals, compliance_report))
            })?;

        // 7. Knowledge navigation with simulated feedback. The ranker
        // persists across sessions (and K-DB reopens), so this session's
        // initial ordering already reflects earlier feedback.
        let (ranked_items, feedback_recorded) =
            control.stage(&session, PipelineStage::Navigation, || {
                let ranker = &mut self.ranker;
                let mut physician = SimulatedPhysician::new(
                    self.config.seed,
                    self.config.annotator_noise,
                    self.config.annotator_specialty,
                );
                // Item ids are per-collection document ids, so a cluster
                // and a pattern may share an id — iterate the ranked
                // references themselves rather than looking items up by id.
                let initial_order = ranker.rank(&items);
                let mut feedback_recorded = 0usize;
                for &item in initial_order.iter().take(self.config.feedback_budget) {
                    let label = match item.kind {
                        crate::rank::ItemKind::Cluster => {
                            physician.label_cluster(item.features[5], item.features[6], &[])
                        }
                        crate::rank::ItemKind::Pattern => physician.label_pattern(
                            item.features[2],
                            item.features[3],
                            item.features[4] / (1.0 - item.features[4]).max(1e-9),
                            &[],
                        ),
                        // Signal items are produced by the ada-signals
                        // workload, never by pipeline sessions; keep the
                        // arm functional so a mixed item list still ranks.
                        crate::rank::ItemKind::Signal => physician.label_signal(
                            item.features[2],
                            item.features[8] / (1.0 - item.features[8]).max(1e-9),
                            item.features[9] / (1.0 - item.features[9]).max(1e-9),
                            &[],
                        ),
                    };
                    let coll = match item.kind {
                        crate::rank::ItemKind::Cluster => names::CLUSTER_KNOWLEDGE,
                        crate::rank::ItemKind::Pattern => names::PATTERN_KNOWLEDGE,
                        crate::rank::ItemKind::Signal => names::SIGNAL_KNOWLEDGE,
                    };
                    schema::insert_feedback(&mut self.kdb.write(), &session, coll, item.id, label)
                        .expect("K-DB insert failed");
                    ranker.record_feedback(item, label);
                    feedback_recorded += 1;
                }
                let ranked_items: Vec<String> = ranker
                    .rank(&items)
                    .iter()
                    .map(|i| i.description.clone())
                    .collect();

                // Remember this session for future goal-interest training:
                // treat the top-ranked viable goal as the goal the user
                // pursued. The choice is persisted into the session's
                // descriptor document, so a store reopened later reloads the
                // full interaction history ("the K-DB will be continuously
                // enriched with new … feedbacks"). The atomic
                // read-modify-write holds the descriptors shard lock, so
                // concurrent sessions cannot interleave between the read
                // and the update.
                if let Some((chosen, _, _)) = goals.iter().find(|(_, _, v)| v.viable) {
                    self.goal_history.push(SessionExample {
                        features: descriptor.feature_vector(),
                        goal: *chosen,
                    });
                    self.goal_model = GoalInterestModel::train(&self.goal_history);
                    self.kdb
                        .update_with(names::DESCRIPTORS, descriptor_id, |doc| {
                            doc.clone().with("chosen_goal", chosen.name())
                        })
                        .expect("K-DB update failed");
                }
                Ok((ranked_items, feedback_recorded))
            })?;

        Ok(SessionReport {
            descriptor,
            transform,
            partial,
            optimizer,
            clusters,
            rules: mined_rules,
            compliance: compliance_report,
            goals,
            ranked_items,
            feedback_recorded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::synthetic::{generate, SyntheticConfig};
    use ada_kdb::Filter;

    fn tiny_cfg() -> SyntheticConfig {
        SyntheticConfig {
            num_patients: 150,
            num_exam_types: 30,
            target_records: 2_200,
            ..SyntheticConfig::small()
        }
    }

    #[test]
    fn full_pipeline_produces_all_artifacts() {
        let log = generate(&tiny_cfg(), 23);
        let mut engine = AdaHealth::new(AdaHealthConfig::quick("s1"));
        let report = engine.run(&log);

        // Step artifacts.
        assert_eq!(report.descriptor.summary.num_patients, 150);
        assert!(!report.transform.ranked.is_empty());
        assert!(report.partial.steps.len() >= 2);
        assert_eq!(report.optimizer.evaluations.len(), 3);
        assert!(!report.clusters.is_empty());
        assert!(!report.goals.is_empty());
        assert!(!report.ranked_items.is_empty());
        assert!(report.feedback_recorded > 0);

        // Every knowledge item is ranked.
        let total_items = report.clusters.len() + report.rules.len();
        assert_eq!(report.ranked_items.len(), total_items);
    }

    #[test]
    fn kdb_holds_all_six_collections_populated() {
        let log = generate(&tiny_cfg(), 29);
        let mut engine = AdaHealth::new(AdaHealthConfig::quick("s2"));
        let report = engine.run(&log);
        let db = engine.kdb();
        let count = |coll: &str| {
            db.collection(coll)
                .unwrap_or_else(|| panic!("missing collection {coll}"))
                .len()
        };
        assert_eq!(count(names::RAW_DATA), 1);
        assert_eq!(count(names::TRANSFORMED_DATA), 1);
        assert_eq!(count(names::DESCRIPTORS), 1);
        assert_eq!(count(names::CLUSTER_KNOWLEDGE), report.clusters.len());
        let compliance_items = report.compliance.as_ref().map_or(0, |c| c.results.len());
        assert_eq!(
            count(names::PATTERN_KNOWLEDGE),
            report.rules.len() + compliance_items
        );
        assert_eq!(count(names::FEEDBACK), report.feedback_recorded);

        // Knowledge items are queryable by session.
        let found = db
            .find(names::CLUSTER_KNOWLEDGE, &Filter::eq("session", "s2"))
            .unwrap();
        assert_eq!(found.len(), report.clusters.len());
    }

    #[test]
    fn selected_k_respects_optimizer_choice() {
        let log = generate(&tiny_cfg(), 31);
        let mut engine = AdaHealth::new(AdaHealthConfig::quick("s3"));
        let report = engine.run(&log);
        // Non-empty clusters are at most K (empty ones are skipped).
        assert!(report.clusters.len() <= report.optimizer.selected_k);
        assert!(report
            .optimizer
            .evaluations
            .iter()
            .any(|e| e.k == report.optimizer.selected_k));
    }

    #[test]
    fn history_accumulates_and_model_trains_across_sessions() {
        let mut engine = AdaHealth::new(AdaHealthConfig::quick("multi"));
        assert!(!engine.goal_model_active());
        // Pre-seed history below threshold, then run sessions.
        for seed in 0..8 {
            let log = generate(&tiny_cfg(), 100 + seed);
            engine.run(&log);
        }
        assert!(
            engine.goal_model_active(),
            "8 sessions should train the goal model"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let log = generate(&tiny_cfg(), 37);
        let a = AdaHealth::new(AdaHealthConfig::quick("d")).run(&log);
        let b = AdaHealth::new(AdaHealthConfig::quick("d")).run(&log);
        assert_eq!(a.ranked_items, b.ranked_items);
        assert_eq!(a.optimizer, b.optimizer);
    }
}

//! Identification of viable end-goals.
//!
//! "The core and one of the most innovative contributions of the
//! ADA-HEALTH architecture": (i) a knowledge database of past sessions,
//! (ii) an algorithm to identify *viable* end-goals for a dataset, and
//! (iii) an algorithm to select end-goals *of interest* to a specific
//! user — "addressed again as a classification problem, thus, the model
//! is trained by previous user interactions".
//!
//! [`viability`] implements (ii) as a rule set over the
//! [`DatasetDescriptor`] ("a set of formal rules able to predict the
//! feasible analysis end-goals on a given dataset"); [`GoalInterestModel`]
//! implements (iii) as a decision tree over descriptor features trained
//! on past (dataset → chosen goal) interactions.

use ada_mining::tree::{DecisionTree, TreeConfig};
use ada_vsm::DenseMatrix;

use crate::characterize::DatasetDescriptor;

/// The analysis end-goals of the paper's introduction: discovering
/// patient groups, commonly prescribed examinations, compliance/outcome
/// signals, drug/condition interactions, and resource planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EndGoal {
    /// "Discover groups of patients with similar clinical history"
    /// (clustering).
    ClusterPatients,
    /// "Identify medical examinations commonly prescribed by physicians"
    /// (frequent patterns).
    FrequentExamPatterns,
    /// "Identify which examinations/treatments have the highest patients
    /// compliance" (longitudinal pattern analysis).
    TreatmentCompliance,
    /// "Discover previously unknown interaction between drugs or medical
    /// conditions" (cross-group association rules).
    InteractionDiscovery,
    /// "Predicting and assessing the outcome of medical treatments"
    /// (supervised; needs outcome labels).
    OutcomePrediction,
    /// "Planning resource allocation and reduce costs" (volume
    /// statistics).
    ResourcePlanning,
}

impl EndGoal {
    /// All end-goals, in a stable order.
    pub const ALL: [EndGoal; 6] = [
        EndGoal::ClusterPatients,
        EndGoal::FrequentExamPatterns,
        EndGoal::TreatmentCompliance,
        EndGoal::InteractionDiscovery,
        EndGoal::OutcomePrediction,
        EndGoal::ResourcePlanning,
    ];

    /// Stable dense index within [`EndGoal::ALL`].
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|g| *g == self)
            .expect("every variant listed in ALL")
    }

    /// Parses the canonical [`EndGoal::name`] form.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.iter().copied().find(|g| g.name() == name)
    }

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            EndGoal::ClusterPatients => "cluster-patients",
            EndGoal::FrequentExamPatterns => "frequent-exam-patterns",
            EndGoal::TreatmentCompliance => "treatment-compliance",
            EndGoal::InteractionDiscovery => "interaction-discovery",
            EndGoal::OutcomePrediction => "outcome-prediction",
            EndGoal::ResourcePlanning => "resource-planning",
        }
    }
}

impl std::fmt::Display for EndGoal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One goal's viability verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GoalViability {
    /// The goal under test.
    pub goal: EndGoal,
    /// Whether the dataset supports the goal.
    pub viable: bool,
    /// Human-readable justification.
    pub reason: String,
}

/// Applies the formal viability rules to a dataset descriptor.
pub fn viability(d: &DatasetDescriptor) -> Vec<GoalViability> {
    let verdict = |goal, viable, reason: String| GoalViability {
        goal,
        viable,
        reason,
    };
    let s = &d.summary;
    EndGoal::ALL
        .iter()
        .map(|&goal| match goal {
            EndGoal::ClusterPatients => {
                let ok = s.num_patients >= 30 && s.distinct_exams_per_patient_mean >= 1.5;
                verdict(
                    goal,
                    ok,
                    format!(
                        "{} patients with {:.1} distinct exams each (needs ≥30 / ≥1.5)",
                        s.num_patients, s.distinct_exams_per_patient_mean
                    ),
                )
            }
            EndGoal::FrequentExamPatterns => {
                let ok =
                    s.distinct_exams_per_patient_mean >= 2.0 && d.frequent_pair_density >= 0.01;
                verdict(
                    goal,
                    ok,
                    format!(
                        "frequent-pair density {:.3} (needs ≥0.01 with ≥2 distinct exams/patient)",
                        d.frequent_pair_density
                    ),
                )
            }
            EndGoal::TreatmentCompliance => {
                let ok = s.records_per_patient_mean >= 5.0;
                verdict(
                    goal,
                    ok,
                    format!(
                        "{:.1} records/patient (longitudinal signal needs ≥5)",
                        s.records_per_patient_mean
                    ),
                )
            }
            EndGoal::InteractionDiscovery => {
                let ok = s.num_records >= 1_000 && s.exam_frequency_entropy >= 1.0;
                verdict(
                    goal,
                    ok,
                    format!(
                        "{} records, exam entropy {:.2} (needs ≥1000 / ≥1.0)",
                        s.num_records, s.exam_frequency_entropy
                    ),
                )
            }
            EndGoal::OutcomePrediction => verdict(
                goal,
                false,
                "examination logs carry no outcome labels; supervised goals need them".into(),
            ),
            EndGoal::ResourcePlanning => {
                let ok = s.num_records >= 500;
                verdict(
                    goal,
                    ok,
                    format!("{} records (volume statistics need ≥500)", s.num_records),
                )
            }
        })
        .collect()
}

/// A past interaction: descriptor features of a dataset and the goal the
/// user ultimately pursued (read back from K-DB feedback in the
/// pipeline).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionExample {
    /// [`DatasetDescriptor::feature_vector`] of the session's dataset.
    pub features: Vec<f64>,
    /// The goal the user chose.
    pub goal: EndGoal,
}

/// The end-goal interest model: a decision tree over descriptor features
/// predicting which goal a user will choose.
#[derive(Debug, Clone, PartialEq)]
pub struct GoalInterestModel {
    tree: DecisionTree,
    num_features: usize,
}

impl GoalInterestModel {
    /// Minimum number of examples before training is allowed.
    pub const MIN_EXAMPLES: usize = 8;

    /// Trains the model from session history.
    ///
    /// Returns `None` with fewer than [`Self::MIN_EXAMPLES`] examples —
    /// "the larger the number of previous user interactions, the more
    /// accurate the classification model will be".
    pub fn train(examples: &[SessionExample]) -> Option<Self> {
        if examples.len() < Self::MIN_EXAMPLES {
            return None;
        }
        let num_features = examples[0].features.len();
        assert!(
            examples.iter().all(|e| e.features.len() == num_features),
            "inconsistent feature vectors"
        );
        let rows: Vec<Vec<f64>> = examples.iter().map(|e| e.features.clone()).collect();
        let labels: Vec<usize> = examples.iter().map(|e| e.goal.index()).collect();
        let matrix = DenseMatrix::from_rows(&rows);
        let tree = DecisionTree::fit(
            &matrix,
            &labels,
            EndGoal::ALL.len(),
            &TreeConfig {
                max_depth: 6,
                min_samples_leaf: 2,
                ..TreeConfig::default()
            },
        );
        Some(Self { tree, num_features })
    }

    /// Predicts the goal of interest for a dataset.
    ///
    /// # Panics
    /// Panics when the descriptor features have a different length than
    /// the training features.
    pub fn predict(&self, descriptor: &DatasetDescriptor) -> EndGoal {
        let features = descriptor.feature_vector();
        assert_eq!(features.len(), self.num_features, "feature mismatch");
        EndGoal::ALL[self.tree.predict_row(&features)]
    }
}

/// Ranks goals for a dataset: viable goals first, the model's predicted
/// goal (when a model exists) promoted to the top, non-viable goals
/// last with score 0.
pub fn rank_goals(
    descriptor: &DatasetDescriptor,
    model: Option<&GoalInterestModel>,
) -> Vec<(EndGoal, f64, GoalViability)> {
    let verdicts = viability(descriptor);
    let predicted = model.map(|m| m.predict(descriptor));
    let mut ranked: Vec<(EndGoal, f64, GoalViability)> = verdicts
        .into_iter()
        .map(|v| {
            let mut score = if v.viable { 0.5 } else { 0.0 };
            if v.viable {
                // Heuristic priors mirroring the paper's exploratory
                // preference: unsupervised exploratory goals first.
                score += match v.goal {
                    EndGoal::ClusterPatients => 0.3,
                    EndGoal::FrequentExamPatterns => 0.25,
                    EndGoal::InteractionDiscovery => 0.2,
                    EndGoal::TreatmentCompliance => 0.15,
                    EndGoal::ResourcePlanning => 0.1,
                    EndGoal::OutcomePrediction => 0.05,
                };
                if predicted == Some(v.goal) {
                    score += 1.0;
                }
            }
            (v.goal, score, v)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite scores")
            .then_with(|| a.0.index().cmp(&b.0.index()))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use ada_dataset::synthetic::{generate, SyntheticConfig};

    fn descriptor() -> DatasetDescriptor {
        DatasetDescriptor::compute(&generate(&SyntheticConfig::small(), 5))
    }

    #[test]
    fn synthetic_cohort_supports_exploratory_goals() {
        let v = viability(&descriptor());
        let get = |goal: EndGoal| v.iter().find(|x| x.goal == goal).unwrap();
        assert!(get(EndGoal::ClusterPatients).viable);
        assert!(get(EndGoal::FrequentExamPatterns).viable);
        assert!(get(EndGoal::InteractionDiscovery).viable);
        assert!(
            !get(EndGoal::OutcomePrediction).viable,
            "no outcome labels in an exam log"
        );
    }

    #[test]
    fn tiny_dataset_blocks_clustering() {
        let log = generate(
            &SyntheticConfig {
                num_patients: 10,
                num_exam_types: 12,
                target_records: 60,
                ..SyntheticConfig::small()
            },
            1,
        );
        let d = DatasetDescriptor::compute(&log);
        let v = viability(&d);
        assert!(
            !v.iter()
                .find(|x| x.goal == EndGoal::ClusterPatients)
                .unwrap()
                .viable
        );
    }

    /// Synthetic session history: two archetypes with cleanly different
    /// descriptor features.
    fn history(n: usize) -> Vec<SessionExample> {
        let dims = DatasetDescriptor::feature_names().len();
        (0..n)
            .map(|i| {
                let mut features = vec![0.1; dims];
                if i % 2 == 0 {
                    features[5] = 0.9; // high sparsity -> clustering users
                    SessionExample {
                        features,
                        goal: EndGoal::ClusterPatients,
                    }
                } else {
                    features[5] = 0.2;
                    SessionExample {
                        features,
                        goal: EndGoal::FrequentExamPatterns,
                    }
                }
            })
            .collect()
    }

    #[test]
    fn model_needs_enough_history() {
        assert!(GoalInterestModel::train(&history(4)).is_none());
        assert!(GoalInterestModel::train(&history(10)).is_some());
    }

    #[test]
    fn model_learns_the_archetypes() {
        let model = GoalInterestModel::train(&history(20)).unwrap();
        let d = descriptor(); // sparse synthetic data -> clustering archetype
        assert!(d.sparsity() > 0.5);
        assert_eq!(model.predict(&d), EndGoal::ClusterPatients);
    }

    #[test]
    fn rank_puts_predicted_goal_first_and_nonviable_last() {
        let model = GoalInterestModel::train(&history(20)).unwrap();
        let d = descriptor();
        let ranked = rank_goals(&d, Some(&model));
        assert_eq!(ranked[0].0, EndGoal::ClusterPatients);
        assert!(ranked[0].1 > 1.0);
        let last = ranked.last().unwrap();
        assert!(!last.2.viable);
        assert_eq!(last.1, 0.0);
        // Without a model, ranking still works on viability + priors.
        let unranked = rank_goals(&d, None);
        assert!(unranked[0].2.viable);
    }

    #[test]
    fn goal_indices_stable() {
        for (i, g) in EndGoal::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }

    #[test]
    fn goal_name_round_trip() {
        for g in EndGoal::ALL {
            assert_eq!(EndGoal::parse(g.name()), Some(g));
        }
        assert_eq!(EndGoal::parse("bogus"), None);
    }
}

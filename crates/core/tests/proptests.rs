//! Property tests: engine-layer invariants.

use ada_core::annotator::SimulatedPhysician;
use ada_core::goals::{self, GoalInterestModel, SessionExample};
use ada_core::rank::{KnowledgeItem, KnowledgeRanker};
use ada_kdb::schema::Interestingness;
use proptest::prelude::*;

fn knowledge_items() -> impl Strategy<Value = Vec<KnowledgeItem>> {
    prop::collection::vec(
        (
            0u64..10_000,
            prop::bool::ANY,
            0.0f64..1.0,
            0.0f64..1.0,
            0.0f64..8.0,
        )
            .prop_map(|(id, is_cluster, a, b, c)| {
                if is_cluster {
                    KnowledgeItem::cluster(id, format!("c{id}"), a, b)
                } else {
                    KnowledgeItem::pattern(id, format!("p{id}"), a, b, c)
                }
            }),
        1..20,
    )
}

proptest! {
    #[test]
    fn ranking_is_a_permutation_with_finite_scores(items in knowledge_items()) {
        let ranker = KnowledgeRanker::new();
        let ranked = ranker.rank(&items);
        prop_assert_eq!(ranked.len(), items.len());
        // Every input item appears exactly once.
        let mut seen: Vec<u64> = ranked.iter().map(|i| i.id).collect();
        seen.sort_unstable();
        let mut expected: Vec<u64> = items.iter().map(|i| i.id).collect();
        expected.sort_unstable();
        prop_assert_eq!(seen, expected);
        // Scores are finite and non-increasing along the ranking.
        let scores: Vec<f64> = ranked.iter().map(|i| ranker.score(i)).collect();
        prop_assert!(scores.iter().all(|s| s.is_finite()));
        for w in scores.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn feedback_never_breaks_ranking(
        items in knowledge_items(),
        labels in prop::collection::vec(0u8..3, 0..30),
    ) {
        let mut ranker = KnowledgeRanker::new();
        for (i, &l) in labels.iter().enumerate() {
            let item = &items[i % items.len()];
            let label = match l {
                0 => Interestingness::Low,
                1 => Interestingness::Medium,
                _ => Interestingness::High,
            };
            ranker.record_feedback(item, label);
        }
        prop_assert_eq!(ranker.feedback_count(), labels.len());
        let ranked = ranker.rank(&items);
        prop_assert_eq!(ranked.len(), items.len());
        prop_assert!(items.iter().all(|i| ranker.score(i).is_finite()));
    }

    #[test]
    fn annotator_is_deterministic_and_total(
        seed in 0u64..1000,
        noise in 0.0f64..1.0,
        support in 0.0f64..1.0,
        confidence in 0.0f64..1.0,
        lift in 0.0f64..10.0,
    ) {
        let mut a = SimulatedPhysician::new(seed, noise);
        let mut b = SimulatedPhysician::new(seed, noise);
        let la = a.label_pattern(support, confidence, lift);
        let lb = b.label_pattern(support, confidence, lift);
        prop_assert_eq!(la, lb);
        // Cluster labels are total too.
        let _ = a.label_cluster(support, confidence);
    }

    #[test]
    fn goal_model_predictions_stay_in_catalogue(
        examples in prop::collection::vec(
            (
                prop::collection::vec(0.0f64..1.0, 21),
                0usize..goals::EndGoal::ALL.len(),
            )
                .prop_map(|(features, g)| SessionExample {
                    features,
                    goal: goals::EndGoal::ALL[g],
                }),
            8..24,
        ),
    ) {
        // 21 = descriptor feature count (11 scalars + 10 group shares).
        if let Some(model) = GoalInterestModel::train(&examples) {
            // Predict on a real descriptor: must be a catalogue goal and
            // must not panic.
            use ada_core::characterize::DatasetDescriptor;
            use ada_dataset::synthetic::{generate, SyntheticConfig};
            let log = generate(
                &SyntheticConfig {
                    num_patients: 40,
                    num_exam_types: 12,
                    target_records: 300,
                    ..SyntheticConfig::small()
                },
                1,
            );
            let d = DatasetDescriptor::compute(&log);
            let predicted = model.predict(&d);
            prop_assert!(goals::EndGoal::ALL.contains(&predicted));
        }
    }

    #[test]
    fn viability_reasons_are_always_given(
        patients in 1usize..60,
        exams in 10usize..20,
        records in 10usize..500,
    ) {
        use ada_core::characterize::DatasetDescriptor;
        use ada_dataset::synthetic::{generate, SyntheticConfig};
        let log = generate(
            &SyntheticConfig {
                num_patients: patients,
                num_exam_types: exams,
                target_records: records,
                ..SyntheticConfig::small()
            },
            7,
        );
        let d = DatasetDescriptor::compute(&log);
        let verdicts = goals::viability(&d);
        prop_assert_eq!(verdicts.len(), goals::EndGoal::ALL.len());
        for v in &verdicts {
            prop_assert!(!v.reason.is_empty());
        }
        // Ranking respects viability: non-viable goals score 0.
        let ranked = goals::rank_goals(&d, None);
        for (_, score, verdict) in &ranked {
            if !verdict.viable {
                prop_assert_eq!(*score, 0.0);
            } else {
                prop_assert!(*score > 0.0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn partial_miners_ignore_the_thread_count(cohort in 0u64..1_000, seed in 0u64..100) {
        use ada_core::partial::{HorizontalPartialMiner, VerticalPartialMiner};
        use ada_dataset::synthetic::{generate, SyntheticConfig};
        // 400 patients: two kernel chunks, so row threads split real work.
        let log = generate(&SyntheticConfig::small(), cohort);
        let horizontal = |threads| HorizontalPartialMiner {
            fractions: vec![0.4],
            ks: vec![5],
            restarts: 2,
            seed,
            threads,
            ..Default::default()
        }
        .run(&log);
        let vertical = |threads| VerticalPartialMiner {
            fractions: vec![0.8],
            ks: vec![5],
            seed,
            threads,
            ..Default::default()
        }
        .run(&log);
        let (serial_h, serial_v) = (horizontal(1), vertical(1));
        for threads in [0usize, 2, 3, 7] {
            prop_assert_eq!(&horizontal(threads), &serial_h, "horizontal, threads = {}", threads);
            prop_assert_eq!(&vertical(threads), &serial_v, "vertical, threads = {}", threads);
        }
    }
}

//! The observability layer must never change results: clustering and
//! full-pipeline reports are byte-identical with the flight recorder
//! attached or absent. Property-tested across synthetic cohorts.

use std::sync::Arc;

use ada_core::{AdaHealth, AdaHealthConfig, PipelineStage, RunControl};
use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_mining::kmeans::KMeans;
use ada_obs::FlightRecorder;
use ada_vsm::VsmBuilder;
use proptest::prelude::*;

fn cohort(patients: usize, exams: usize, records: usize, seed: u64) -> ada_dataset::ExamLog {
    generate(
        &SyntheticConfig {
            num_patients: patients,
            num_exam_types: exams,
            target_records: records,
            ..SyntheticConfig::small()
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Kernel level: `fit_with_stats` (the instrumented path) and `fit`
    // assign every row identically — the counters are pure accounting.
    #[test]
    fn kernel_stats_never_change_assignments(
        seed in 0u64..500,
        k in 2usize..6,
        patients in 30usize..80,
    ) {
        let log = cohort(patients, 15, 600, seed);
        let matrix = VsmBuilder::new().build(&log).matrix;
        let kmeans = KMeans::new(k).seed(seed ^ 0xa5a5);
        let plain = kmeans.fit(&matrix);
        let (with_stats, stats) = kmeans.fit_with_stats(&matrix);
        prop_assert_eq!(&plain.assignments, &with_stats.assignments);
        prop_assert_eq!(plain.sse, with_stats.sse);
        prop_assert!(stats.iterations > 0);
        prop_assert!(stats.rows_scanned <= stats.iterations * matrix.num_rows() as u64);
    }

    // Pipeline level: a controlled run with the flight recorder
    // observing equals an unobserved run field-by-field.
    #[test]
    fn recorder_on_and_off_produce_identical_reports(seed in 0u64..100) {
        let log = cohort(60, 16, 800, seed);
        let config = AdaHealthConfig::quick(format!("det-{seed}"));

        let report_off = AdaHealth::new(config.clone())
            .run_controlled(&log, &RunControl::new())
            .expect("unobserved run completes");

        let recorder = Arc::new(FlightRecorder::new());
        let control = RunControl::new().with_observer(recorder.clone());
        let report_on = AdaHealth::new(config)
            .run_controlled(&log, &control)
            .expect("observed run completes");

        prop_assert_eq!(&report_off, &report_on);
        // And the recorder actually saw the run: its record holds a
        // span for each of the seven stages.
        let doc = recorder.finalize(&format!("det-{seed}"), "completed", "");
        let spans = doc.get("spans").and_then(ada_kdb::Value::as_array).unwrap();
        for stage in PipelineStage::PIPELINE {
            let named = |s: &&ada_kdb::Value| {
                s.as_doc().and_then(|d| d.get("name")).and_then(ada_kdb::Value::as_str)
                    == Some(stage.name())
            };
            prop_assert_eq!(spans.iter().filter(named).count(), 1, "{} span", stage);
        }
    }
}

//! A fleet of concurrent analysis sessions through `ada-service`.
//!
//! The paper's closing vision is an automated analytics flow serving
//! many questions at once — "a path towards automated data analysis".
//! This example submits nine synthetic-cohort sessions with mixed
//! priorities to one [`AnalysisService`] over a single shared K-DB,
//! cancels one mid-flight, lets one exercise the retry path, and then
//! prints the registry's final states plus the aggregate service
//! metrics.
//!
//! ```text
//! cargo run --release --example service_fleet
//! ```

use std::sync::Arc;

use ada_health::dataset::synthetic::{generate, SyntheticConfig};
use ada_health::engine::pipeline::AdaHealthConfig;
use ada_health::kdb::SharedKdb;
use ada_health::service::{
    AnalysisService, CancelToken, JobSpec, Priority, ServiceConfig, SessionState,
};

fn main() {
    let service = AnalysisService::new(
        ServiceConfig {
            workers: 4,
            queue_capacity: 32,
            ..ServiceConfig::default()
        },
        SharedKdb::in_memory(),
    );

    let cohort = SyntheticConfig {
        num_patients: 100,
        num_exam_types: 22,
        target_records: 1_400,
        ..SyntheticConfig::small()
    };

    // Eight regular sessions, cycling through the priority classes —
    // distinct seeds, so each analyzes a different cohort.
    println!("== submitting fleet ==");
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let mut ids = Vec::new();
    for i in 0..8u64 {
        let priority = priorities[i as usize % priorities.len()];
        let spec = JobSpec::new(
            AdaHealthConfig::quick(format!("cohort-{i:02}")),
            Arc::new(generate(&cohort, 1_000 + i)),
        )
        .priority(priority);
        let id = service.submit(spec).expect("queue has room");
        println!("  {id} cohort-{i:02} ({priority})");
        ids.push(id);
    }

    // A ninth session we cancel while it is still in flight.
    let doomed_token = CancelToken::new();
    let doomed = service
        .submit(
            JobSpec::new(
                AdaHealthConfig::quick("cancelled-study"),
                Arc::new(generate(&cohort, 2_000)),
            )
            .priority(Priority::Low)
            .cancel_token(doomed_token.clone()),
        )
        .expect("queue has room");
    println!("  {doomed} cancelled-study (low, will be cancelled)");

    // And a flaky one that panics twice before succeeding, to show the
    // capped-backoff retry path.
    let flaky = service
        .submit(
            JobSpec::new(
                AdaHealthConfig::quick("flaky-study"),
                Arc::new(generate(&cohort, 3_000)),
            )
            .inject_failures(2)
            .max_retries(3),
        )
        .expect("queue has room");
    println!("  {flaky} flaky-study (normal, 2 injected failures)");
    println!("  (any panic messages below are the injected failures being caught and retried)");

    // Cancel the doomed session mid-flight: the token flips now; the
    // session observes it at its next pipeline checkpoint (or before it
    // ever starts, if it is still queued).
    doomed_token.cancel();

    for id in ids.iter().chain([&doomed, &flaky]) {
        service.wait(*id).expect("session registered");
    }

    println!("\n== registry final states ==");
    for (id, name, state) in service.sessions() {
        let detail = match &state {
            SessionState::Completed(outcome) => match outcome.pipeline() {
                Some(report) => format!(
                    "{} clusters, {} rules, top goal {}",
                    report.clusters.len(),
                    report.rules.len(),
                    report
                        .goals
                        .first()
                        .map_or_else(|| "-".to_string(), |(g, _, _)| g.name().to_string()),
                ),
                None => "signals session".to_string(),
            },
            SessionState::Failed { reason } => reason.clone(),
            _ => String::new(),
        };
        println!("  {id} {name:<16} {:<9} {detail}", state.label());
    }

    let metrics = service.shutdown();
    println!("\n== aggregate service metrics ==");
    println!("  submitted        {}", metrics.submitted);
    println!("  completed        {}", metrics.completed);
    println!("  failed           {}", metrics.failed);
    println!("  cancelled        {}", metrics.cancelled);
    println!("  retries          {}", metrics.retried);
    println!("  rejected         {}", metrics.rejected);
    println!("  max queue depth  {}", metrics.max_queue_depth);
    println!("  per-stage latency (mean over runs):");
    for (stage, stat) in &metrics.stages {
        println!(
            "    {stage:<21} {:>4} runs  {:>8.2?} mean",
            stat.runs, stat.mean
        );
    }
}

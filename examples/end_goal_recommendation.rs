//! Self-learning end-goal recommendation across sessions, with a
//! persistent K-DB.
//!
//! The paper's "core and most innovative contribution": after enough
//! past sessions, ADA-HEALTH should predict which analysis end-goal a
//! user will find interesting for a *new* dataset. This example runs
//! several sessions over differently-shaped cohorts (persisting every
//! artifact to an on-disk K-DB journal), lets the goal-interest model
//! train on the accumulated history, and shows the recommendation for a
//! fresh dataset — plus the K-DB surviving a reopen.
//!
//! ```text
//! cargo run --release --example end_goal_recommendation
//! ```

use ada_health::dataset::synthetic::{generate, SyntheticConfig};
use ada_health::engine::pipeline::{AdaHealth, AdaHealthConfig};
use ada_health::kdb::schema::names;
use ada_health::kdb::{Kdb, SharedKdb};

fn main() {
    let kdb_path = std::env::temp_dir().join("ada_health_example_kdb.journal");
    std::fs::remove_file(&kdb_path).ok();

    // Sessions over cohorts of varying shape (different sizes and
    // sparsity levels), all persisted into one K-DB.
    let cohorts = [
        (150usize, 30usize, 2_000usize),
        (220, 40, 3_500),
        (300, 50, 4_200),
        (180, 35, 2_600),
        (260, 45, 4_000),
        (200, 30, 3_000),
        (240, 50, 3_800),
        (170, 40, 2_400),
    ];

    let db = Kdb::open(&kdb_path).expect("open journaled K-DB");
    let mut engine =
        AdaHealth::with_shared_kdb(AdaHealthConfig::quick("session-0"), SharedKdb::new(db));
    for (i, &(patients, types, records)) in cohorts.iter().enumerate() {
        let cfg = SyntheticConfig {
            num_patients: patients,
            num_exam_types: types,
            target_records: records,
            ..SyntheticConfig::small()
        };
        let log = generate(&cfg, 1_000 + i as u64);
        let report = engine.run(&log);
        println!(
            "session {i}: {patients} patients -> goal {:<24} (K = {}, {} knowledge items)",
            report.goals[0].0.to_string(),
            report.optimizer.selected_k,
            report.ranked_items.len()
        );
    }

    println!(
        "\ngoal-interest model trained: {} (needs {} sessions)",
        engine.goal_model_active(),
        ada_health::engine::goals::GoalInterestModel::MIN_EXAMPLES
    );

    // Recommendation for a brand-new dataset.
    let fresh = generate(&SyntheticConfig::small(), 9_999);
    let report = engine.run(&fresh);
    println!("\nrecommendations for the new dataset (ranked):");
    for (goal, score, verdict) in report.goals.iter().take(3) {
        println!(
            "  {:<26} score {:.2}  ({})",
            goal.to_string(),
            score,
            verdict.reason
        );
    }

    // The K-DB journal holds everything; prove it survives a reopen.
    drop(engine);
    let reopened = Kdb::open(&kdb_path).expect("replay journal");
    println!("\nK-DB after reopen (journal replayed):");
    for name in names::ALL {
        println!(
            "  {name:<20} {} documents",
            reopened.collection(name).map_or(0, |c| c.len())
        );
    }
    std::fs::remove_file(&kdb_path).ok();
}

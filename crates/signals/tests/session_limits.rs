//! The two fixed limits of a signal session: an exam with fewer than
//! `MIN_EXPOSED` exposed patients is never tested as an exposure, and a
//! report keeps at most `MAX_SIGNALS` signals. Both are private
//! constants of `session.rs`; the values here mirror them.

use ada_core::RunControl;
use ada_dataset::synthetic::{generate, SyntheticConfig};
use ada_kdb::SharedKdb;
use ada_signals::{run_session, CohortIndex, SignalConfig};

const MIN_EXPOSED: u64 = 5;
const MAX_SIGNALS: usize = 40;

#[test]
fn default_session_keeps_the_exposure_floor_and_the_signal_cap() {
    let log = generate(&SyntheticConfig::small(), 406);
    let config = SignalConfig::default();
    let report = run_session(
        "limits",
        &config,
        &log,
        &SharedKdb::in_memory(),
        &RunControl::new(),
    )
    .unwrap();

    // The cohort reaches both limits: some exams fall under the floor,
    // and more tables are built than the cap keeps.
    let index = CohortIndex::build(&log);
    assert!(
        index
            .exposed_counts
            .iter()
            .any(|&n| n > 0 && n < MIN_EXPOSED),
        "the cohort must hold an exam below the exposure floor"
    );
    let tables: u64 = log
        .catalog()
        .iter()
        .filter(|e| index.exposed_counts[e.id.index()] >= MIN_EXPOSED)
        .map(|e| {
            let group = index.exam_groups[e.id.index()];
            config.outcomes.iter().filter(|&&o| o != group).count() as u64
        })
        .sum();
    assert_eq!(
        report.tables_built, tables,
        "one table per exposure over the floor and non-tautological outcome"
    );
    assert!(report.tables_built > MAX_SIGNALS as u64);

    assert_eq!(report.signals.len(), MAX_SIGNALS);
    for signal in &report.signals {
        assert!(
            signal.table.a + signal.table.b >= MIN_EXPOSED,
            "{}",
            signal.description
        );
    }
}

//! Golden bytes for every metrics renderer: each collector's snapshot,
//! built from fixed literal values, must render the exact exposition and
//! document bytes pinned here. Dashboards and the ledger parse these
//! strings, so a change to a family table shows up as a diff of this file.

use std::collections::BTreeMap;
use std::time::Duration;

use ada_kdb::GroupCommitSnapshot;
use ada_net::NetMetricsSnapshot;
use ada_obs::{FleetMetricsSnapshot, Metrics, ReplMetricsSnapshot, StreamMetricsSnapshot};
use ada_service::{ServiceMetrics, StageMetrics};

fn stage(runs: u64, total_us: u64, p50: u64, p90: u64, p99: u64) -> StageMetrics {
    StageMetrics {
        runs,
        total: Duration::from_micros(total_us),
        mean: Duration::from_micros(total_us / runs.max(1)),
        p50: Duration::from_micros(p50),
        p90: Duration::from_micros(p90),
        p99: Duration::from_micros(p99),
    }
}

fn service() -> ServiceMetrics {
    let mut kdb = GroupCommitSnapshot {
        commits: 9,
        failures: 1,
        ops: 14,
        flush_ns: 4_500_000,
        acked_ops: 40,
        durable_ops: 38,
        ..GroupCommitSnapshot::default()
    };
    kdb.batch_hist[0] = 6;
    kdb.batch_hist[1] = 2;
    kdb.batch_hist[2] = 1;
    kdb.flush_hist[18] = 7;
    kdb.flush_hist[20] = 2;
    let mut stages = BTreeMap::new();
    stages.insert("optimize", stage(2, 9_000, 3_000, 6_000, 6_000));
    stages.insert("transform", stage(3, 1_200, 400, 500, 500));
    ServiceMetrics {
        submitted: 12,
        completed: 9,
        failed: 1,
        cancelled: 2,
        retried: 3,
        rejected: 4,
        persist_failures: 5,
        journal_faults: 6,
        degraded_transitions: 1,
        max_queue_depth: 7,
        signals_tables_built: 30,
        signals_zero_cell_corrections: 4,
        signals_shrinkage_iterations: 9,
        signals_emitted: 15,
        traces_persisted: 8,
        traces_forced: 2,
        events_dropped: 11,
        queue_wait: stage(12, 600, 40, 80, 90),
        session_latency: stage(12, 120_000, 9_000, 14_000, 20_000),
        stages,
        kdb,
    }
}

fn net() -> NetMetricsSnapshot {
    NetMetricsSnapshot {
        accepts: 3,
        rejects: 1,
        protocol_errors: 2,
        in_flight: 2,
        requests: vec![("submit", 5), ("status", 40), ("trace_query", 1)],
        request_latency_p50: Duration::from_micros(50),
        request_latency_p99: Duration::from_micros(900),
        request_count: 46,
        frames_in: 46,
        frames_out: 45,
        bytes_in: 9_000,
        bytes_out: 120_000,
    }
}

fn repl() -> ReplMetricsSnapshot {
    ReplMetricsSnapshot {
        frames_shipped: 10,
        bytes_shipped: 2_048,
        snapshots: 1,
        frames_applied: 8,
        rejects_gap: 1,
        rejects_corrupt: 2,
        source_durable: 30,
        follower_acked: 28,
        lag: 2,
    }
}

fn fleet() -> FleetMetricsSnapshot {
    FleetMetricsSnapshot {
        members: 2,
        routed_primary: 7,
        routed_follower: 3,
        busy_deferrals: 1,
        health_checks: 20,
        health_failures: 1,
        promotions: 1,
    }
}

fn stream() -> StreamMetricsSnapshot {
    StreamMetricsSnapshot {
        ingested: 500,
        reordered: 12,
        dropped: 3,
        windows_closed: 4,
        refits: 2,
        drift_score: 0.125,
    }
}

const SERVICE_PROM: &str = "\
# TYPE ada_jobs_total counter
ada_jobs_total{outcome=\"submitted\"} 12
ada_jobs_total{outcome=\"completed\"} 9
ada_jobs_total{outcome=\"failed\"} 1
ada_jobs_total{outcome=\"cancelled\"} 2
ada_jobs_total{outcome=\"retried\"} 3
ada_jobs_total{outcome=\"rejected\"} 4
# TYPE ada_persist_failures_total counter
ada_persist_failures_total 5
# TYPE ada_journal_faults_total counter
ada_journal_faults_total 6
# TYPE ada_signals_tables_built_total counter
ada_signals_tables_built_total 30
# TYPE ada_signals_zero_cell_corrections_total counter
ada_signals_zero_cell_corrections_total 4
# TYPE ada_signals_shrinkage_iterations_total counter
ada_signals_shrinkage_iterations_total 9
# TYPE ada_signals_emitted_total counter
ada_signals_emitted_total 15
# TYPE ada_service_degraded gauge
ada_service_degraded 1
# TYPE ada_kdb_journal_acked_ops_total counter
ada_kdb_journal_acked_ops_total 40
# TYPE ada_kdb_journal_durable_ops_total counter
ada_kdb_journal_durable_ops_total 38
# TYPE ada_kdb_group_commits_total counter
ada_kdb_group_commits_total 9
# TYPE ada_kdb_group_commit_failures_total counter
ada_kdb_group_commit_failures_total 1
# TYPE ada_kdb_group_commit_batch_size summary
ada_kdb_group_commit_batch_size{quantile=\"0.5\"} 1.4
ada_kdb_group_commit_batch_size{quantile=\"0.9\"} 5.7
ada_kdb_group_commit_batch_size{quantile=\"0.99\"} 5.7
ada_kdb_group_commit_batch_size_sum 14
ada_kdb_group_commit_batch_size_count 9
# TYPE ada_kdb_group_commit_flush_ns summary
ada_kdb_group_commit_flush_ns{quantile=\"0.5\"} 370727.6
ada_kdb_group_commit_flush_ns{quantile=\"0.9\"} 1482910.4
ada_kdb_group_commit_flush_ns{quantile=\"0.99\"} 1482910.4
ada_kdb_group_commit_flush_ns_sum 4500000
ada_kdb_group_commit_flush_ns_count 9
# TYPE ada_queue_depth_max gauge
ada_queue_depth_max 7
# TYPE ada_queue_wait_ns summary
ada_queue_wait_ns{quantile=\"0.5\"} 40000
ada_queue_wait_ns{quantile=\"0.9\"} 80000
ada_queue_wait_ns{quantile=\"0.99\"} 90000
ada_queue_wait_ns_sum 600000
ada_queue_wait_ns_count 12
# TYPE ada_session_latency_ns summary
ada_session_latency_ns{quantile=\"0.5\"} 9000000
ada_session_latency_ns{quantile=\"0.9\"} 14000000
ada_session_latency_ns{quantile=\"0.99\"} 20000000
ada_session_latency_ns_sum 120000000
ada_session_latency_ns_count 12
# TYPE ada_stage_latency_ns summary
ada_stage_latency_ns{stage=\"optimize\",quantile=\"0.5\"} 3000000
ada_stage_latency_ns{stage=\"optimize\",quantile=\"0.9\"} 6000000
ada_stage_latency_ns{stage=\"optimize\",quantile=\"0.99\"} 6000000
ada_stage_latency_ns_sum{stage=\"optimize\"} 9000000
ada_stage_latency_ns_count{stage=\"optimize\"} 2
ada_stage_latency_ns{stage=\"transform\",quantile=\"0.5\"} 400000
ada_stage_latency_ns{stage=\"transform\",quantile=\"0.9\"} 500000
ada_stage_latency_ns{stage=\"transform\",quantile=\"0.99\"} 500000
ada_stage_latency_ns_sum{stage=\"transform\"} 1200000
ada_stage_latency_ns_count{stage=\"transform\"} 3
# TYPE ada_obs_dropped_spans_total counter
ada_obs_dropped_spans_total 11
# TYPE ada_obs_traces_persisted_total counter
ada_obs_traces_persisted_total 8
# TYPE ada_obs_traces_forced_total counter
ada_obs_traces_forced_total 2
";

const SERVICE_DOC: &str = "\
O9:4:jobsO6:9:cancelledI2;9:completedI9;6:failedI1;8:rejectedI4;7:retriedI3;\
9:submittedI12;3:kdbO5:9:acked_opsI40;11:durable_opsI38;21:group_commit_failuresI1;\
23:group_commit_mean_batchF1.5555555555555556;13:group_commitsI9;15:max_queue_depthI7;\
10:queue_waitO6:7:mean_nsI50000;6:p50_nsI40000;6:p90_nsI80000;6:p99_nsI90000;4:runsI12;\
8:total_nsI600000;11:reliabilityO4:8:degradedT20:degraded_transitionsI1;\
14:journal_faultsI6;16:persist_failuresI5;15:session_latencyO6:7:mean_nsI10000000;\
6:p50_nsI9000000;6:p90_nsI14000000;6:p99_nsI20000000;4:runsI12;8:total_nsI120000000;\
7:signalsO4:7:emittedI15;20:shrinkage_iterationsI9;12:tables_builtI30;\
21:zero_cell_correctionsI4;6:stagesO2:8:optimizeO6:7:mean_nsI4500000;6:p50_nsI3000000;\
6:p90_nsI6000000;6:p99_nsI6000000;4:runsI2;8:total_nsI9000000;\
9:transformO6:7:mean_nsI400000;6:p50_nsI400000;6:p90_nsI500000;6:p99_nsI500000;4:runsI3;\
8:total_nsI1200000;7:tracingO3:13:dropped_spansI11;6:forcedI2;9:persistedI8;";

const NET_PROM: &str = "\
# TYPE ada_net_accepts_total counter
ada_net_accepts_total 3
# TYPE ada_net_rejects_total counter
ada_net_rejects_total 1
# TYPE ada_net_protocol_errors_total counter
ada_net_protocol_errors_total 2
# TYPE ada_net_connections_in_flight gauge
ada_net_connections_in_flight 2
# TYPE ada_net_requests_total counter
ada_net_requests_total{kind=\"submit\"} 5
ada_net_requests_total{kind=\"status\"} 40
ada_net_requests_total{kind=\"trace_query\"} 1
# TYPE ada_net_request_latency_ns summary
ada_net_request_latency_ns{quantile=\"0.5\"} 50000
ada_net_request_latency_ns{quantile=\"0.99\"} 900000
ada_net_request_latency_ns_count 46
# TYPE ada_net_bytes_total counter
ada_net_bytes_total{dir=\"in\"} 9000
ada_net_bytes_total{dir=\"out\"} 120000
";

const NET_DOC: &str = "\
O9:7:acceptsI3;8:bytes_inI9000;9:bytes_outI120000;9:frames_inI46;10:frames_outI45;\
9:in_flightI2;15:protocol_errorsI2;7:rejectsI1;8:requestsO3:6:statusI40;6:submitI5;\
11:trace_queryI1;";

const REPL_PROM: &str = "\
# TYPE ada_repl_frames_shipped_total counter
ada_repl_frames_shipped_total 10
# TYPE ada_repl_bytes_shipped_total counter
ada_repl_bytes_shipped_total 2048
# TYPE ada_repl_snapshots_total counter
ada_repl_snapshots_total 1
# TYPE ada_repl_frames_applied_total counter
ada_repl_frames_applied_total 8
# TYPE ada_repl_rejects_total counter
ada_repl_rejects_total{reason=\"gap\"} 1
ada_repl_rejects_total{reason=\"corrupt\"} 2
# TYPE ada_repl_source_durable_ops gauge
ada_repl_source_durable_ops 30
# TYPE ada_repl_follower_acked_ops gauge
ada_repl_follower_acked_ops 28
# TYPE ada_repl_lag_ops gauge
ada_repl_lag_ops 2
";

const FLEET_PROM: &str = "\
# TYPE ada_fleet_members gauge
ada_fleet_members 2
# TYPE ada_fleet_routed_total counter
ada_fleet_routed_total{role=\"primary\"} 7
ada_fleet_routed_total{role=\"follower\"} 3
# TYPE ada_fleet_busy_deferrals_total counter
ada_fleet_busy_deferrals_total 1
# TYPE ada_fleet_health_checks_total counter
ada_fleet_health_checks_total 20
# TYPE ada_fleet_health_failures_total counter
ada_fleet_health_failures_total 1
# TYPE ada_fleet_promotions_total counter
ada_fleet_promotions_total 1
";

const STREAM_PROM: &str = "\
# TYPE ada_stream_ingested_total counter
ada_stream_ingested_total 500
# TYPE ada_stream_reordered_total counter
ada_stream_reordered_total 12
# TYPE ada_stream_dropped_total counter
ada_stream_dropped_total 3
# TYPE ada_stream_windows_closed_total counter
ada_stream_windows_closed_total 4
# TYPE ada_stream_refits_total counter
ada_stream_refits_total 2
# TYPE ada_stream_drift_score gauge
ada_stream_drift_score 0.125
";

#[test]
fn expositions_match_the_pinned_bytes() {
    assert_eq!(service().to_prometheus(), SERVICE_PROM);
    assert_eq!(net().to_prometheus(), NET_PROM);
    assert_eq!(repl().to_prometheus(), REPL_PROM);
    assert_eq!(fleet().to_prometheus(), FLEET_PROM);
    assert_eq!(stream().to_prometheus(), STREAM_PROM);
}

#[test]
fn documents_match_the_pinned_bytes() {
    assert_eq!(service().to_document().encode(), SERVICE_DOC);
    assert_eq!(net().to_document().encode(), NET_DOC);
}

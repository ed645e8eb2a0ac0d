//! The encoded `sessions` record of one fixed recorder script, pinned
//! byte for byte. Only wall-clock readings are masked: every span's
//! `start_ns` and the root span's `dur_ns` (the extent of its deepest
//! child). Span order, parent indexes, stage histograms, counters,
//! queue wait, retries, trace fields and attributes are all exact.

use std::time::Duration;

use ada_core::control::{PipelineObserver, PipelineStage};
use ada_kdb::{Document, Value};
use ada_obs::{FlightRecorder, TraceContext};

fn micros(us: u64) -> Duration {
    Duration::from_micros(us)
}

/// One session: a queue wait, every stage (partial-mining rungs and
/// optimizer sweep points, whose counters come from two threads), then
/// a retry that runs the first stage again.
fn drive(rec: &FlightRecorder, session: &str) {
    rec.queue_wait(session, micros(150));
    for (i, stage) in PipelineStage::ALL.into_iter().enumerate() {
        rec.on_stage_start(session, stage);
        match stage {
            PipelineStage::PartialMining => {
                for (j, rung) in ["rung:0.25", "rung:0.5", "rung:1"].into_iter().enumerate() {
                    rec.on_span_start(session, stage, rung);
                    rec.on_counters(session, stage, &[("rows_scanned", 100 << j)]);
                    rec.on_span_end(session, stage, rung, micros(20 + 5 * j as u64));
                }
            }
            PipelineStage::Optimize => std::thread::scope(|scope| {
                for k in [4u64, 8] {
                    scope.spawn(move || {
                        let name = format!("sweep:k={k}");
                        rec.on_span_start(session, stage, &name);
                        rec.on_counters(
                            session,
                            stage,
                            &[("iterations", k / 2), ("distance_evals", 30 * k)],
                        );
                        rec.on_span_end(session, stage, &name, micros(9 * k));
                    });
                }
            }),
            _ => {}
        }
        rec.on_stage_end(session, stage, micros(40 + 10 * i as u64));
    }
    rec.retry(session);
    rec.on_stage_start(session, PipelineStage::Characterize);
    rec.on_stage_end(session, PipelineStage::Characterize, micros(33));
}

/// The canonical encoding of `doc` with its timestamps masked.
fn masked(mut doc: Document) -> String {
    let Some(Value::Array(spans)) = doc.remove("spans") else {
        panic!("no spans array");
    };
    let spans: Vec<Value> = spans
        .into_iter()
        .enumerate()
        .map(|(i, span)| {
            let mut span = span.as_doc().expect("span is a document").clone();
            span.set("start_ns", 0i64);
            if i == 0 {
                span.set("dur_ns", 0i64);
            }
            Value::Doc(span)
        })
        .collect();
    doc.set("spans", Value::Array(spans));
    doc.encode()
}

const PLAIN: &str = concat!(
    "O9:8:countersO3:14:distance_evalsI360;10:iterationsI6;12:rows_scannedI700;14:events_droppedI0;7:outcomeS2:ok13:queue_wait_nsI150000;7:retriesI1;7:sessionS5:plain5:spansA16:",
    "O4:6:dur_nsI0;4:nameS7:session6:parentI-1;8:start_nsI0;",
    "O4:6:dur_nsI40000;4:nameS12:characterize6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI33000;4:nameS12:characterize6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI90000;4:nameS19:goal-identification6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI80000;4:nameS20:knowledge-extraction6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI100000;4:nameS10:navigation6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI70000;4:nameS8:optimize6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI36000;4:nameS9:sweep:k=46:parentI6;8:start_nsI0;",
    "O4:6:dur_nsI72000;4:nameS9:sweep:k=86:parentI6;8:start_nsI0;",
    "O4:6:dur_nsI60000;4:nameS14:partial-mining6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI20000;4:nameS9:rung:0.256:parentI9;8:start_nsI0;",
    "O4:6:dur_nsI25000;4:nameS8:rung:0.56:parentI9;8:start_nsI0;",
    "O4:6:dur_nsI30000;4:nameS6:rung:16:parentI9;8:start_nsI0;",
    "O4:6:dur_nsI110000;4:nameS13:signal-mining6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI120000;4:nameS13:stream-mining6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI50000;4:nameS9:transform6:parentI0;8:start_nsI0;",
    "6:stagesA9:O6:5:countI2;6:p50_nsI49152;6:p90_nsI49152;6:p99_nsI49152;5:stageS12:characterize6:sum_nsI73000;O6:5:countI1;6:p50_nsI49152;6:p90_nsI49152;6:p99_nsI49152;5:stageS9:transform6:sum_nsI50000;O6:5:countI4;6:p50_nsI24576;6:p90_nsI49152;6:p99_nsI49152;5:stageS14:partial-mining6:sum_nsI135000;O6:5:countI3;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS8:optimize6:sum_nsI178000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS20:knowledge-extraction6:sum_nsI80000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS19:goal-identification6:sum_nsI90000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS10:navigation6:sum_nsI100000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS13:signal-mining6:sum_nsI110000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS13:stream-mining6:sum_nsI120000;",
    "5:stateS9:completed",
);

const SAMPLED: &str = concat!(
    "O10:8:countersO3:14:distance_evalsI360;10:iterationsI6;12:rows_scannedI700;14:events_droppedI0;6:forcedB13:queue_wait_nsI150000;7:retriesI1;7:sessionS7:sampled5:spansA18:",
    "O4:6:dur_nsI0;4:nameS7:session6:parentI-1;8:start_nsI0;",
    "O4:6:dur_nsI40000;4:nameS12:characterize6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI33000;4:nameS12:characterize6:parentI0;8:start_nsI0;",
    "O5:5:attrsO1:12:wire_span_idI42;6:dur_nsI0;4:nameS13:client_submit6:parentI0;8:start_nsI0;",
    "O5:5:attrsO4:5:batchI4;8:fsync_nsI60000;6:leaderI1;7:wait_nsI20000;6:dur_nsI80000;4:nameS11:fsync_round6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI90000;4:nameS19:goal-identification6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI80000;4:nameS20:knowledge-extraction6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI100000;4:nameS10:navigation6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI70000;4:nameS8:optimize6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI36000;4:nameS9:sweep:k=46:parentI8;8:start_nsI0;",
    "O4:6:dur_nsI72000;4:nameS9:sweep:k=86:parentI8;8:start_nsI0;",
    "O4:6:dur_nsI60000;4:nameS14:partial-mining6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI20000;4:nameS9:rung:0.256:parentI11;8:start_nsI0;",
    "O4:6:dur_nsI25000;4:nameS8:rung:0.56:parentI11;8:start_nsI0;",
    "O4:6:dur_nsI30000;4:nameS6:rung:16:parentI11;8:start_nsI0;",
    "O4:6:dur_nsI110000;4:nameS13:signal-mining6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI120000;4:nameS13:stream-mining6:parentI0;8:start_nsI0;",
    "O4:6:dur_nsI50000;4:nameS9:transform6:parentI0;8:start_nsI0;",
    "6:stagesA9:O6:5:countI2;6:p50_nsI49152;6:p90_nsI49152;6:p99_nsI49152;5:stageS12:characterize6:sum_nsI73000;O6:5:countI1;6:p50_nsI49152;6:p90_nsI49152;6:p99_nsI49152;5:stageS9:transform6:sum_nsI50000;O6:5:countI4;6:p50_nsI24576;6:p90_nsI49152;6:p99_nsI49152;5:stageS14:partial-mining6:sum_nsI135000;O6:5:countI3;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS8:optimize6:sum_nsI178000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS20:knowledge-extraction6:sum_nsI80000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS19:goal-identification6:sum_nsI90000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS10:navigation6:sum_nsI100000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS13:signal-mining6:sum_nsI110000;O6:5:countI1;6:p50_nsI98304;6:p90_nsI98304;6:p99_nsI98304;5:stageS13:stream-mining6:sum_nsI120000;",
    "5:stateS6:failed8:trace_idS32:76cc06391021417f4f9a1c6b7582d636",
);

#[test]
fn plain_and_sampled_session_records_are_byte_stable() {
    let rec = FlightRecorder::new();
    drive(&rec, "plain");
    let plain = masked(rec.finalize("plain", "completed", "ok"));

    let ctx = TraceContext {
        span_id: 42,
        ..TraceContext::forced(7, "sampled")
    };
    rec.set_trace("sampled", ctx, false);
    drive(&rec, "sampled");
    rec.trace_annotation(
        "sampled",
        "fsync_round",
        micros(80),
        &[
            ("batch", 4),
            ("leader", 1),
            ("wait_ns", 20_000),
            ("fsync_ns", 60_000),
        ],
    );
    let sampled = masked(rec.finalize("sampled", "failed", ""));

    assert_eq!(plain, PLAIN);
    assert_eq!(sampled, SAMPLED);
}

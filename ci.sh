#!/usr/bin/env bash
# Local CI gate — run before pushing. Mirrors the tier-1 verify plus the
# full workspace suite and style gates.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release) =="
cargo build --release

echo "== tests (workspace) =="
cargo test -q --workspace
# The tracked number of ROADMAP aim 2, as a table: non-test lines per
# crate against the ceilings in tests/line_budget.rs.
cargo test -q --test line_budget -- --nocapture

echo "== tests (ada-mining, release) =="
# The tree's column index is all offset arithmetic, which debug builds
# (overflow checks on) and release builds (wrapping) check differently:
# the tree-equivalence proptests must hold in both.
cargo test -q --release -p ada-mining

echo "== tests (ada-core, ada-metrics, release) =="
# The pinned-digit reports (the optimizer's quick report, the partial
# miners' default reports, the transform probe's default selection) and
# the silhouette oracle guard exactness: they must hold under release
# floating-point codegen too, the profile the ledger and services run.
cargo test -q --release -p ada-core -p ada-metrics

echo "== tests (ada-stream, release) =="
# The golden stream fingerprints and the zero-skipping hash proptests
# must hold under release floating-point codegen too, where the window
# closes' fits and hashes actually run.
cargo test -q --release -p ada-stream

echo "== kmeans kernel perf gate (quick) =="
# Fails on any kernel/pruning/threading/row-storage mismatch, when the
# pruned kernel regresses past 2x the seed reference on the reduced
# cohort, or when sparse rows are slower there than dense rows.
cargo run -q -p ada-bench --release --bin kmeans_perf -- --quick

echo "== observability smoke gate =="
# End-to-end session with tracing on: observer-on vs observer-off
# reports must match, the exported session record must validate against
# ada-kdb::schema, and kernel tracing overhead must stay within 5%.
# Then the trace gate: one remote sampled session must persist a trace
# linking queue-wait, every pipeline stage, and >= 1 group-commit fsync
# round under valid parent indexes, and full-session sampling overhead
# at rate 1 must also stay within 5% of rate 0 (both overheads: the
# median of 15 interleaved A/B pair ratios).
cargo run -q -p ada-bench --release --bin obs_smoke

echo "== safety-signal smoke gate (quick) =="
# Ranked safety signals on the bench cohort: non-empty descending
# ranking with bracketing CIs, serial == 8-way parallel == observed,
# the pinned ada_signals_* exposition families live after a service
# session, and tracing overhead within 5% (the median of 15 interleaved
# A/B pair ratios).
cargo run -q -p ada-bench --release --bin signals_smoke -- --quick

echo "== network front-end smoke gate (quick) =="
# Loopback fleet over the ADAN1 wire: blocking + multiplexed async
# clients, reads answered mid-fleet, then a drain audit (zero protocol
# errors, accept/request counters matching the fleet). Then the
# read-scaling phase: two nodes at 40 and at 400 completed sessions,
# each beside a live writer, read in alternating rounds — a read may
# grow at most 2x as fast as
# its answer: 2x for Status/Results/Health/StreamQuery, 2x the growth of
# their bytes for the two answers that list sessions (PastSessions,
# MetricsSnapshot).
cargo run -q -p ada-bench --release --bin net_smoke -- --quick

echo "== streaming ingestion smoke gate (quick) =="
# ada-stream end to end: an out-of-order feed must close windows and
# force-refit to a model byte-identical to a cold fit over the same
# cohort; a mid-feed crash resumed from durable stream_windows
# checkpoints must land on identical fingerprints; steady-state
# streaming overhead vs the batch VsmBuilder path must stay within
# budget (the median of 15 interleaved A/B pair ratios); and a
# service-fed stream must surface all six pinned ada_stream_*
# exposition families with live counts.
cargo run -q -p ada-bench --release --bin stream_smoke -- --quick

echo "== crash torture gate (quick, incl. multi-producer) =="
# Byte-level journal cuts, injected storage faults at every schedule
# point, single-bit corruption, and N interleaved writers racing the
# group committer under every fault kind: reopened state must always
# equal the state after some prefix of acknowledged ops (per collection
# in the multi-producer phase), fsynced ops must survive, and corruption
# must never decode silently. Prints a replayable seed on failure.
cargo run -q -p ada-bench --release --bin kdb_torture -- --quick

echo "== fleet torture gate (quick) =="
# Replication under attack, transport-free: seeded link kills (message
# boundaries, mid-frame byte cuts, mid-group-commit), partitions healed
# by re-bootstrap + overlap replay, dropped/reordered frames, and
# single-bit flips. Every promoted follower must be exactly its acked
# prefix (FNV fingerprints); gaps and corruption must always be
# classified, counted once, and never applied. Replayable seed on
# failure.
cargo run -q -p ada-bench --release --bin fleet_torture -- --quick

echo "== fleet failover smoke gate (quick) =="
# Real TCP primary/standby pair (service + wire + journal shipping):
# routed writes complete, the standby acks the full journal with zero
# rejects and serves replicated reads, a failed health probe promotes
# it in place, post-failover sessions complete, and both nodes drain
# with zero protocol errors.
cargo run -q -p ada-bench --release --bin fleet_smoke -- --quick

echo "== kdb write scaling gate (quick) =="
# 1 vs 8 writers through the sharded group-committed write path under
# Always durability: every committed op must survive reopen and the
# 8-writer aggregate must beat the single-writer baseline (group commit
# batching fsyncs, not one fsync per op).
cargo run -q -p ada-bench --release --bin kdb_write_scaling -- --quick

if [ "$(nproc)" -ge 4 ]; then
  echo "== kdb write scaling bench (full, >=4 cores) =="
  # Regenerates BENCH_kdb_write.json; the 3x acceptance target at 8
  # writers is only meaningful with real parallelism.
  cargo run -q -p ada-bench --release --bin kdb_write_scaling
fi

if [ "$(nproc)" -ge 4 ]; then
  echo "== kmeans kernel perf gate (full, >=4 cores) =="
  # The full-mode thresholds assume real parallel speedup; only
  # meaningful (and only run) on multi-core boxes.
  cargo run -q -p ada-bench --release --bin kmeans_perf
else
  echo "== kmeans kernel perf gate (full) skipped: $(nproc) core(s) < 4 =="
fi

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt (check) =="
cargo fmt --check

echo "CI green."

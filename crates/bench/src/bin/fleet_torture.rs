//! Cluster kill/partition torture gate for journal replication (ISSUE 9).
//!
//! Replays a seeded patient workload on a primary [`SharedKdb`] whose
//! journal tap feeds a [`ReplSource`], then attacks the shipped message
//! stream against a transport-free [`ReplicaEngine`] — the same apply
//! path the TCP endpoints drive — checking the **acked-prefix
//! invariant** after every attack: *a promoted follower's state
//! fingerprint equals the fingerprint of exactly the first `applied`
//! ops of the primary's journal, and corrupted or gapped streams are
//! always classified and never applied*.
//!
//! 1. **Kills** — the link dies after any message (and, separately,
//!    mid-frame at seeded byte cuts, and mid-group-commit: the primary
//!    fsyncs after every 8th op, so frames ship before their `Durable`
//!    watermark). The orphaned follower is promoted on the spot and
//!    must be exactly its applied prefix.
//! 2. **Partitions** — the link dies, then heals with a re-bootstrap
//!    snapshot plus a full overlap replay of every already-shipped
//!    frame: the follower converges to the primary's fingerprint and a
//!    byte-identical journal, duplicates verified-then-skipped, never
//!    double-applied.
//! 3. **Drops** — a frame vanishes in flight: a sticky, classified
//!    `Gap` with the exact sequence numbers, counted once, recoverable
//!    only by re-bootstrap.
//! 4. **Bit flips** — single-bit corruption anywhere in a shipped
//!    frame either faults the stream (gap or corruption) or stalls it;
//!    the flipped op itself never applies.
//! 5. **Reorders** — adjacent frames swapped in flight read as a gap
//!    at the swap point.
//! 6. **Compactions** — the primary compacts mid-replication
//!    (collapsing history and restarting the frame sequence space),
//!    then keeps writing. A follower attached at any earlier point —
//!    including mid-frame — converges through the `Reset` →
//!    authoritative-snapshot path: its applied watermark legitimately
//!    regresses to the compacted count, then the post-compaction
//!    frames extend it to a byte-identical journal.
//!
//! Any failure prints the seed and attack coordinates, so
//! `fleet_torture --seed N` replays it exactly.
//!
//! Run: `cargo run -p ada-bench --release --bin fleet_torture [-- --quick]`

use std::collections::HashMap;
use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use ada_bench::{patient_doc, Rng};
use ada_fleet::{ReplError, ReplMsg, ReplSource, ReplicaEngine, StreamFault};
use ada_kdb::journal::{replay_bytes, DurabilityPolicy, JournalTap, Op, RecoveryMode};
use ada_kdb::{Document, MemStorage, SharedKdb, StoreOptions};
use ada_obs::ReplMetrics;

const DEFAULT_SEED: u64 = 0xF1EE7;

fn fail(seed: u64, msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    eprintln!("replay with: cargo run -p ada-bench --release --bin fleet_torture -- --seed {seed}");
    exit(1);
}

fn mem_kdb(name: &str, durability: DurabilityPolicy) -> SharedKdb {
    SharedKdb::open_with(
        Path::new(name),
        StoreOptions::with_storage(Arc::new(MemStorage::new())).durability(durability),
    )
    .unwrap_or_else(|e| {
        eprintln!("FAIL: in-memory store open failed: {e}");
        exit(1)
    })
}

/// Fsyncs the primary once 8 journal ops await it, as group commit
/// would: the frames ship ahead of their covering `Durable` watermark.
fn sync_every_8th(seed: u64, db: &SharedKdb) {
    if db.journal_acked_ops() - db.journal_durable_ops() >= 8 {
        db.sync()
            .unwrap_or_else(|e| fail(seed, &format!("primary fsync failed: {e}")));
    }
}

/// Runs the seeded workload against the primary: patient inserts
/// interleaved with updates, deletes, and knowledge writes.
fn run_workload(seed: u64, patients: usize, db: &SharedKdb) {
    let mut rng = Rng(seed);
    let step = |r: Result<(), ada_kdb::KdbError>| {
        r.unwrap_or_else(|e| fail(seed, &format!("primary workload step failed: {e}")));
        sync_every_8th(seed, db);
    };
    step(db.create_collection("patients"));
    step(db.create_index("patients", "diagnosis"));
    step(db.create_collection("knowledge"));
    let mut live: Vec<u64> = Vec::new();
    for i in 0..patients {
        let id = db
            .insert("patients", patient_doc(&mut rng, i))
            .unwrap_or_else(|e| fail(seed, &format!("primary insert failed: {e}")));
        sync_every_8th(seed, db);
        live.push(id);
        match rng.below(10) {
            0..=1 => {
                let id = live[rng.below(live.len() as u64) as usize];
                step(db.update(
                    "patients",
                    id,
                    patient_doc(&mut rng, i).with("revised", true),
                ));
            }
            2 if live.len() > 1 => {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                step(db.delete("patients", id));
            }
            3 => {
                let doc = Document::new()
                    .with("kind", "cluster")
                    .with("score", (rng.below(1000) as f64) / 1000.0);
                step(db.insert("knowledge", doc).map(|_| ()));
            }
            _ => {}
        }
    }
}

/// Memoized fingerprint of the state after the first `k` golden ops,
/// computed through the replica's own apply machinery.
fn prefix_fp(ops: &[Op], k: usize, memo: &mut HashMap<usize, u64>, seed: u64) -> u64 {
    if let Some(&fp) = memo.get(&k) {
        return fp;
    }
    let db = mem_kdb("prefix", DurabilityPolicy::default());
    for op in &ops[..k] {
        db.apply_replicated(op.clone())
            .unwrap_or_else(|e| fail(seed, &format!("golden prefix op failed to apply: {e}")));
    }
    let fp = db.read().fingerprint();
    memo.insert(k, fp);
    fp
}

fn fresh_engine(metrics: &Arc<ReplMetrics>) -> ReplicaEngine {
    ReplicaEngine::new(
        mem_kdb("replica", DurabilityPolicy::default()),
        Arc::clone(metrics),
    )
}

/// Feeds `msgs[..upto]` whole, then (for a mid-frame kill) the first
/// `cut` bytes of frame message `upto`.
fn feed_prefix(seed: u64, engine: &mut ReplicaEngine, msgs: &[ReplMsg], upto: usize, cut: usize) {
    for msg in &msgs[..upto] {
        engine
            .consume(msg)
            .unwrap_or_else(|e| fail(seed, &format!("clean prefix must consume: {e}")));
    }
    if cut > 0 {
        let ReplMsg::Frame { bytes } = &msgs[upto] else {
            fail(seed, "internal: mid-frame cut aimed at a non-frame message")
        };
        engine
            .feed(&bytes[..cut])
            .unwrap_or_else(|e| fail(seed, &format!("torn frame prefix must buffer: {e}")));
    }
}

/// Kill attack: the link dies after `upto` messages (plus an optional
/// mid-frame cut). Promote the orphan and check the acked prefix.
#[allow(clippy::too_many_arguments)]
fn check_kill(
    seed: u64,
    msgs: &[ReplMsg],
    frames_before: &[usize],
    ops: &[Op],
    memo: &mut HashMap<usize, u64>,
    upto: usize,
    cut: usize,
) {
    let coord = if cut > 0 {
        format!("kill after {upto} messages + {cut} bytes mid-frame")
    } else {
        format!("kill after {upto} messages")
    };
    let metrics = Arc::new(ReplMetrics::new());
    let mut engine = fresh_engine(&metrics);
    feed_prefix(seed, &mut engine, msgs, upto, cut);
    let expect = frames_before[upto] as u64;
    if engine.source_durable() > expect {
        fail(
            seed,
            &format!(
                "{coord}: primary advertised {} durable ops but only shipped {expect}",
                engine.source_durable()
            ),
        );
    }
    // Promotion: fsync what applied, then the store turns writable.
    engine
        .sync()
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: promotion fsync failed: {e}")));
    if engine.applied_ops() != expect {
        fail(
            seed,
            &format!(
                "{coord}: {} ops applied, expected the {expect}-op shipped prefix",
                engine.applied_ops()
            ),
        );
    }
    if engine.acked_ops() != expect {
        fail(
            seed,
            &format!(
                "{coord}: acked {} of {expect} applied ops",
                engine.acked_ops()
            ),
        );
    }
    if engine.fingerprint() != prefix_fp(ops, expect as usize, memo, seed) {
        fail(
            seed,
            &format!("{coord}: promoted state is not the {expect}-op acked prefix"),
        );
    }
    // And the survivor accepts writes (once the schema op landed).
    if expect >= 1 {
        engine
            .kdb()
            .insert("patients", Document::new().with("patient", -1i64))
            .unwrap_or_else(|e| {
                fail(
                    seed,
                    &format!("{coord}: promoted store refused a write: {e}"),
                )
            });
    }
}

/// Partition-and-heal attack: the link dies after `upto` messages (plus
/// an optional mid-frame cut), then heals with a re-bootstrap snapshot
/// and a full overlap replay of every shipped message.
#[allow(clippy::too_many_arguments)]
fn check_heal(
    seed: u64,
    msgs: &[ReplMsg],
    image: &[u8],
    golden_fp: u64,
    total: usize,
    upto: usize,
    cut: usize,
) {
    let coord = format!("heal after {upto} messages (cut {cut})");
    let metrics = Arc::new(ReplMetrics::new());
    let mut engine = fresh_engine(&metrics);
    feed_prefix(seed, &mut engine, msgs, upto, cut);
    engine
        .consume(&ReplMsg::Snapshot {
            epoch: 1,
            image: image.to_vec(),
        })
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: re-bootstrap rejected: {e}")));
    engine
        .consume(&ReplMsg::Durable { seq: total as u64 })
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: durable watermark rejected: {e}")));
    // The tap overlaps the snapshot: every already-covered frame must
    // come back as a verified duplicate, skipped, never double-applied.
    for msg in msgs {
        engine
            .consume(msg)
            .unwrap_or_else(|e| fail(seed, &format!("{coord}: overlap replay faulted: {e}")));
    }
    engine
        .sync()
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: follower fsync failed: {e}")));
    if engine.applied_ops() != total as u64 {
        fail(
            seed,
            &format!(
                "{coord}: {} ops applied after heal, expected {total} (duplicates must skip)",
                engine.applied_ops()
            ),
        );
    }
    if engine.fingerprint() != golden_fp {
        fail(
            seed,
            &format!("{coord}: healed follower diverged from the primary"),
        );
    }
    let replica_image = engine
        .kdb()
        .journal_image()
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: replica journal unreadable: {e}")));
    if replica_image != image {
        fail(
            seed,
            &format!("{coord}: healed journal is not byte-identical to the primary's"),
        );
    }
    if engine.acked_ops() != total as u64 {
        fail(
            seed,
            &format!(
                "{coord}: healed follower acked {} of {total}",
                engine.acked_ops()
            ),
        );
    }
    let snap = metrics.snapshot();
    if snap.rejects_gap != 0 || snap.rejects_corrupt != 0 {
        fail(seed, &format!("{coord}: clean heal counted stream rejects"));
    }
}

/// Feeds every message, skipping index `skip` and flipping one bit of
/// frame message `flip` (when given). Returns the first stream fault.
fn feed_attacked(
    seed: u64,
    engine: &mut ReplicaEngine,
    msgs: &[ReplMsg],
    skip: Option<usize>,
    flip: Option<(usize, usize, u8)>,
    swap: Option<(usize, usize)>,
) -> Option<StreamFault> {
    for (i, msg) in msgs.iter().enumerate() {
        if skip == Some(i) {
            continue;
        }
        let patched;
        let msg = match (flip, swap) {
            (Some((f, byte, bit)), _) if f == i => {
                let ReplMsg::Frame { bytes } = msg else {
                    fail(seed, "internal: bit flip aimed at a non-frame message")
                };
                let mut bad = bytes.clone();
                let target = byte % bad.len();
                bad[target] ^= 1 << bit;
                patched = ReplMsg::Frame { bytes: bad };
                &patched
            }
            (_, Some((a, b))) if i == a => &msgs[b],
            (_, Some((a, b))) if i == b => &msgs[a],
            _ => msg,
        };
        match engine.consume(msg) {
            Ok(_) => {}
            Err(ReplError::Stream(fault)) => return Some(fault),
            Err(e) => fail(
                seed,
                &format!("attacked stream surfaced a non-stream error: {e}"),
            ),
        }
    }
    None
}

/// Drop attack: frame message `drop_i` vanishes. Everything before it
/// applies; the gap is classified with exact coordinates, sticky, and
/// counted once; a re-bootstrap snapshot recovers.
#[allow(clippy::too_many_arguments)]
fn check_drop(
    seed: u64,
    msgs: &[ReplMsg],
    frames_before: &[usize],
    ops: &[Op],
    memo: &mut HashMap<usize, u64>,
    image: &[u8],
    golden_fp: u64,
    drop_i: usize,
) {
    let seq = frames_before[drop_i] as u64;
    let coord = format!("drop of frame {seq} (message {drop_i})");
    let metrics = Arc::new(ReplMetrics::new());
    let mut engine = fresh_engine(&metrics);
    match feed_attacked(seed, &mut engine, msgs, Some(drop_i), None, None) {
        Some(StreamFault::Gap {
            stored, expected, ..
        }) if stored == seq + 1 && expected == seq => {}
        other => fail(
            seed,
            &format!(
                "{coord}: expected Gap {{ stored {}, expected {seq} }}, got {other:?}",
                seq + 1
            ),
        ),
    }
    if engine.applied_ops() != seq {
        fail(
            seed,
            &format!("{coord}: {} ops applied past the gap", engine.applied_ops()),
        );
    }
    if engine.fingerprint() != prefix_fp(ops, seq as usize, memo, seed) {
        fail(
            seed,
            &format!("{coord}: gapped follower is not the {seq}-op prefix"),
        );
    }
    // Sticky: even the dropped frame itself cannot unfault the stream,
    // and the reject is counted exactly once.
    match engine.consume(&msgs[drop_i]) {
        Err(ReplError::Stream(StreamFault::Gap { .. })) => {}
        other => fail(seed, &format!("{coord}: gap was not sticky, got {other:?}")),
    }
    let snap = metrics.snapshot();
    if snap.rejects_gap != 1 || snap.rejects_corrupt != 0 {
        fail(
            seed,
            &format!(
                "{coord}: counted {} gap / {} corrupt rejects, expected exactly one gap",
                snap.rejects_gap, snap.rejects_corrupt
            ),
        );
    }
    // The only way forward is a re-bootstrap — and it converges.
    engine
        .consume(&ReplMsg::Snapshot {
            epoch: 1,
            image: image.to_vec(),
        })
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: recovery bootstrap rejected: {e}")));
    if engine.fingerprint() != golden_fp {
        fail(seed, &format!("{coord}: recovery bootstrap diverged"));
    }
}

/// Bit-flip attack: one bit of frame message `flip_i` flips in flight.
/// The stream faults or stalls; the flipped op never applies.
fn check_flip(
    seed: u64,
    msgs: &[ReplMsg],
    frames_before: &[usize],
    ops: &[Op],
    memo: &mut HashMap<usize, u64>,
    flip: (usize, usize, u8),
) {
    let (flip_i, byte, bit) = flip;
    let seq = frames_before[flip_i] as u64;
    let coord = format!("bit flip in frame {seq}, byte {byte} bit {bit}");
    let metrics = Arc::new(ReplMetrics::new());
    let mut engine = fresh_engine(&metrics);
    let fault = feed_attacked(seed, &mut engine, msgs, None, Some(flip), None);
    // Almost every flip faults or stalls the stream at the attacked
    // frame. The one neutral position is a CRC hex letter's case bit
    // (the checksum text parses case-insensitively), where the
    // *identical* op decodes and the stream continues to the end. In
    // every case the replica holds an exact clean prefix — a wrong op
    // never applies.
    let applied = engine.applied_ops();
    if applied != seq && !(applied == ops.len() as u64 && fault.is_none()) {
        fail(
            seed,
            &format!(
                "{coord}: {applied} ops applied, expected the {seq}-op prefix ({})",
                fault.map_or("stalled".into(), |f| f.to_string()),
            ),
        );
    }
    if engine.fingerprint() != prefix_fp(ops, applied as usize, memo, seed) {
        fail(
            seed,
            &format!("{coord}: flipped stream corrupted the replica state"),
        );
    }
    let snap = metrics.snapshot();
    if fault.is_some() && snap.rejects_gap + snap.rejects_corrupt != 1 {
        fail(
            seed,
            &format!(
                "{coord}: fault counted {} gap + {} corrupt rejects, expected one",
                snap.rejects_gap, snap.rejects_corrupt
            ),
        );
    }
}

/// Reorder attack: adjacent frame messages swap in flight — a gap at
/// the swap point, nothing out of order ever applies.
fn check_reorder(
    seed: u64,
    msgs: &[ReplMsg],
    frames_before: &[usize],
    ops: &[Op],
    memo: &mut HashMap<usize, u64>,
    pair: (usize, usize),
) {
    let seq = frames_before[pair.0] as u64;
    let coord = format!("reorder of frames {seq} and {}", seq + 1);
    let metrics = Arc::new(ReplMetrics::new());
    let mut engine = fresh_engine(&metrics);
    match feed_attacked(seed, &mut engine, msgs, None, None, Some(pair)) {
        Some(StreamFault::Gap {
            stored, expected, ..
        }) if stored == seq + 1 && expected == seq => {}
        other => fail(
            seed,
            &format!("{coord}: expected a gap at the swap, got {other:?}"),
        ),
    }
    if engine.applied_ops() != seq {
        fail(
            seed,
            &format!(
                "{coord}: {} ops applied past the swap",
                engine.applied_ops()
            ),
        );
    }
    if engine.fingerprint() != prefix_fp(ops, seq as usize, memo, seed) {
        fail(
            seed,
            &format!("{coord}: reordered stream corrupted the replica state"),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .map_or(DEFAULT_SEED, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad --seed {s}");
                exit(2)
            })
        });
    // Paper scale (6,380 patients) by default; a small stream in quick
    // mode so every message boundary and frame byte is attackable in CI.
    let patients = if quick { 24 } else { 6_380 };
    let t0 = Instant::now();

    // The primary syncs every 8th op (`sync_every_8th`) so frames ship
    // before their covering `Durable` watermark — kills between the two
    // are exactly the mid-group-commit crashes the gate is for.
    let primary = mem_kdb("primary", DurabilityPolicy::SnapshotOnly);
    let source = ReplSource::new(Arc::new(ReplMetrics::new()));
    primary.set_journal_tap(Some(Arc::clone(&source) as Arc<dyn JournalTap>));
    run_workload(seed, patients, &primary);
    primary
        .sync()
        .unwrap_or_else(|e| fail(seed, &format!("primary fsync failed: {e}")));
    let msgs = source.drain();
    let image = primary
        .journal_image()
        .unwrap_or_else(|e| fail(seed, &format!("primary journal unreadable: {e}")));
    let golden_fp = primary.read().fingerprint();
    let replay = replay_bytes(&image, RecoveryMode::Strict)
        .unwrap_or_else(|e| fail(seed, &format!("golden journal does not replay: {e}")));
    if replay.truncated {
        fail(seed, "golden journal has a torn tail");
    }
    let ops = replay.ops;
    let total = ops.len();

    // `frames_before[k]` = frames among the first `k` messages = the
    // sequence number the `k`th message's frame would carry;
    // `covered_before[k]` = the highest `Durable` watermark among them.
    let mut frames_before = vec![0usize];
    let mut covered_before = vec![0u64];
    let mut frame_idxs = Vec::new();
    for (i, msg) in msgs.iter().enumerate() {
        if matches!(msg, ReplMsg::Frame { .. }) {
            frame_idxs.push(i);
        }
        frames_before.push(frames_before[i] + usize::from(matches!(msg, ReplMsg::Frame { .. })));
        covered_before.push(match msg {
            ReplMsg::Durable { seq } => *seq,
            _ => covered_before[i],
        });
    }
    if *frames_before.last().unwrap() != total {
        fail(
            seed,
            &format!(
                "tap shipped {} frames but the journal replays {total} ops",
                frames_before.last().unwrap()
            ),
        );
    }
    let durables = msgs.len() - total;
    println!(
        "golden run: seed {seed}, {patients} patients, {total} ops shipped as {} messages \
         ({durables} group-commit watermarks), journal {} bytes",
        msgs.len(),
        image.len()
    );
    let mut memo: HashMap<usize, u64> = HashMap::new();

    // Phase 0: a clean, unkilled link converges byte-identically.
    check_heal(seed, &msgs, &image, golden_fp, total, msgs.len(), 0);
    {
        let metrics = Arc::new(ReplMetrics::new());
        let mut engine = fresh_engine(&metrics);
        feed_prefix(seed, &mut engine, &msgs, msgs.len(), 0);
        engine
            .sync()
            .unwrap_or_else(|e| fail(seed, &format!("clean follower fsync failed: {e}")));
        if engine.applied_ops() != total as u64 || engine.fingerprint() != golden_fp {
            fail(seed, "clean frame stream did not converge");
        }
        let replica_image = engine
            .kdb()
            .journal_image()
            .unwrap_or_else(|e| fail(seed, &format!("clean replica journal unreadable: {e}")));
        if replica_image != image {
            fail(seed, "clean replicated journal is not byte-identical");
        }
    }
    println!("clean link: frame stream and snapshot+overlap both byte-identical");

    // Phase 1: kills at message boundaries and mid-frame.
    let mut rng = Rng(seed ^ 0x0411);
    let kills: Vec<(usize, usize)> = if quick {
        let mut kills: Vec<(usize, usize)> = (0..=msgs.len()).map(|k| (k, 0)).collect();
        for &f in &frame_idxs {
            let ReplMsg::Frame { bytes } = &msgs[f] else {
                unreachable!()
            };
            kills.extend((1..bytes.len()).map(|c| (f, c)));
        }
        kills
    } else {
        let stride = (msgs.len() / 160).max(1);
        let mut kills: Vec<(usize, usize)> =
            (0..=msgs.len()).step_by(stride).map(|k| (k, 0)).collect();
        kills.push((msgs.len(), 0));
        for _ in 0..120 {
            let f = frame_idxs[rng.below(frame_idxs.len() as u64) as usize];
            let ReplMsg::Frame { bytes } = &msgs[f] else {
                unreachable!()
            };
            kills.push((f, 1 + rng.below(bytes.len() as u64 - 1) as usize));
        }
        kills
    };
    for &(upto, cut) in &kills {
        check_kill(seed, &msgs, &frames_before, &ops, &mut memo, upto, cut);
    }
    // The kills that land between a shipped frame and its `Durable`.
    let mid_commit = kills
        .iter()
        .filter(|&&(upto, _)| frames_before[upto] as u64 > covered_before[upto])
        .count();
    if mid_commit == 0 {
        fail(seed, "no kill point fell between a frame and its Durable");
    }
    println!(
        "kills: {} points (message boundaries + mid-frame cuts, {mid_commit} between a \
         frame and its Durable), every promoted follower an exact acked prefix",
        kills.len()
    );

    // Phase 2: partitions that heal by re-bootstrap + overlap replay.
    let heals: Vec<(usize, usize)> = if quick {
        (0..=msgs.len()).map(|k| (k, 0)).collect()
    } else {
        (0..48)
            .map(|_| {
                let f = frame_idxs[rng.below(frame_idxs.len() as u64) as usize];
                let ReplMsg::Frame { bytes } = &msgs[f] else {
                    unreachable!()
                };
                match rng.below(2) {
                    0 => (rng.below(msgs.len() as u64 + 1) as usize, 0),
                    _ => (f, 1 + rng.below(bytes.len() as u64 - 1) as usize),
                }
            })
            .collect()
    };
    for &(upto, cut) in &heals {
        check_heal(seed, &msgs, &image, golden_fp, total, upto, cut);
    }
    println!(
        "partitions: {} heal points, all byte-identical after re-bootstrap, \
         overlap frames skipped as verified duplicates",
        heals.len()
    );

    // Phase 3: dropped frames (every frame but the last — dropping the
    // last is a kill, undetectable until more traffic arrives).
    let drops: Vec<usize> = if quick {
        frame_idxs[..frame_idxs.len() - 1].to_vec()
    } else {
        (0..120)
            .map(|_| frame_idxs[rng.below(frame_idxs.len() as u64 - 1) as usize])
            .collect()
    };
    for &drop_i in &drops {
        check_drop(
            seed,
            &msgs,
            &frames_before,
            &ops,
            &mut memo,
            &image,
            golden_fp,
            drop_i,
        );
    }
    println!(
        "drops: {} frames dropped, all classified as exact sticky gaps, all recovered by re-bootstrap",
        drops.len()
    );

    // Phase 4: single-bit flips across shipped frame bytes.
    let flips: Vec<(usize, usize, u8)> = if quick {
        frame_idxs
            .iter()
            .flat_map(|&f| {
                let ReplMsg::Frame { bytes } = &msgs[f] else {
                    unreachable!()
                };
                (0..bytes.len()).map(move |b| (f, b, 0))
            })
            .map(|(f, b, _)| {
                (
                    f,
                    b,
                    (Rng(seed ^ (f as u64) << 20 ^ b as u64).below(8)) as u8,
                )
            })
            .collect()
    } else {
        (0..240)
            .map(|_| {
                let f = frame_idxs[rng.below(frame_idxs.len() as u64) as usize];
                let ReplMsg::Frame { bytes } = &msgs[f] else {
                    unreachable!()
                };
                (
                    f,
                    rng.below(bytes.len() as u64) as usize,
                    rng.below(8) as u8,
                )
            })
            .collect()
    };
    for &flip in &flips {
        check_flip(seed, &msgs, &frames_before, &ops, &mut memo, flip);
    }
    println!(
        "bit flips: {} single-bit attacks, none applied, every fault classified",
        flips.len()
    );

    // Phase 5: adjacent frames reordered in flight.
    let reorders: Vec<(usize, usize)> = if quick {
        frame_idxs.windows(2).map(|w| (w[0], w[1])).collect()
    } else {
        (0..96)
            .map(|_| {
                let i = rng.below(frame_idxs.len() as u64 - 1) as usize;
                (frame_idxs[i], frame_idxs[i + 1])
            })
            .collect()
    };
    for &pair in &reorders {
        check_reorder(seed, &msgs, &frames_before, &ops, &mut memo, pair);
    }
    println!(
        "reorders: {} adjacent swaps, all classified as gaps at the swap point",
        reorders.len()
    );

    // Phase 6: the primary compacts while a follower is attached. The
    // compaction collapses update/delete history and restarts the frame
    // sequence space — old applied counts mean nothing against the new
    // image, so the follower must converge through the Reset →
    // authoritative-snapshot path, not by prefix-skipping.
    let epoch_before = source.lineage_epoch();
    primary
        .snapshot()
        .unwrap_or_else(|e| fail(seed, &format!("primary compaction failed: {e}")));
    let epoch_after = source.lineage_epoch();
    if epoch_after == epoch_before {
        fail(
            seed,
            "compaction did not replace the source's lineage epoch",
        );
    }
    let compacted_total = match source.drain().as_slice() {
        [ReplMsg::Reset { ops }] => *ops,
        other => fail(
            seed,
            &format!(
                "compaction shipped {} messages, expected exactly one Reset",
                other.len()
            ),
        ),
    };
    if compacted_total > total as u64 {
        fail(
            seed,
            &format!("compaction grew the journal: {compacted_total} ops from {total}"),
        );
    }
    let image_compacted = primary
        .journal_image()
        .unwrap_or_else(|e| fail(seed, &format!("compacted journal unreadable: {e}")));
    // Keep writing in the restarted sequence space.
    let mut rng6 = Rng(seed ^ 0x6AC7);
    for i in 0..patients.min(64) {
        primary
            .insert("patients", patient_doc(&mut rng6, patients + i))
            .unwrap_or_else(|e| fail(seed, &format!("post-compaction insert failed: {e}")));
        sync_every_8th(seed, &primary);
    }
    primary
        .sync()
        .unwrap_or_else(|e| fail(seed, &format!("post-compaction fsync failed: {e}")));
    let msgs_post = source.drain();
    let post_frames = msgs_post
        .iter()
        .filter(|m| matches!(m, ReplMsg::Frame { .. }))
        .count() as u64;
    let final_ops = compacted_total + post_frames;
    let golden_final = primary.read().fingerprint();
    let image_final = primary
        .journal_image()
        .unwrap_or_else(|e| fail(seed, &format!("final journal unreadable: {e}")));
    let compactions: Vec<(usize, usize)> = if quick {
        (0..=msgs.len()).map(|k| (k, 0)).collect()
    } else {
        (0..48)
            .map(|_| {
                let f = frame_idxs[rng.below(frame_idxs.len() as u64) as usize];
                let ReplMsg::Frame { bytes } = &msgs[f] else {
                    unreachable!()
                };
                match rng.below(2) {
                    0 => (rng.below(msgs.len() as u64 + 1) as usize, 0),
                    _ => (f, 1 + rng.below(bytes.len() as u64 - 1) as usize),
                }
            })
            .collect()
    };
    for &(upto, cut) in &compactions {
        let coord = format!("compaction with follower at {upto} messages (cut {cut})");
        let metrics = Arc::new(ReplMetrics::new());
        let mut engine = fresh_engine(&metrics);
        feed_prefix(seed, &mut engine, &msgs, upto, cut);
        engine
            .consume(&ReplMsg::Reset {
                ops: compacted_total,
            })
            .unwrap_or_else(|e| fail(seed, &format!("{coord}: Reset rejected: {e}")));
        engine
            .consume(&ReplMsg::Snapshot {
                epoch: epoch_after,
                image: image_compacted.clone(),
            })
            .unwrap_or_else(|e| fail(seed, &format!("{coord}: compacted snapshot rejected: {e}")));
        if engine.applied_ops() != compacted_total {
            fail(
                seed,
                &format!(
                    "{coord}: {} ops applied after the compacted snapshot, expected the \
                     watermark to land on {compacted_total}",
                    engine.applied_ops()
                ),
            );
        }
        for msg in &msgs_post {
            engine
                .consume(msg)
                .unwrap_or_else(|e| fail(seed, &format!("{coord}: post-compaction frame: {e}")));
        }
        engine
            .sync()
            .unwrap_or_else(|e| fail(seed, &format!("{coord}: follower fsync failed: {e}")));
        if engine.applied_ops() != final_ops || engine.acked_ops() != final_ops {
            fail(
                seed,
                &format!(
                    "{coord}: applied {} / acked {} of {final_ops}",
                    engine.applied_ops(),
                    engine.acked_ops()
                ),
            );
        }
        if engine.fingerprint() != golden_final {
            fail(
                seed,
                &format!("{coord}: follower diverged from the primary"),
            );
        }
        let replica_image = engine
            .kdb()
            .journal_image()
            .unwrap_or_else(|e| fail(seed, &format!("{coord}: replica journal unreadable: {e}")));
        if replica_image != image_final {
            fail(
                seed,
                &format!("{coord}: journal not byte-identical after compaction recovery"),
            );
        }
        let snap = metrics.snapshot();
        if snap.rejects_gap != 0 || snap.rejects_corrupt != 0 {
            fail(
                seed,
                &format!("{coord}: compaction recovery counted stream rejects"),
            );
        }
    }
    println!(
        "compactions: {} attach points healed through Reset + authoritative snapshot \
         ({total} ops collapsed to {compacted_total}, then {post_frames} more), all byte-identical",
        compactions.len()
    );

    println!(
        "fleet torture passed: seed {seed}, {patients} patients, {:.2}s",
        t0.elapsed().as_secs_f64()
    );
}

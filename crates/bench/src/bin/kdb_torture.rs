//! Crash/fault torture harness for the K-DB journal (ISSUE 4 gate).
//!
//! Replays a seeded op sequence against an in-memory journal and then
//! attacks it three ways, checking the **prefix-consistency invariant**
//! after every attack: *reopening the store yields exactly the state
//! produced by some prefix of the acknowledged ops, and every
//! fsync-acknowledged op survives*.
//!
//! 1. **Byte cuts** — the journal image is cut at byte offsets
//!    (every single offset in `--quick` mode; frame-boundary-focused
//!    sampling at paper scale) and reopened: the recovered fingerprint
//!    must equal the golden fingerprint after the number of ops whose
//!    frames fit entirely inside the cut.
//! 2. **Fault schedule** — the same op sequence is rerun once per
//!    (storage-operation tick × fault kind) with that fault injected:
//!    short writes, `ENOSPC`, `EIO`, failed fsyncs. After a simulated
//!    crash and fault-free reopen, the state must be the acknowledged
//!    prefix and no fsync-acknowledged op may be missing. Snapshot
//!    compaction gets the same treatment at every tick it consumes.
//! 3. **Bit flips** — single-bit corruption at sampled byte offsets,
//!    the format magic included: strict replay must fail loudly (never
//!    panic, never silently accept), a strict open must fail with it
//!    and leave the journal's bytes untouched, and salvage replay must
//!    recover a clean prefix.
//! 4. **Multi-producer group commit** — N writer threads interleave
//!    frames through the sharded [`SharedKdb`] group committer, one
//!    collection each, under every write-side fault kind. The invariant
//!    becomes per-collection: the reopened state of each collection must
//!    be the prefix of *that writer's* acknowledged ops at some length
//!    between its fsync-covered floor and its acked count — regardless
//!    of how the writers interleaved in the journal.
//!
//! Any failure prints the seed and attack coordinates, so
//! `kdb_torture --seed N` replays it exactly.
//!
//! Run: `cargo run -p ada-bench --release --bin kdb_torture [-- --quick]`

use std::path::Path;
use std::process::exit;
use std::sync::Arc;
use std::time::Instant;

use ada_bench::{patient_doc, Rng};
use ada_kdb::journal::{replay_bytes, DurabilityPolicy, Op, RecoveryMode};
use ada_kdb::{
    fingerprint_ops, Document, FaultKind, FaultyStorage, Kdb, KdbError, MemStorage, SharedKdb,
    Storage, StoreOptions,
};

const DEFAULT_SEED: u64 = 0xADA4;

/// The write-side fault kinds every fault schedule fires.
const FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::ShortWrite,
    FaultKind::NoSpace,
    FaultKind::IoError,
    FaultKind::SyncFail,
];

fn fail(seed: u64, msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    eprintln!("replay with: cargo run -p ada-bench --release --bin kdb_torture -- --seed {seed}");
    exit(1);
}

/// One step of the seeded workload, pre-planned so every torture rerun
/// issues the identical sequence regardless of which steps fail.
#[derive(Clone)]
enum Step {
    CreateColl(String),
    CreateIndex(String, String),
    Insert(String, Document),
    Update(String, u64, Document),
    Delete(String, u64),
}

impl Step {
    /// Issues the step against a live store. `Ok(true)` means the op
    /// was acknowledged (journaled); semantic rejections of ops made
    /// stale by an earlier fault (unknown document after a rolled-back
    /// insert) count as not-issued, while I/O errors surface as `Err`.
    fn issue(&self, db: &mut Kdb) -> Result<bool, KdbError> {
        let outcome = match self {
            Step::CreateColl(name) => db.create_collection(name.clone()),
            Step::CreateIndex(name, path) => db.create_index(name, path.clone()),
            Step::Insert(name, doc) => db.insert(name, doc.clone()).map(|_| ()),
            Step::Update(name, id, doc) => db.update(name, *id, doc.clone()),
            Step::Delete(name, id) => db.delete(name, *id),
        };
        match outcome {
            Ok(()) => Ok(true),
            Err(KdbError::Io(_)) => Err(outcome.unwrap_err()),
            // Any non-I/O rejection leaves the state untouched.
            Err(_) => Ok(false),
        }
    }
}

/// Plans the seeded workload: `patients` inserts interleaved with
/// updates and deletes across two collections, ids tracked so every
/// step is valid when nothing fails.
fn plan_steps(seed: u64, patients: usize) -> Vec<Step> {
    let mut rng = Rng(seed);
    let mut steps = vec![
        Step::CreateColl("patients".into()),
        Step::CreateIndex("patients".into(), "diagnosis".into()),
        Step::CreateColl("knowledge".into()),
    ];
    // Mirror the store's id assignment (1-based per collection).
    let mut live: Vec<u64> = Vec::new();
    for (i, next_id) in (0..patients).zip(1u64..) {
        steps.push(Step::Insert("patients".into(), patient_doc(&mut rng, i)));
        live.push(next_id);
        match rng.below(10) {
            0..=1 if !live.is_empty() => {
                let id = live[rng.below(live.len() as u64) as usize];
                steps.push(Step::Update(
                    "patients".into(),
                    id,
                    patient_doc(&mut rng, i).with("revised", true),
                ));
            }
            2 if live.len() > 1 => {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                steps.push(Step::Delete("patients".into(), id));
            }
            3 => {
                steps.push(Step::Insert(
                    "knowledge".into(),
                    Document::new()
                        .with("kind", "cluster")
                        .with("score", (rng.below(1000) as f64) / 1000.0),
                ));
            }
            _ => {}
        }
    }
    steps
}

fn open_mem(mem: &MemStorage, durability: DurabilityPolicy) -> Result<Kdb, KdbError> {
    Kdb::open_with(
        Path::new("journal"),
        StoreOptions::with_storage(Arc::new(mem.clone())).durability(durability),
    )
}

/// The golden run: every step applied fault-free. Returns the per-op
/// fingerprints (`fp[j]` = state after `j` acknowledged ops), the
/// journal byte length after each acknowledged op, and the final image.
struct Golden {
    fingerprints: Vec<u64>,
    end_offsets: Vec<usize>,
    image: Vec<u8>,
    acked: usize,
}

fn golden_run(seed: u64, steps: &[Step]) -> Golden {
    let mem = MemStorage::new();
    let mut db = open_mem(&mem, DurabilityPolicy::SnapshotOnly)
        .unwrap_or_else(|e| fail(seed, &format!("golden open failed: {e}")));
    let mut fingerprints = vec![db.fingerprint()];
    let mut end_offsets = Vec::new();
    for step in steps {
        let issued = step
            .issue(&mut db)
            .unwrap_or_else(|e| fail(seed, &format!("golden step failed: {e}")));
        if issued {
            fingerprints.push(db.fingerprint());
            end_offsets.push(mem.len(Path::new("journal")).unwrap_or(0));
        }
    }
    let image = mem.bytes(Path::new("journal")).unwrap_or_default();
    Golden {
        acked: end_offsets.len(),
        fingerprints,
        end_offsets,
        image,
    }
}

/// Byte-cut attack: install `image[..cut]`, reopen, compare against the
/// golden fingerprint for the op count that fits inside the cut.
fn check_cut(seed: u64, golden: &Golden, cut: usize) {
    let expect_ops = golden
        .end_offsets
        .iter()
        .take_while(|&&end| end <= cut)
        .count();
    let mem = MemStorage::new();
    mem.install(Path::new("journal"), golden.image[..cut].to_vec());
    let db = open_mem(&mem, DurabilityPolicy::SnapshotOnly)
        .unwrap_or_else(|e| fail(seed, &format!("reopen after cut at byte {cut} failed: {e}")));
    if db.fingerprint() != golden.fingerprints[expect_ops] {
        fail(
            seed,
            &format!(
                "cut at byte {cut}: recovered state is not the {expect_ops}-op prefix \
                 (journal {} bytes)",
                golden.image.len()
            ),
        );
    }
}

/// Fault-schedule attack: rerun the workload with one fault kind armed
/// at one storage tick, crash, reopen fault-free, and check the prefix
/// invariant plus fsync-durability.
fn check_fault_point(seed: u64, steps: &[Step], golden: &Golden, tick: u64, kind: FaultKind) {
    let coord = format!("fault {} at tick {tick}", kind.name());
    let mem = Arc::new(MemStorage::new());
    let (storage, handle) = FaultyStorage::wrap(Arc::clone(&mem) as Arc<dyn Storage>);
    handle.fail_at(tick, kind);
    let options = StoreOptions::with_storage(storage).durability(DurabilityPolicy::Always);
    let mut acked = 0usize;
    let mut durable = 0u64;
    if let Ok(mut db) = Kdb::open_with(Path::new("journal"), options) {
        for step in steps {
            match step.issue(&mut db) {
                Ok(true) => acked += 1,
                Ok(false) => {}
                // First I/O failure poisons the journal; keep issuing to
                // prove later acks are refused, not silently lost.
                Err(_) => {}
            }
        }
        durable = db.journal_durable_ops();
    }
    // Crash: drop the store, clear the schedule, reopen over the raw
    // bytes the "disk" actually holds.
    handle.clear();
    let db = open_mem(&mem, DurabilityPolicy::SnapshotOnly)
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: reopen failed: {e}")));
    if db.fingerprint() != golden.fingerprints[acked] {
        fail(
            seed,
            &format!(
                "{coord}: recovered state is not the {acked}-op acknowledged prefix \
                 ({} acked in golden run)",
                golden.acked
            ),
        );
    }
    if (acked as u64) < durable {
        fail(
            seed,
            &format!("{coord}: {durable} ops were fsync-acknowledged but only {acked} survive"),
        );
    }
}

/// Counts the storage ticks one full fault-free workload consumes
/// (and, separately, the ticks of a trailing snapshot compaction), so
/// the fault schedule can enumerate both.
fn count_ticks(seed: u64, steps: &[Step]) -> (u64, u64) {
    let mem = Arc::new(MemStorage::new());
    let (storage, handle) = FaultyStorage::wrap(mem as Arc<dyn Storage>);
    let options = StoreOptions::with_storage(storage).durability(DurabilityPolicy::Always);
    let mut db = Kdb::open_with(Path::new("journal"), options)
        .unwrap_or_else(|e| fail(seed, &format!("tick-count open failed: {e}")));
    for step in steps {
        step.issue(&mut db)
            .unwrap_or_else(|e| fail(seed, &format!("tick-count step failed: {e}")));
    }
    let workload = handle.ticks();
    db.snapshot()
        .unwrap_or_else(|e| fail(seed, &format!("tick-count snapshot failed: {e}")));
    (workload, handle.ticks() - workload)
}

/// Snapshot compaction under faults: whatever tick the fault lands on,
/// a crash right after must reopen to the full final state (rename is
/// atomic: the disk holds either the old journal or the compacted one).
fn check_snapshot_fault(seed: u64, steps: &[Step], golden: &Golden, tick: u64, kind: FaultKind) {
    let coord = format!("snapshot fault {} at tick {tick}", kind.name());
    let mem = Arc::new(MemStorage::new());
    let (storage, handle) = FaultyStorage::wrap(Arc::clone(&mem) as Arc<dyn Storage>);
    let options = StoreOptions::with_storage(storage).durability(DurabilityPolicy::SnapshotOnly);
    let mut db = Kdb::open_with(Path::new("journal"), options)
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: open failed: {e}")));
    for step in steps {
        step.issue(&mut db)
            .unwrap_or_else(|e| fail(seed, &format!("{coord}: step failed: {e}")));
    }
    handle.fail_at(handle.ticks() + tick, kind);
    let _ = db.snapshot(); // may fail — the disk must stay consistent
    drop(db);
    handle.clear();
    let db = open_mem(&mem, DurabilityPolicy::SnapshotOnly)
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: reopen failed: {e}")));
    if db.fingerprint() != golden.fingerprints[golden.acked] {
        fail(seed, &format!("{coord}: state lost across compaction"));
    }
}

/// Bit-flip attack, the magic included: strict replay must reject the
/// flipped image or replay it unaltered, without panicking, and a
/// strict open must agree and leave the journal's bytes as they were;
/// salvage replay must recover a prefix of the golden op sequence.
fn check_bit_flip(seed: u64, golden: &Golden, golden_ops: &[Op], byte: usize, bit: u8) {
    let mut image = golden.image.clone();
    image[byte] ^= 1 << bit;
    let strict = replay_bytes(&image, RecoveryMode::Strict);
    let mem = MemStorage::new();
    mem.install(Path::new("journal"), image.clone());
    let opened = open_mem(&mem, DurabilityPolicy::SnapshotOnly);
    if opened.is_ok() != strict.is_ok() {
        fail(
            seed,
            &format!("bit flip at byte {byte} bit {bit}: open and replay disagree"),
        );
    }
    if mem.bytes(Path::new("journal")).as_ref() != Some(&image) {
        fail(
            seed,
            &format!("bit flip at byte {byte} bit {bit}: a strict open changed the journal"),
        );
    }
    match strict {
        Ok(replayed) => {
            // A flip the framing cannot see must not change any op.
            if replayed.ops != golden_ops {
                fail(
                    seed,
                    &format!("bit flip at byte {byte} bit {bit} silently altered replay"),
                );
            }
        }
        Err(KdbError::Corrupt { offset, .. }) => {
            if offset as usize > image.len() {
                fail(seed, &format!("corruption offset {offset} out of range"));
            }
        }
        Err(e) => fail(
            seed,
            &format!("bit flip at byte {byte} bit {bit}: unexpected error {e}"),
        ),
    }
    let salvage = replay_bytes(&image, RecoveryMode::Salvage).unwrap_or_else(|e| {
        fail(
            seed,
            &format!("salvage replay failed at byte {byte} bit {bit}: {e}"),
        )
    });
    if salvage.ops[..] != golden_ops[..salvage.ops.len()] {
        fail(
            seed,
            &format!("bit flip at byte {byte} bit {bit}: salvage is not a clean prefix"),
        );
    }
}

impl Step {
    /// Issues the step through the sharded facade. `Ok((acked,
    /// durable))`: `acked` mirrors [`Step::issue`], `durable` is the
    /// commit receipt (always `false` for schema ops, which have no
    /// receipt variant — a conservative floor).
    fn issue_shared(&self, db: &SharedKdb) -> Result<(bool, bool), KdbError> {
        let outcome = match self {
            Step::CreateColl(name) => db.create_collection(name).map(|()| false),
            Step::CreateIndex(name, path) => db.create_index(name, path).map(|()| false),
            Step::Insert(name, doc) => db.insert_committed(name, doc.clone()).map(|(_, d)| d),
            Step::Update(name, id, doc) => db.update_committed(name, *id, doc.clone()),
            Step::Delete(name, id) => db.delete_committed(name, *id),
        };
        match outcome {
            Ok(durable) => Ok((true, durable)),
            Err(e @ KdbError::Io(_)) => Err(e),
            Err(_) => Ok((false, false)),
        }
    }
}

/// Per-writer seeded plan for the multi-producer phase: one collection
/// (`w<writer>`) per writer, inserts interleaved with updates and
/// deletes, every step valid when nothing fails.
fn plan_writer_steps(seed: u64, writer: usize, ops: usize) -> Vec<Step> {
    let coll = format!("w{writer}");
    let mut rng = Rng(seed ^ (writer as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut steps = vec![
        Step::CreateColl(coll.clone()),
        Step::CreateIndex(coll.clone(), "diagnosis".into()),
    ];
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 1u64;
    while steps.len() < ops + 2 {
        match rng.below(10) {
            0..=1 if !live.is_empty() => {
                let id = live[rng.below(live.len() as u64) as usize];
                steps.push(Step::Update(
                    coll.clone(),
                    id,
                    patient_doc(&mut rng, id as usize).with("revised", true),
                ));
            }
            2 if live.len() > 1 => {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                steps.push(Step::Delete(coll.clone(), id));
            }
            _ => {
                steps.push(Step::Insert(
                    coll.clone(),
                    patient_doc(&mut rng, next_id as usize),
                ));
                live.push(next_id);
                next_id += 1;
            }
        }
    }
    steps
}

/// Fingerprint ladder for one writer: `ladder[j]` is the fingerprint of
/// the writer's collection after its first `j` acknowledged ops,
/// computed serially against a private in-memory store.
fn writer_ladder(seed: u64, steps: &[Step]) -> Vec<u64> {
    let mut db = Kdb::in_memory();
    let mut ladder = vec![fingerprint_ops(&db.state_ops())];
    for step in steps {
        match step.issue(&mut db) {
            Ok(true) => ladder.push(fingerprint_ops(&db.state_ops())),
            Ok(false) => fail(seed, "writer golden plan contains an invalid step"),
            Err(e) => fail(seed, &format!("writer golden step failed: {e}")),
        }
    }
    ladder
}

/// Runs every writer's plan concurrently through the sharded facade.
/// Returns per-writer `(acked, floor)`: ops acknowledged and the index
/// of the last op whose commit receipt reported fsync-durable.
fn run_writers(db: &SharedKdb, plans: &[Vec<Step>]) -> Vec<(usize, usize)> {
    let mut out = vec![(0, 0); plans.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|steps| {
                let db = db.clone();
                scope.spawn(move || {
                    let (mut acked, mut floor) = (0usize, 0usize);
                    for step in steps {
                        // Rejected or failed steps keep issuing — later
                        // acks must be refused, not silently lost.
                        if let Ok((true, durable)) = step.issue_shared(&db) {
                            acked += 1;
                            if durable {
                                floor = acked;
                            }
                        }
                    }
                    (acked, floor)
                })
            })
            .collect();
        for (slot, handle) in out.iter_mut().zip(handles) {
            *slot = handle.join().expect("writer thread panicked");
        }
    });
    out
}

/// Checks the per-collection prefix invariant after a multi-producer
/// crash: each writer's recovered collection must be exactly its
/// `acked`-op prefix (the journal orders a writer's frames in issue
/// order, whatever the global interleaving), and the fsync-covered
/// floor can never exceed what survived.
fn check_writer_prefixes(
    seed: u64,
    coord: &str,
    state: &[Op],
    ladders: &[Vec<u64>],
    results: &[(usize, usize)],
) {
    for (w, (ladder, &(acked, floor))) in ladders.iter().zip(results).enumerate() {
        let coll = format!("w{w}");
        let ops: Vec<Op> = state
            .iter()
            .filter(|op| op.collection() == coll)
            .cloned()
            .collect();
        let fp = fingerprint_ops(&ops);
        if floor > acked {
            fail(
                seed,
                &format!("{coord}: writer {w} durable floor {floor} exceeds acked {acked}"),
            );
        }
        if fp != ladder[acked] {
            let found = ladder.iter().position(|&l| l == fp);
            fail(
                seed,
                &format!(
                    "{coord}: writer {w} recovered at prefix {found:?}, \
                     expected its {acked}-op acked prefix"
                ),
            );
        }
    }
}

/// The storage ticks of every writer's plan issued one after another
/// through the sharded facade under `DurabilityPolicy::Always`: each op
/// waits for its own fsync round, the most rounds any interleaving of
/// the same plans can take. Depends on the seed alone.
fn mp_tick_bound(seed: u64, plans: &[Vec<Step>]) -> u64 {
    let mem = Arc::new(MemStorage::new());
    let (storage, handle) = FaultyStorage::wrap(mem as Arc<dyn Storage>);
    let options = StoreOptions::with_storage(storage).durability(DurabilityPolicy::Always);
    let db = SharedKdb::open_with(Path::new("journal"), options)
        .unwrap_or_else(|e| fail(seed, &format!("multi-producer tick-count open failed: {e}")));
    for step in plans.iter().flatten() {
        match step.issue_shared(&db) {
            Ok((true, _)) => {}
            other => fail(
                seed,
                &format!("multi-producer tick-count step failed: {other:?}"),
            ),
        }
    }
    handle.ticks()
}

/// Multi-producer fault attack: all writers race through the group
/// committer with one fault armed at one storage tick, then crash,
/// clear, reopen fault-free, and check every writer's prefix.
fn check_mp_fault_point(
    seed: u64,
    plans: &[Vec<Step>],
    ladders: &[Vec<u64>],
    tick: u64,
    kind: FaultKind,
) {
    let coord = format!("multi-producer fault {} at tick {tick}", kind.name());
    let mem = Arc::new(MemStorage::new());
    let (storage, handle) = FaultyStorage::wrap(Arc::clone(&mem) as Arc<dyn Storage>);
    handle.fail_at(tick, kind);
    let options = StoreOptions::with_storage(storage).durability(DurabilityPolicy::Always);
    let mut results = vec![(0, 0); plans.len()];
    if let Ok(db) = SharedKdb::open_with(Path::new("journal"), options) {
        results = run_writers(&db, plans);
    }
    handle.clear();
    let db = open_mem(&mem, DurabilityPolicy::SnapshotOnly)
        .unwrap_or_else(|e| fail(seed, &format!("{coord}: reopen failed: {e}")));
    check_writer_prefixes(seed, &coord, &db.state_ops(), ladders, &results);
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
    // Paper scale (6,380 patients) by default; a small journal in quick
    // mode so every byte offset and every tick is attackable in CI.
    let patients = if quick { 24 } else { 6_380 };
    let t0 = Instant::now();

    let steps = plan_steps(seed, patients);
    let golden = golden_run(seed, &steps);
    let golden_ops = replay_bytes(&golden.image, RecoveryMode::Strict)
        .unwrap_or_else(|e| fail(seed, &format!("golden journal does not replay: {e}")))
        .ops;
    println!(
        "golden run: seed {seed}, {} steps, {} acked ops, journal {} bytes",
        steps.len(),
        golden.acked,
        golden.image.len()
    );

    // Phase 1: byte cuts.
    let cuts: Vec<usize> = if quick {
        (0..=golden.image.len()).collect()
    } else {
        // Paper scale: a stride of frame boundaries ± 1 byte (where a
        // torn final record flips between surviving and truncating)
        // plus a seeded sample of interior offsets. Coverage is logged,
        // not silent — every offset would cost hours of replay.
        let mut rng = Rng(seed ^ 0xC075);
        let boundary_step = (golden.end_offsets.len() / 400).max(1);
        let mut cuts: Vec<usize> = golden
            .end_offsets
            .iter()
            .step_by(boundary_step)
            .flat_map(|&end| [end.saturating_sub(1), end, end + 1])
            .filter(|&c| c <= golden.image.len())
            .collect();
        cuts.extend((0..500).map(|_| rng.below(golden.image.len() as u64 + 1) as usize));
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    };
    for &cut in &cuts {
        check_cut(seed, &golden, cut);
    }
    if quick {
        println!("byte cuts: all {} offsets consistent", cuts.len());
    } else {
        println!(
            "byte cuts: {} of {} offsets sampled (frame boundaries ±1 + seeded interior), \
             all consistent",
            cuts.len(),
            golden.image.len() + 1
        );
    }

    // Phase 2: fault schedule.
    let (ticks, snapshot_ticks) = count_ticks(seed, &steps);
    let tick_step = if quick { 1 } else { (ticks / 120).max(1) };
    let mut fault_points = 0usize;
    for kind in FAULT_KINDS {
        for tick in (0..ticks).step_by(tick_step as usize) {
            check_fault_point(seed, &steps, &golden, tick, kind);
            fault_points += 1;
        }
        // Snapshot compaction consumes its own ticks (create, chunked
        // appends, sync, rename, dir-sync, reopen): attack every one.
        for tick in 0..=snapshot_ticks {
            check_snapshot_fault(seed, &steps, &golden, tick, kind);
            fault_points += 1;
        }
    }
    if tick_step > 1 {
        println!(
            "fault schedule: {fault_points} points consistent \
             (every {tick_step}th of {ticks} ticks × 4 kinds; stride drops the rest)"
        );
    } else {
        println!("fault schedule: {fault_points} points consistent (all {ticks} ticks × 4 kinds)");
    }

    // Phase 3: bit flips.
    let flip_step = if quick {
        1
    } else {
        (golden.image.len() / 1_200).max(1)
    };
    let mut rng = Rng(seed ^ 0xF11B);
    let mut flips = 0usize;
    for byte in (0..golden.image.len()).step_by(flip_step) {
        check_bit_flip(seed, &golden, &golden_ops, byte, (rng.below(8)) as u8);
        flips += 1;
    }
    println!(
        "bit flips: {flips} of {} bytes attacked (one seeded bit each), none silent",
        golden.image.len()
    );

    // Phase 4: multi-producer group commit.
    const WRITERS: usize = 4;
    let writer_ops = if quick { 12 } else { 400 };
    let plans: Vec<Vec<Step>> = (0..WRITERS)
        .map(|w| plan_writer_steps(seed, w, writer_ops))
        .collect();
    let ladders: Vec<Vec<u64>> = plans.iter().map(|p| writer_ladder(seed, p)).collect();

    // The schedule spans a tick count fixed by the seed, so a replayed
    // seed attacks the same ticks.
    let mp_ticks = mp_tick_bound(seed, &plans);

    // Interleaving invariance first: two clean runs schedule frames in
    // different global orders; both must land every writer at its full
    // prefix and the same final store fingerprint.
    let mut clean_fp = None;
    for round in 0..2u32 {
        let mem = Arc::new(MemStorage::new());
        let (storage, handle) = FaultyStorage::wrap(Arc::clone(&mem) as Arc<dyn Storage>);
        let options = StoreOptions::with_storage(storage).durability(DurabilityPolicy::Always);
        let db = SharedKdb::open_with(Path::new("journal"), options)
            .unwrap_or_else(|e| fail(seed, &format!("multi-producer clean open failed: {e}")));
        let results = run_writers(&db, &plans);
        drop(db); // crash without shutdown sync
        let reopened = open_mem(&mem, DurabilityPolicy::SnapshotOnly)
            .unwrap_or_else(|e| fail(seed, &format!("multi-producer clean reopen failed: {e}")));
        check_writer_prefixes(
            seed,
            &format!("multi-producer clean round {round}"),
            &reopened.state_ops(),
            &ladders,
            &results,
        );
        let fp = reopened.fingerprint();
        if *clean_fp.get_or_insert(fp) != fp {
            fail(seed, "multi-producer final state depends on interleaving");
        }
        if handle.ticks() > mp_ticks {
            fail(
                seed,
                &format!(
                    "multi-producer clean round {round} took {} ticks, past the \
                     seed's bound of {mp_ticks}",
                    handle.ticks()
                ),
            );
        }
    }

    // Then the fault schedule against the concurrent run. A run's tick
    // count varies with interleaving (group fsync rounds are scheduling-
    // dependent); a fault armed past it simply never fires, which still
    // exercises the clean path.
    let mp_step = if quick { 1 } else { (mp_ticks / 40).max(1) };
    let mut mp_points = 0usize;
    for kind in FAULT_KINDS {
        for tick in (0..mp_ticks).step_by(mp_step as usize) {
            check_mp_fault_point(seed, &plans, &ladders, tick, kind);
            mp_points += 1;
        }
    }
    println!(
        "multi-producer: {WRITERS} writers x {writer_ops} ops each, \
         {mp_points} fault points consistent (schedule spans {mp_ticks} ticks x 4 kinds)"
    );

    println!(
        "kdb torture passed: seed {seed}, {} patients, {:.2}s",
        patients,
        t0.elapsed().as_secs_f64()
    );
}

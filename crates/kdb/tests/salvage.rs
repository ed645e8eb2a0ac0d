//! Opening what is not a clean journal: strict opens refuse corruption
//! and files that are not journals without touching them, and
//! `RecoveryMode::Salvage` replays the valid prefix, quarantines the
//! unreadable remainder byte for byte, and leaves a journal that a
//! later strict open accepts.

use std::path::Path;
use std::sync::Arc;

use ada_kdb::journal::V2_MAGIC;
use ada_kdb::store::quarantine_path;
use ada_kdb::{
    CorruptionReport, Document, Kdb, KdbError, MemStorage, RecoveryMode, SharedKdb, StoreOptions,
};

const PATH: &str = "kdb.journal";

fn options(mem: &MemStorage, recovery: RecoveryMode) -> StoreOptions {
    StoreOptions::with_storage(Arc::new(mem.clone())).recovery(recovery)
}

/// A journal of ten ops, and the byte length after each of them.
fn journal() -> (Vec<u8>, Vec<usize>) {
    let mem = MemStorage::new();
    let mut db = Kdb::open_with(Path::new(PATH), options(&mem, RecoveryMode::Strict)).unwrap();
    let mut ends = Vec::new();
    db.create_collection("patients").unwrap();
    ends.push(mem.len(Path::new(PATH)).unwrap());
    for i in 0..9i64 {
        let doc = Document::new().with("patient", i).with("age", 30 + i);
        db.insert("patients", doc).unwrap();
        ends.push(mem.len(Path::new(PATH)).unwrap());
    }
    (mem.bytes(Path::new(PATH)).unwrap(), ends)
}

/// The fingerprint of the store a strict open of `bytes` yields.
fn fingerprint_of(bytes: &[u8]) -> u64 {
    let mem = MemStorage::new();
    mem.install(Path::new(PATH), bytes.to_vec());
    let db = Kdb::open_with(Path::new(PATH), options(&mem, RecoveryMode::Strict)).unwrap();
    db.fingerprint()
}

/// Salvage-opens `bytes` through the sharded store and checks what the
/// open leaves behind: the replayed prefix `bytes[..offset]`, the
/// quarantined remainder, the report, and a journal a strict reopen
/// accepts with the same state.
fn salvage(bytes: &[u8], offset: u64, record: usize) {
    let mem = MemStorage::new();
    let path = Path::new(PATH);
    mem.install(path, bytes.to_vec());
    let db = SharedKdb::open_with(path, options(&mem, RecoveryMode::Salvage)).unwrap();
    let at = offset as usize;
    let prefix = if at == 0 { V2_MAGIC } else { &bytes[..at] };
    assert_eq!(db.read().fingerprint(), fingerprint_of(prefix));
    assert_eq!(mem.bytes(&quarantine_path(path, 0)).unwrap(), &bytes[at..]);
    let report = db.salvaged().cloned().map(|r| (r.offset, r.record));
    assert_eq!(report, Some((offset, record)));
    let fp = db.read().fingerprint();
    drop(db);
    let reopened = Kdb::open_with(path, options(&mem, RecoveryMode::Strict)).unwrap();
    assert_eq!(reopened.fingerprint(), fp);
    assert_eq!(reopened.salvaged(), None);
}

#[test]
fn salvage_keeps_the_prefix_of_a_journal_corrupt_mid_file() {
    let (clean, ends) = journal();
    // Flip a payload byte in the middle of the fifth record's frame.
    let mut bytes = clean.clone();
    bytes[(ends[3] + ends[4]) / 2] ^= 0x01;
    let mem = MemStorage::new();
    mem.install(Path::new(PATH), bytes.clone());
    let strict = Kdb::open_with(Path::new(PATH), options(&mem, RecoveryMode::Strict));
    assert_eq!(
        mem.bytes(Path::new(PATH)).unwrap(),
        bytes,
        "a strict open erased"
    );
    let offset = ends[3] as u64;
    assert!(
        matches!(strict, Err(KdbError::Corrupt { offset: o, record: 4, .. }) if o == offset),
        "{:?}",
        strict.map(|_| ())
    );
    salvage(&bytes, offset, 4);
}

#[test]
fn salvage_quarantines_all_of_a_file_that_is_not_a_journal() {
    salvage(b"patient,age\n1,42\n2,57\n", 0, 0);
}

#[test]
fn a_flipped_magic_bit_is_refused_never_erased() {
    let (clean, _) = journal();
    for byte in 0..V2_MAGIC.len() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[byte] ^= 1 << bit;
            let mem = MemStorage::new();
            let path = Path::new(PATH);
            mem.install(path, bytes.clone());
            let corrupt_at_zero = |e: KdbError| matches!(e, KdbError::Corrupt { offset: 0, .. });
            let plain = Kdb::open_with(path, options(&mem, RecoveryMode::Strict));
            assert!(
                plain.err().is_some_and(corrupt_at_zero),
                "byte {byte} bit {bit}"
            );
            let shared = SharedKdb::open_with(path, options(&mem, RecoveryMode::Strict));
            assert!(
                shared.err().is_some_and(corrupt_at_zero),
                "byte {byte} bit {bit}"
            );
            assert_eq!(
                mem.bytes(path).unwrap(),
                bytes,
                "byte {byte} bit {bit} erased"
            );
            let salvaged = Kdb::open_with(path, options(&mem, RecoveryMode::Salvage)).unwrap();
            assert_eq!(
                salvaged
                    .salvaged()
                    .map(|r: &CorruptionReport| (r.offset, r.record)),
                Some((0, 0))
            );
            assert_eq!(mem.bytes(&quarantine_path(path, 0)).unwrap(), bytes);
        }
    }
}

#[test]
fn a_prefix_of_the_magic_opens_as_an_empty_journal() {
    for cut in 0..V2_MAGIC.len() {
        let mem = MemStorage::new();
        let path = Path::new(PATH);
        mem.install(path, V2_MAGIC[..cut].to_vec());
        let mut db = Kdb::open_with(path, options(&mem, RecoveryMode::Strict)).unwrap();
        assert_eq!(
            db.fingerprint(),
            Kdb::in_memory().fingerprint(),
            "cut {cut}"
        );
        assert_eq!(mem.bytes(path).unwrap(), V2_MAGIC, "cut {cut}");
        db.create_collection("patients").unwrap();
        drop(db);
        let reopened = Kdb::open_with(path, options(&mem, RecoveryMode::Strict)).unwrap();
        assert!(reopened.collection("patients").is_some(), "cut {cut}");
    }
}

#[test]
fn a_second_salvage_keeps_the_first_quarantine() {
    let mem = MemStorage::new();
    let path = Path::new(PATH);
    let (clean, ends) = journal();
    let mut remainders = Vec::new();
    let mut bytes = clean;
    let mut last_start = ends[ends.len() - 2];
    for round in 0..3u32 {
        // Corrupt the last frame, salvage, then write on past it.
        bytes[last_start + 4] ^= 0x40;
        remainders.push(bytes[last_start..].to_vec());
        mem.install(path, bytes.clone());
        let mut db = Kdb::open_with(path, options(&mem, RecoveryMode::Salvage)).unwrap();
        assert_eq!(
            db.salvaged().map(|r| r.offset),
            Some(last_start as u64),
            "round {round}"
        );
        for (n, remainder) in remainders.iter().enumerate() {
            let n = u32::try_from(n).unwrap();
            assert_eq!(
                mem.bytes(&quarantine_path(path, n)).as_ref(),
                Some(remainder),
                "round {round}: quarantine {n}"
            );
        }
        assert_eq!(mem.bytes(&quarantine_path(path, round + 1)), None);
        for i in 0..3i64 {
            last_start = mem.len(path).unwrap();
            db.insert("patients", Document::new().with("patient", 100 + i))
                .unwrap();
        }
        drop(db);
        bytes = mem.bytes(path).unwrap();
    }
}

#[test]
fn journals_differing_only_in_extension_keep_separate_quarantines() {
    let mem = MemStorage::new();
    let (clean, ends) = journal();
    let last_start = ends[ends.len() - 2];
    for name in ["a.journal", "a.log"] {
        let mut bytes = clean.clone();
        bytes[last_start + 4] ^= 0x40;
        mem.install(Path::new(name), bytes);
        let db = Kdb::open_with(Path::new(name), options(&mem, RecoveryMode::Salvage)).unwrap();
        assert_eq!(db.salvaged().map(|r| r.offset), Some(last_start as u64));
    }
    let mut remainder = clean[last_start..].to_vec();
    remainder[4] ^= 0x40;
    for name in ["a.journal.quarantine", "a.log.quarantine"] {
        assert_eq!(
            mem.bytes(Path::new(name)).as_ref(),
            Some(&remainder),
            "{name}"
        );
    }
    assert_eq!(mem.bytes(Path::new("a.quarantine")), None);
}

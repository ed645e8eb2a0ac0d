//! ROADMAP aim 2 calls line count per crate "a tracked number"; this is
//! where it is tracked. The count is the perf ledger's `<crate>.src_lines`
//! rule (`crates/bench/src/bin/ledger/probes.rs`): non-blank lines before
//! a file's `#[cfg(test)]`, over every `.rs` under `crates/<crate>/src`.
//!
//! A PR that needs a ceiling raised raises it here, in its own diff,
//! where a reviewer sees it; a PR that shrinks a crate lowers it.

use std::path::Path;

/// The twelve tracked crates and the size each may not exceed.
const CEILINGS: [(&str, u64); 12] = [
    ("dataset", 1_981),
    ("vsm", 1_149),
    ("metrics", 656),
    ("mining", 3_462),
    ("kdb", 4_800),
    ("core", 3_259),
    ("signals", 784),
    ("obs", 1_843),
    ("stream", 1_376),
    ("service", 2_057),
    ("net", 2_736),
    ("fleet", 1_771),
];

fn src_lines(dir: &Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            total += src_lines(&path);
        } else if path.extension().is_some_and(|e| e == "rs") {
            total += std::fs::read_to_string(&path)
                .unwrap()
                .lines()
                .take_while(|line| line.trim() != "#[cfg(test)]")
                .filter(|line| !line.trim().is_empty())
                .count() as u64;
        }
    }
    total
}

#[test]
fn tracked_crates_stay_under_their_ceilings() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut over = Vec::new();
    let mut sum = 0;
    println!("{:<10}{:>10}{:>10}", "crate", "src_lines", "ceiling");
    for (krate, ceiling) in CEILINGS {
        let lines = src_lines(&crates.join(krate).join("src"));
        println!("{krate:<10}{lines:>10}{ceiling:>10}");
        sum += lines;
        if lines > ceiling {
            over.push(format!("{krate}: {lines} > {ceiling}"));
        }
    }
    println!("{:<10}{sum:>10}", "sum");
    assert!(over.is_empty(), "over the line budget: {over:?}");
}

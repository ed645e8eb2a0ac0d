//! ROADMAP aim 2 calls line count per crate "a tracked number"; this is
//! where it is tracked. The count is the perf ledger's `<crate>.src_lines`
//! rule (`crates/bench/src/bin/ledger/probes.rs`): non-blank lines before
//! a file's `#[cfg(test)]`, over every `.rs` under `crates/<crate>/src`.
//! The offline dependency stubs are held to a ceiling by the same rule,
//! counted over every `vendor/*/src`, so they cannot regrow.
//!
//! A PR that needs a ceiling raised raises it here, in its own diff,
//! where a reviewer sees it; a PR that shrinks a crate lowers it.

use std::path::Path;

/// The thirteen tracked crates and the size each may not exceed.
/// `bench` is counted without `src/bin/ledger`: the ledger is the
/// benchmark itself and changes only with `BENCHMARK.json`.
const CEILINGS: [(&str, u64); 13] = [
    ("dataset", 1_970),
    ("vsm", 719),
    ("metrics", 664),
    ("mining", 3_557),
    ("kdb", 4_391),
    ("core", 3_179),
    ("signals", 770),
    ("obs", 1_371),
    ("stream", 1_411),
    ("service", 1_898),
    ("net", 2_675),
    ("fleet", 1_800),
    ("bench", 4_091),
];

/// The ceiling of the `vendor` row: every offline stub together.
const VENDOR_CEILING: u64 = 1_289;

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
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut over = Vec::new();
    let mut row = |name: &str, lines: u64, ceiling: u64| {
        println!("{name:<10}{lines:>10}{ceiling:>10}");
        if lines > ceiling {
            over.push(format!("{name}: {lines} > {ceiling}"));
        }
    };
    println!("{:<10}{:>10}{:>10}", "crate", "src_lines", "ceiling");
    let mut sum = 0;
    for (krate, ceiling) in CEILINGS {
        let src = root.join("crates").join(krate).join("src");
        let mut lines = src_lines(&src);
        if krate == "bench" {
            lines -= src_lines(&src.join("bin").join("ledger"));
        }
        row(krate, lines, ceiling);
        sum += lines;
    }
    println!("{:<10}{sum:>10}", "sum");
    let vendor = std::fs::read_dir(root.join("vendor"))
        .unwrap()
        .map(|stub| src_lines(&stub.unwrap().path().join("src")))
        .sum();
    row("vendor", vendor, VENDOR_CEILING);
    assert!(over.is_empty(), "over the line budget: {over:?}");
}

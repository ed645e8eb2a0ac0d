//! The docs name source files, cargo targets and module paths; a PR that
//! deletes or moves one must fix the sentence that names it. Every such
//! name in README.md, DESIGN.md, EXPERIMENTS.md, `ci.sh` and the verify
//! skill has to resolve against the tree.

use std::path::{Path, PathBuf};

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ci.sh",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn docs() -> Vec<(&'static str, String)> {
    let read =
        |doc| std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
    DOCS.iter().map(|doc| (*doc, read(doc))).collect()
}

/// Maximal runs of characters `keep` accepts.
fn tokens(text: &str, keep: fn(char) -> bool) -> impl Iterator<Item = &str> {
    text.split(move |c| !keep(c)).filter(|t| !t.is_empty())
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Every `.rs` file of the workspace, as `/`-separated paths from the root.
fn rust_files() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() && path.file_name().is_some_and(|n| n != "target") {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut found = Vec::new();
    for top in ["crates", "examples", "src", "tests"] {
        walk(&root().join(top), &mut found);
    }
    let relative = |p: &PathBuf| {
        p.strip_prefix(root())
            .unwrap()
            .to_str()
            .unwrap()
            .replace('\\', "/")
    };
    found.iter().map(relative).collect()
}

/// `crates/net/src/frame.rs`, `net/src/frame.rs` and `frame.rs` all name
/// the same file: a written path must be the tail of a real one.
#[test]
fn source_paths_named_in_the_docs_exist() {
    let files = rust_files();
    let mut stale = Vec::new();
    for (doc, text) in docs() {
        for path in tokens(&text, |c| is_ident(c) || "-./".contains(c)) {
            let path = path.trim_start_matches("./");
            if !path.ends_with(".rs") || path.starts_with('.') {
                continue; // prose, or a glob's `.rs`
            }
            let tail = format!("/{path}");
            if !files.iter().any(|f| f == path || f.ends_with(&tail)) {
                stale.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(stale.is_empty(), "no such source file: {stale:#?}");
}

#[test]
fn cargo_targets_named_in_the_docs_exist() {
    let mut stale = Vec::new();
    for (doc, text) in docs() {
        let words: Vec<&str> = text.split_whitespace().collect();
        for pair in words.windows(2) {
            let name: String = pair[1].chars().take_while(|&c| is_ident(c)).collect();
            let candidates = match pair[0].trim_start_matches('`') {
                _ if name.is_empty() => continue, // a placeholder: `--example <name>`
                "--bin" => vec![
                    format!("crates/bench/src/bin/{name}.rs"),
                    format!("crates/bench/src/bin/{name}/main.rs"),
                ],
                "--bench" => vec![format!("crates/bench/benches/{name}.rs")],
                "--example" => vec![format!("examples/{name}.rs")],
                _ => continue,
            };
            if !candidates.iter().any(|c| root().join(c).is_file()) {
                stale.push(format!("{doc}: {} {name}", pair[0]));
            }
        }
    }
    assert!(stale.is_empty(), "no such cargo target: {stale:#?}");
}

/// `ada_mining::kmeans::lloyd::run`, `ada_health::engine::RunControl`:
/// leading segments must be module files of the named crate, and the
/// first segment that is not must be a word of the module it hangs off.
#[test]
fn module_paths_named_in_the_docs_resolve() {
    let facade = std::fs::read_to_string(root().join("src/lib.rs")).unwrap();
    // `pub use ada_core as engine;` -> ("engine", "core")
    let aliases: Vec<(&str, &str)> = facade
        .lines()
        .filter_map(|line| {
            line.strip_prefix("pub use ada_")?
                .strip_suffix(';')?
                .split_once(" as ")
        })
        .map(|(krate, alias)| (alias, krate))
        .collect();
    let mut stale = Vec::new();
    for (doc, text) in docs() {
        for written in tokens(&text, |c| is_ident(c) || c == ':') {
            if !written.contains("::") {
                continue; // a word, or a metric family such as `ada_net_requests_total`
            }
            let mut segments = written.split("::").filter(|s| !s.is_empty());
            let Some(krate) = segments.next().and_then(|s| s.strip_prefix("ada_")) else {
                continue; // not a path into this workspace
            };
            let krate = if krate == "health" {
                let Some(alias) = segments.next() else {
                    continue; // the facade itself
                };
                aliases.iter().find(|(a, _)| *a == alias).map(|(_, k)| *k)
            } else {
                Some(krate)
            };
            let resolves = krate.is_some_and(|krate| {
                let mut dir = root().join("crates").join(krate).join("src");
                let mut module = dir.join("lib.rs");
                for segment in segments {
                    let (file, nested) = (dir.join(format!("{segment}.rs")), dir.join(segment));
                    if file.is_file() {
                        module = file;
                    } else if nested.join("mod.rs").is_file() {
                        module = nested.join("mod.rs");
                    } else {
                        let source = std::fs::read_to_string(&module).unwrap_or_default();
                        return tokens(&source, is_ident).any(|word| word == segment);
                    }
                    dir = nested;
                }
                module.is_file()
            });
            if !resolves {
                stale.push(format!("{doc}: {written}"));
            }
        }
    }
    assert!(stale.is_empty(), "no such module path: {stale:#?}");
}

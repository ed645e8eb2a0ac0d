//! The docs name source files, cargo targets, module paths and tests; a
//! PR that deletes or moves one must fix the sentence that names it.
//! Every such name in README.md, DESIGN.md, EXPERIMENTS.md, `ci.sh` and
//! the verify skill has to resolve against the tree.

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

/// The extensions of the files the docs cite by path: sources, and the
/// scripts, manifests, notes and artifacts beside them.
const CITED: [&str; 6] = ["rs", "txt", "json", "md", "toml", "sh"];

/// Every file of the repository with a [`CITED`] extension, as
/// `/`-separated paths from the root (build outputs and `.git` aside).
fn cited_files() -> Vec<String> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir()
                && path
                    .file_name()
                    .is_some_and(|n| n != "target" && n != ".git")
            {
                walk(&path, out);
            } else if path
                .extension()
                .is_some_and(|e| CITED.iter().any(|c| e == *c))
            {
                out.push(path);
            }
        }
    }
    let mut found = Vec::new();
    walk(root(), &mut found);
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
/// the same file: a written path must be the tail of a real one. The
/// same holds for a cited `ci.sh`, `BENCH_kmeans.json` or `Cargo.toml`.
#[test]
fn source_paths_named_in_the_docs_exist() {
    let files = cited_files();
    let mut stale = Vec::new();
    for (doc, text) in docs() {
        for path in tokens(&text, |c| is_ident(c) || "-./".contains(c)) {
            let path = path.trim_start_matches("./");
            let cited = path
                .rsplit_once('.')
                .is_some_and(|(_, ext)| CITED.contains(&ext));
            if !cited || path.starts_with('.') {
                continue; // prose, or a glob's `.rs`
            }
            let tail = format!("/{path}");
            if !files.iter().any(|f| f == path || f.ends_with(&tail)) {
                stale.push(format!("{doc}: {path}"));
            }
        }
    }
    assert!(stale.is_empty(), "no such file: {stale:#?}");
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

/// `tests/experiment_shapes.rs::table1_shape_holds_at_reduced_scale`,
/// `ada-core::optimize::tests::quick_report_is_pinned`: a cited test must
/// be a `fn` of the file it names, given as a path (any tail of a real
/// one) or as a crate's module and its `tests`.
#[test]
fn test_names_cited_in_the_docs_exist() {
    let files = cited_files();
    let mut stale = Vec::new();
    for (doc, text) in docs() {
        for written in tokens(&text, |c| is_ident(c) || "-./:".contains(c)) {
            let (suffixes, rest) = if let Some((path, rest)) = written.split_once(".rs::") {
                (vec![format!("{path}.rs")], rest)
            } else if let Some((module, rest)) = written.split_once("::tests::") {
                let mut segments = module.split("::");
                let krate = segments.next().unwrap_or_default();
                let Some(krate) = krate.strip_prefix("ada-").or(krate.strip_prefix("ada_")) else {
                    continue; // not a module of this workspace
                };
                let module = segments.collect::<Vec<_>>().join("/");
                let dir = format!("crates/{krate}/src/");
                (
                    vec![format!("{dir}{module}.rs"), format!("{dir}{module}/mod.rs")],
                    rest,
                )
            } else {
                continue;
            };
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            if name.is_empty() {
                continue; // a placeholder: `<file>.rs::<test>`
            }
            let defined = files
                .iter()
                .filter(|f| {
                    suffixes
                        .iter()
                        .any(|s| *f == s || f.ends_with(&format!("/{s}")))
                })
                .any(|f| {
                    let source = std::fs::read_to_string(root().join(f)).unwrap();
                    let words: Vec<&str> = tokens(&source, is_ident).collect();
                    words.windows(2).any(|w| w == ["fn", name.as_str()])
                });
            if !defined {
                stale.push(format!("{doc}: {written}"));
            }
        }
    }
    assert!(stale.is_empty(), "no such test: {stale:#?}");
}

/// `§10`, `§13.2`: every section README, DESIGN, EXPERIMENTS, ROADMAP or
/// a crate's source cites must be a `## 10.` / `### 13.2` heading of
/// DESIGN.md. CHANGES.md is history and may cite sections since moved.
#[test]
fn section_references_resolve() {
    let design = std::fs::read_to_string(root().join("DESIGN.md")).unwrap();
    let is_number = |n: &str| !n.is_empty() && n.split('.').all(|p| p.parse::<u32>().is_ok());
    let headings: Vec<&str> = design
        .lines()
        .filter_map(|line| {
            let (level, rest) = match line.strip_prefix("### ") {
                Some(rest) => (3, rest),
                None => (2, line.strip_prefix("## ")?),
            };
            let number = rest.split_whitespace().next()?;
            let number = if level == 2 {
                number.strip_suffix('.').filter(|n| !n.contains('.'))?
            } else {
                number.split_once('.').map(|_| number)?
            };
            is_number(number).then_some(number)
        })
        .collect();
    let mut sources: Vec<(String, String)> =
        ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"]
            .iter()
            .map(|doc| {
                (
                    doc.to_string(),
                    std::fs::read_to_string(root().join(doc)).unwrap(),
                )
            })
            .collect();
    for file in cited_files() {
        if file.starts_with("crates/") && file.contains("/src/") && file.ends_with(".rs") {
            let text = std::fs::read_to_string(root().join(&file)).unwrap();
            sources.push((file, text));
        }
    }
    let mut stale = Vec::new();
    for (source, text) in &sources {
        for after in text.split('§').skip(1) {
            let end = after
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .unwrap_or(after.len());
            let cited = after[..end].trim_end_matches('.');
            if !cited.is_empty() && !headings.contains(&cited) {
                stale.push(format!("{source}: §{cited}"));
            }
        }
    }
    assert!(headings.contains(&"13.2"), "DESIGN.md headings not parsed");
    assert!(stale.is_empty(), "no such DESIGN.md section: {stale:#?}");
}

/// `ada_net_requests_total`, `ada_queue_wait_ns_count`, `ada_repl_*`:
/// every metric family, series or `ada_<subsystem>_` prefix the docs
/// name must be in a fleet node's combined exposition. Crate names
/// (`ada_obs`) and module paths (`ada_obs::metrics`) are not metrics.
#[test]
fn metric_names_in_the_docs_are_exposed() {
    use ada_health::fleet::FleetNode;
    use ada_health::kdb::SharedKdb;
    use ada_health::net::NetConfig;
    use ada_health::service::ServiceConfig;

    let node = FleetNode::start_primary(
        "docs",
        ServiceConfig::default(),
        SharedKdb::in_memory(),
        NetConfig::default(),
    )
    .unwrap();
    let exposition = node.exposition();
    node.shutdown();
    let series: Vec<&str> = exposition
        .lines()
        .filter_map(|line| match line.strip_prefix("# TYPE ") {
            Some(family) => family.split(' ').next(),
            None => line.split(['{', ' ']).next(),
        })
        .collect();
    let crates: Vec<String> = std::fs::read_dir(root().join("crates"))
        .unwrap()
        .map(|entry| format!("ada_{}", entry.unwrap().file_name().to_str().unwrap()))
        .collect();
    let mut stale = Vec::new();
    for (doc, text) in docs() {
        for written in tokens(&text, |c| is_ident(c) || c == ':') {
            let name = written.trim_matches(':');
            if !name.starts_with("ada_") || name.contains("::") || written.ends_with("::") {
                continue; // a word, or a module path
            }
            if name == "ada_health" || crates.iter().any(|c| c == name) {
                continue; // a crate
            }
            let family = ["_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix))
                .unwrap_or(name);
            let exposed = if name.ends_with('_') {
                series.iter().any(|s| s.starts_with(name))
            } else {
                series.contains(&name) || series.contains(&family)
            };
            if !exposed {
                stale.push(format!("{doc}: {name}"));
            }
        }
    }
    assert!(stale.is_empty(), "not in the exposition: {stale:#?}");
}

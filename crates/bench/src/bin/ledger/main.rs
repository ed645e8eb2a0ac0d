//! The perf ledger: a wire-level benchmark of the ADA-HEALTH fleet.
//!
//! `ledger` starts the production topology in-process — a primary
//! `FleetNode` (two workers, `DurabilityPolicy::Always`, file journal
//! under `target/ledger/`) shipping to a warm standby — and drives it
//! only over ADAN1 on loopback, from at most two client connections,
//! with inputs derived from `--seed`. One invocation runs one workload
//! and prints every metric by name with its unit; it exits non-zero if
//! a correctness oracle fails. See the README beside this file.
//!
//! ```text
//! ledger --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! ledger suite --seed <n> [--seconds <s>] [--repeats <r>] [--traced] --out <file>
//! ledger check <A.json> <B.json>
//! ```

mod check;
mod json;
mod layers;
mod plan;
mod probes;
mod spans;
mod stats;
mod topology;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use layers::Metrics;
use spans::{Span, SpanRecorder};
use workloads::{Observed, Phase, Workload};

/// A workload and why it exists (mirrored in `BENCHMARK.json`).
pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadInfo; 4] = [
    WorkloadInfo {
        name: "paper_submit",
        why: "compute-bound: paper-preset sessions over the paper-scale cohort; core, mining, metrics and vsm do nearly all the work",
    },
    WorkloadInfo {
        name: "small_mix",
        why: "overhead-bound: 8 small quick/signals sessions in flight; codec, queue, journal fsync rounds and replication dominate",
    },
    WorkloadInfo {
        name: "ingest_feed",
        why: "stream-bound bulk writes: 3x-cohort feeds as 512-record Ingest batches, back to back, with StreamQuery reads beside them",
    },
    WorkloadInfo {
        name: "read_under_write",
        why: "read path against a live writer: seeded read mix over 400 preloaded sessions while quick sessions arrive at 10/s",
    },
];

/// Run length when `--seconds` is not given (= `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Where journals, probe stores and trace files go (never `/tmp`).
const SCRATCH: &str = "target/ledger";

/// The result of one invocation, as the last stdout line carries it.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, (value, unit))| {
                            (
                                name.clone(),
                                Json::obj([
                                    ("value", Json::Num(*value)),
                                    ("unit", Json::Str((*unit).to_owned())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The environment a result was taken in: core count, filesystem under
/// the journals, commit.
fn environment() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let _ = std::fs::create_dir_all(SCRATCH);
    let scratch = std::fs::canonicalize(SCRATCH).unwrap_or_else(|_| PathBuf::from(SCRATCH));
    let fs_type = std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|line| {
                    let mut fields = line.split_whitespace();
                    let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
                    scratch
                        .starts_with(point)
                        .then(|| (point.len(), kind.to_owned()))
                })
                .max()
                .map(|(_, kind)| kind)
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference)).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".into(), |hash| hash.trim().to_owned());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("fs_type", Json::Str(fs_type)),
        ("commit", Json::Str(commit)),
    ])
}

fn phase(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Phase {
    let mode = if traced { "traced" } else { "plain" };
    Phase {
        workload,
        seed,
        seconds,
        traced,
        dir: Path::new(SCRATCH).join(format!("run-{}-{mode}", std::process::id())),
    }
}

/// Fails unless `metrics` is exactly what `section` of `BENCHMARK.json`
/// declares, name by name and unit by unit.
fn verify_declared(section: &str, metrics: &Metrics) -> Result<(), String> {
    let mut declared = check::declared(section)?;
    declared.sort();
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, (_, unit))| (name.clone(), (*unit).to_owned()))
        .collect();
    if declared == emitted {
        return Ok(());
    }
    let only = |xs: &[(String, String)], ys: &[(String, String)]| {
        xs.iter()
            .filter(|x| !ys.contains(x))
            .map(|(n, u)| format!("{n} [{u}]"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    Err(format!(
        "BENCHMARK.json {section} and the ledger disagree; only declared: {}; only emitted: {}",
        only(&declared, &emitted),
        only(&emitted, &declared)
    ))
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, (value, unit)) in metrics {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
}

fn print_oracle(obs: &Observed) {
    let tally = &obs.window.tally;
    println!(
        "  operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    if obs.oracle_failures.is_empty() {
        println!("  oracle: every check passed");
    }
    for failure in &obs.oracle_failures {
        println!("  ORACLE FAILED: {failure}");
    }
}

/// The untraced run: end-to-end metrics only, tracing off.
fn run_plain(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let obs = workloads::run_phase(&phase(workload, seed, seconds, false))?;
    println!(
        "{} seed {seed}: window {:.2} s after {:.2} s of set-up",
        workload.name(),
        obs.wall_s,
        obs.setup_s
    );
    let tally = &obs.window.tally;
    let named = |name: &str, value, unit, samples| layers::Named {
        name: name.to_owned(),
        value,
        unit,
        samples,
    };
    let mut lines = vec![named("setup_s", obs.setup_s, "s", 1)];
    lines.extend(layers::named(&obs));
    lines.push(named(
        "failed_ratio",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.attempted as usize,
    ));
    lines.push(named("peak_rss_mb", obs.peak_rss_mb, "MB", 1));
    for line in &lines {
        println!(
            "  {:<40} {:>16.4} {:<5} n = {}",
            line.name, line.value, line.unit, line.samples
        );
    }
    print_oracle(&obs);
    let metrics = layers::end_to_end(&obs);
    print_metrics("end-to-end:", &metrics);
    verify_declared("end_to_end", &metrics)?;
    Ok(RunResult {
        correct: obs.passed(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

/// Client-side spans of the streams a window fed.
fn stream_spans(obs: &Observed, recorder: &mut SpanRecorder) {
    for sample in &obs.window.streams {
        let [fed, seal_sent, done] = sample.at.map(|at| recorder.ns(at));
        let span = |name, parent, start, end| Span::new(name, &sample.name, parent, start, end);
        recorder.extend(vec![
            span("stream", None, fed, done),
            span("net.ingest", Some(0), fed, seal_sent),
            span("net.stream_seal", Some(0), seal_sent, done),
        ]);
    }
}

/// The traced run: half the window untraced (the overhead baseline),
/// half at `sample_rate = 1.0`, then the probes. Per-layer metrics only;
/// end-to-end metrics are never taken from here.
fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut recorder = SpanRecorder::new();
    let plain = workloads::run_phase(&phase(workload, seed, seconds / 2.0, false))?;
    let traced = workloads::run_phase(&phase(workload, seed, seconds / 2.0, true))?;
    println!(
        "{} seed {seed}, traced: {:.2} s untraced then {:.2} s at sample_rate 1.0",
        workload.name(),
        plain.wall_s,
        traced.wall_s
    );
    let view = layers::trace_view(&traced.window.sessions, &traced.traces, &mut recorder);
    stream_spans(&traced, &mut recorder);
    let mut metrics = layers::per_layer(&traced, &view);
    let scratch = Path::new(SCRATCH).join(format!("probe-{}", std::process::id()));
    metrics.extend(probes::run(seed, &scratch, &mut recorder)?);
    metrics.insert(
        "obs.trace_overhead_ratio".into(),
        (
            layers::overhead_basis(&traced) / layers::overhead_basis(&plain),
            "ratio",
        ),
    );
    for krate in probes::CRATES {
        let lines = probes::src_lines(krate)
            .ok_or_else(|| format!("crates/{krate}/src not found: run from the repository root"))?;
        metrics.insert(format!("{krate}.src_lines"), (lines as f64, "count"));
    }

    println!(
        "  layer self times over {} traced sessions:",
        view.unattributed_ms.len()
    );
    let total = view.session_total_ms.max(f64::MIN_POSITIVE);
    for (layer, ms) in &view.layer_self_ms {
        println!(
            "    {layer:<14} {:>7.3} % of client session time",
            ms / total * 100.0
        );
    }
    print_oracle(&plain);
    print_oracle(&traced);
    print_metrics("per-layer:", &metrics);
    verify_declared("per_layer", &metrics)?;

    let trace_file = Path::new(SCRATCH).join(format!("trace-{}.json", workload.name()));
    std::fs::write(&trace_file, spans::to_json(recorder.spans()).render())
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    println!(
        "  {} spans written to {}",
        recorder.spans().len(),
        trace_file.display()
    );

    let (attempted, failed) = [&plain, &traced].iter().fold((0, 0), |(a, f), obs| {
        (a + obs.window.tally.attempted, f + obs.window.tally.failed)
    });
    Ok(RunResult {
        correct: plain.passed() && traced.passed(),
        attempted,
        failed,
        metrics,
    })
}

/// `--name value` pairs and bare flags after the subcommand.
struct Options(Vec<String>);

impl Options {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name} takes a number, got {text:?}")),
        }
    }
}

const USAGE: &str = "usage:
  ledger --workload <paper_submit|small_mix|ingest_feed|read_under_write> --seed <n> [--seconds <s>] [--trace 0|1 | --traced]
  ledger suite --seed <n> [--seconds <s>] [--repeats <r>] [--traced] --out <file>
  ledger check <A.json> <B.json>";

fn dispatch(args: Vec<String>) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("check") => match &args[1..] {
            [a, b] => check::check(Path::new(a), Path::new(b)),
            _ => Err(USAGE.into()),
        },
        Some("suite") => {
            let options = Options(args[1..].to_vec());
            check::suite(
                options.number("--seed", 1u64)?,
                options.number("--seconds", DEFAULT_SECONDS)?,
                options.number("--repeats", 1usize)?,
                options.flag("--traced"),
                Path::new(options.value("--out").ok_or(USAGE)?),
                &environment(),
            )
        }
        _ => {
            let options = Options(args);
            let name = options.value("--workload").ok_or(USAGE)?;
            let workload = Workload::parse(name)
                .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
            let seed = options.number("--seed", 1u64)?;
            let seconds = options.number("--seconds", DEFAULT_SECONDS)?;
            if !(seconds.is_finite() && seconds > 0.0) {
                return Err("--seconds must be positive".into());
            }
            let traced = options.flag("--traced") || options.number("--trace", 0u8)? != 0;
            println!("environment: {}", environment().render());
            let result = if traced {
                run_traced(workload, seed, seconds)?
            } else {
                run_plain(workload, seed, seconds)?
            };
            println!("{}", result.to_json().render());
            Ok(result.correct)
        }
    }
}

fn main() -> ExitCode {
    match dispatch(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root, five levels up.
    const BENCHMARK: &str = include_str!("../../../../../BENCHMARK.json");

    fn declared(part: &str) -> Vec<(String, String)> {
        let spec = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        check::declared_in(&spec, part).expect("the part is declared")
    }

    #[test]
    fn benchmark_json_names_the_workloads_the_ledger_runs() {
        let spec = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, WORKLOADS.map(|w| w.name));
        for workload in WORKLOADS {
            assert!(Workload::parse(workload.name).is_some());
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'));
        }
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_ledger_emits() {
        let mut end_to_end = declared("end_to_end");
        end_to_end.sort();
        assert_eq!(
            end_to_end,
            [
                ("latency_p50_ms", "ms"),
                ("latency_tail_ms", "ms"),
                ("peak_rss_mb", "MB"),
                ("secondary_p50_ms", "ms"),
                ("setup_s", "s"),
                ("throughput_per_s", "1/s"),
            ]
            .map(|(n, u)| (n.to_owned(), u.to_owned()))
        );
        let per_layer = declared("per_layer");
        assert!(per_layer.len() <= 128);
        for krate in probes::CRATES {
            assert!(per_layer.contains(&(format!("{krate}.src_lines"), "count".to_owned())));
        }
    }

    /// The lines of table `[name]` in a manifest, comments and blank
    /// lines dropped.
    fn table<'a>(manifest: &'a str, name: &str) -> Vec<&'a str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|line| *line != format!("[{name}]"))
            .skip(1)
            .take_while(|line| !line.starts_with('['))
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .collect()
    }

    /// `BENCHMARK.json`'s command builds this directory as a package of
    /// its own (`Cargo.toml` here); `ci.sh` builds it as a bin of
    /// `ada-bench`. Both must build the same thing: the release profile
    /// of the workspace root and the crates `ada-bench` depends on.
    #[test]
    fn the_standalone_manifest_follows_the_workspace() {
        let own = include_str!("Cargo.toml");
        let root = include_str!("../../../../../Cargo.toml");
        let bench = include_str!("../../../Cargo.toml");
        assert_eq!(
            table(own, "profile.release"),
            table(root, "profile.release")
        );
        let crates = |manifest| -> Vec<String> {
            table(manifest, "dependencies")
                .iter()
                .filter_map(|line| line.split(['.', ' ', '=']).next())
                .filter(|name| name.starts_with("ada-"))
                .map(str::to_owned)
                .collect()
        };
        assert_eq!(crates(own), crates(bench));
    }
}

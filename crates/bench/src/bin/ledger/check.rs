//! `ledger suite` runs every workload, each in its own process, and
//! records the results with their environment; `ledger check` applies
//! each end-to-end metric's bound from `BENCHMARK.json` to two such
//! result files.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use crate::WORKLOADS;

/// The benchmark's declaration, read from the working directory (the
/// ledger runs from the repository root).
const BENCHMARK_FILE: &str = "BENCHMARK.json";

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The metrics `section` of the declaration `spec` lists.
fn section<'a>(spec: &'a Json, section: &str) -> Result<&'a [Json], String> {
    spec.get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{BENCHMARK_FILE} has no {section} array"))
}

/// `(name, unit)` of every metric `part` of the declaration `spec` lists.
pub fn declared_in(spec: &Json, part: &str) -> Result<Vec<(String, String)>, String> {
    Ok(section(spec, part)?
        .iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Json::as_str).unwrap_or("").to_owned();
            (text("name"), text("unit"))
        })
        .collect())
}

/// [`declared_in`] the `BENCHMARK.json` of the working directory.
pub fn declared(part: &str) -> Result<Vec<(String, String)>, String> {
    declared_in(&read_json(Path::new(BENCHMARK_FILE))?, part)
}

/// Runs one workload in a child process of this same binary and parses
/// the result line it ends with. The child's report is passed through.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: u8) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing ({})", output.status))?;
    Json::parse(last).map_err(|e| format!("{workload}: last line is not a result ({e})"))
}

/// Runs the four workloads `repeats` times each (plus one traced run
/// each with `traced`), writes `out`, and reports whether every run was
/// correct.
pub fn suite(
    seed: u64,
    seconds: f64,
    repeats: usize,
    traced: bool,
    out: &Path,
    environment: &Json,
) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let traces = std::iter::repeat_n(0u8, repeats).chain(traced.then_some(1));
        for trace in traces {
            let result = run_child(workload.name, seed, seconds, trace)?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            runs.push(Json::obj([
                ("workload", Json::Str(workload.name.to_owned())),
                ("trace", Json::Num(f64::from(trace))),
                ("result", result),
            ]));
        }
    }
    let file = Json::obj([
        ("environment", environment.clone()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(out, file.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(all_correct)
}

/// The results of the untraced runs of `workload` in a result file.
fn untraced<'a>(file: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    file.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(move |run| {
            run.get("workload").and_then(Json::as_str) == Some(workload)
                && run.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|run| run.get("result"))
}

/// Every untraced value of `metric` on `workload` in a result file.
fn values(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    untraced(file, workload)
        .filter_map(|result| result.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Operations that failed across the untraced runs of `workload`.
fn failed_ops(file: &Json, workload: &str) -> f64 {
    untraced(file, workload)
        .filter_map(|result| result.get("failed").and_then(Json::as_f64))
        .sum()
}

/// Spread between repeats as a share of the median: the quartile
/// distance from four repeats up, the full range below that.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() >= 4 {
        return quartile_spread(values);
    }
    let mid = median(values).filter(|m| *m != 0.0)?;
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    (values.len() >= 2).then(|| (hi - lo) / mid.abs())
}

/// The verdict on one (workload, metric): `b` against `a` under `bound`.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> &'static str {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return "missing";
    };
    let worse = |x: f64, than: f64| if lower_is_better { x > than } else { x < than };
    let noisy = [a, b].iter().filter_map(|v| spread(v)).any(|s| s > bound);
    // Too noisy to call — unless every run of b beats every run of a.
    if noisy && !b.iter().all(|vb| a.iter().all(|va| worse(*va, *vb))) {
        return "unresolved";
    }
    let worse_by = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

/// Prints one row per (workload, end-to-end metric) for result files
/// `a` (the baseline) and `b`; `Ok(false)` when any row regressed.
pub fn check(a: &Path, b: &Path) -> Result<bool, String> {
    let spec = read_json(Path::new(BENCHMARK_FILE))?;
    let (file_a, file_b) = (read_json(a)?, read_json(b)?);
    let metrics = section(&spec, "end_to_end")?;
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "bound"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        for metric in metrics {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let lower = metric.get("better").and_then(Json::as_str) != Some("higher");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let va = values(&file_a, workload.name, name);
            let vb = values(&file_b, workload.name, name);
            let outcome = verdict(&va, &vb, lower, bound);
            clean &= outcome != "regressed" && outcome != "missing";
            let show = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.4}"));
            println!(
                "{:<18} {:<20} {:>14} {:>14} {:>8} {:>8} {:>7}  {outcome}",
                workload.name,
                name,
                show(median(&va)),
                show(median(&vb)),
                show(spread(&va)),
                show(spread(&vb)),
                bound
            );
        }
        // failed_ratio has an absolute bound of zero.
        let failed = failed_ops(&file_a, workload.name) + failed_ops(&file_b, workload.name);
        let outcome = if failed == 0.0 { "ok" } else { "regressed" };
        clean &= failed == 0.0;
        println!(
            "{:<18} {:<20} {:>14} {:>14} {:>8} {:>8} {:>7}  {outcome}",
            workload.name, "failed_ratio", "-", "-", "-", "-", 0
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_applies_the_bound_in_the_metrics_direction() {
        let base = [100.0, 101.0, 99.0, 100.5];
        // Lower is better: 5 % slower is within a 10 % bound, 20 % is not.
        assert_eq!(
            verdict(&base, &[105.0, 104.0, 106.0, 105.5], true, 0.10),
            "ok"
        );
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.0], true, 0.10),
            "regressed"
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.0], false, 0.10),
            "ok"
        );
        assert_eq!(
            verdict(&base, &[80.0, 81.0, 79.0, 80.0], false, 0.10),
            "regressed"
        );
        assert_eq!(verdict(&base, &[], true, 0.10), "missing");
    }

    #[test]
    fn verdict_is_unresolved_when_repeats_spread_wider_than_the_bound() {
        let noisy = [100.0, 140.0, 80.0, 120.0];
        assert_eq!(
            verdict(&noisy, &[101.0, 100.0, 99.0, 100.0], true, 0.10),
            "unresolved"
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(verdict(&noisy, &[70.0, 71.0, 69.0, 70.0], true, 0.10), "ok");
        // Two repeats: the range stands in for the quartile distance.
        assert_eq!(
            verdict(&[100.0, 130.0], &[100.0, 101.0], true, 0.10),
            "unresolved"
        );
    }
}

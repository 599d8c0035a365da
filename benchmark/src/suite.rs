//! The whole suite in one go, and the comparison of two suite summaries.
//!
//! `suite` runs every workload once per seed in a fresh child process of
//! this program (untraced for the end-to-end metrics; traced, for the first
//! few seeds, for the per-layer ones) and writes per-metric values, median
//! and quartiles to one JSON file. `compare` puts two such files side by
//! side and judges each (workload, end-to-end metric) pair against the
//! bound BENCHMARK.json fixes for the metric.

use crate::json::Json;
use crate::stats::quartiles;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::Command;

/// Seeds of a full suite run: ten, starting at the default seed.
const SUITE_SEEDS: u64 = 10;
/// How many of a suite's seeds also get a traced run.
const TRACE_SEEDS: usize = 3;
/// Both subcommands run from the repository root, as the benchmark does.
const SPEC_PATH: &str = "BENCHMARK.json";
/// Summaries are indented down to one metric per line.
const SUMMARY_DEPTH: usize = 4;

/// Values of one metric over the runs of one workload.
#[derive(Debug, Clone, Default, PartialEq)]
struct Series {
    unit: String,
    values: Vec<f64>,
}

/// Run one workload in a child process and return its result line.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let what = format!("{} seed {seed} trace {}", workload.name(), u8::from(trace));
    if !output.status.success() {
        return Err(format!("{what}: exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!("{what}: no output"))?;
    let result = Json::parse(line).map_err(|e| format!("{what}: result line: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("{what}: not correct"));
    }
    Ok(result)
}

fn collect(into: &mut BTreeMap<String, Series>, result: &Json) {
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default();
    for (name, m) in metrics {
        let series = into.entry(name.clone()).or_default();
        series.unit = m
            .get("unit")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        series.values.extend(m.get("value").and_then(Json::as_f64));
    }
}

fn series_json(kind: &str, s: &Series) -> Json {
    let (q1, median, q3) = quartiles(&s.values);
    Json::obj([
        ("kind", Json::Str(kind.into())),
        ("unit", Json::Str(s.unit.clone())),
        ("median", Json::Num(median)),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        (
            "values",
            Json::Arr(s.values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

pub fn run_suite(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let smoke = flags.contains_key("smoke");
    let spec = read_json(SPEC_PATH)?;
    let seconds = if smoke {
        1.0
    } else {
        spec.get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("spec: no run_seconds")?
    };
    let seeds: Vec<u64> = match flags.get("seeds") {
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse::<u64>().map_err(|_| format!("bad seed {s}")))
            .collect::<Result<_, _>>()?,
        None if smoke => vec![crate::DEFAULT_SEED],
        None => (crate::DEFAULT_SEED..crate::DEFAULT_SEED + SUITE_SEEDS).collect(),
    };
    let out_path = flags.get("out").map_or_else(
        || {
            std::path::Path::new(crate::BENCH_HOME)
                .join("out")
                .join(if smoke { "smoke.json" } else { "suite.json" })
        },
        std::path::PathBuf::from,
    );

    let mut workloads = Vec::new();
    for workload in Workload::ALL {
        let mut end_to_end = BTreeMap::new();
        let mut per_layer = BTreeMap::new();
        for (i, &seed) in seeds.iter().enumerate() {
            collect(&mut end_to_end, &run_child(workload, seed, seconds, false)?);
            if i < TRACE_SEEDS {
                collect(&mut per_layer, &run_child(workload, seed, seconds, true)?);
            }
            eprintln!("suite: {} seed {seed} done", workload.name());
        }
        let metrics = end_to_end
            .iter()
            .map(|(n, s)| (n.clone(), series_json("end_to_end", s)))
            .chain(
                per_layer
                    .iter()
                    .map(|(n, s)| (n.clone(), series_json("per_layer", s))),
            );
        workloads.push((
            workload.name(),
            Json::obj([("metrics", Json::obj(metrics))]),
        ));
    }
    let summary = Json::obj([
        ("schema", Json::Num(1.0)),
        ("seconds", Json::Num(seconds)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
        ("workloads", Json::obj(workloads)),
        ("claim", Json::Null),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out_path, summary.render_pretty(SUMMARY_DEPTH))
        .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    println!("suite: wrote {}", out_path.display());
    Ok(())
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound, so a difference of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// Judge `b` against `a` for one metric. `worse_by` is the relative change
/// of the median in the bad direction.
fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, f64, Verdict) {
    let ((a_q1, a_med, a_q3), (b_q1, b_med, b_q3)) = (quartiles(a), quartiles(b));
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = sign * (b_med - a_med) / a_med;
    let spread = ((a_q3 - a_q1) / a_med).max((b_q3 - b_q1) / b_med);
    let b_always_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let verdict = if spread > bound && !b_always_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, spread, verdict)
}

fn values_of(summary: &Json, workload: &str, metric: &str) -> Vec<f64> {
    summary
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .map(|vals| vals.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Workload names of a suite summary, in file order.
fn workloads_of(summary: &Json) -> Vec<&str> {
    summary
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .map(|(name, _)| name.as_str())
        .collect()
}

/// Print one row per (workload, end-to-end metric); `Err` if any is worse.
/// A workload the spec does not list is shown with its numbers but not
/// judged.
pub fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let (a, b, spec) = (
        read_json(a_path)?,
        read_json(b_path)?,
        read_json(SPEC_PATH)?,
    );
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec: no end_to_end")?;
    let gated: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("spec: no workloads")?
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let ungated = workloads_of(&a)
        .into_iter()
        .filter(|w| !gated.contains(w) && workloads_of(&b).contains(w));
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a.median", "b.median", "worse_by", "spread", "bound"
    );
    let mut worse = 0;
    for (workload, judged) in gated
        .iter()
        .map(|&w| (w, true))
        .chain(ungated.map(|w| (w, false)))
    {
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("spec: metric without name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("spec: metric without bound")?;
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let (va, vb) = (values_of(&a, workload, name), values_of(&b, workload, name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{name}: missing from one of the files"));
            }
            let (worse_by, spread, verdict) = judge(&va, &vb, higher, bound);
            worse += usize::from(judged && verdict == Verdict::Worse);
            println!(
                "{workload:<12} {name:<16} {:>14.4} {:>14.4} {:>+8.1}% {:>7.1}% {:>6.1}%  {}",
                crate::stats::median(&va),
                crate::stats::median(&vb),
                worse_by * 100.0,
                spread * 100.0,
                bound * 100.0,
                match (judged, verdict) {
                    (false, _) => "ungated",
                    (true, Verdict::Ok) => "ok",
                    (true, Verdict::Worse) => "worse",
                    (true, Verdict::Unresolved) => "unresolved",
                }
            );
        }
    }
    if worse > 0 {
        return Err(format!("{worse} metric(s) worse than the bound allows"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.0];
        // Lower throughput by 20 % with a 10 % bound: worse.
        let (by, _, v) = judge(&a, &[80.0, 81.0, 79.0, 80.0], true, 0.10);
        assert!((by - 0.2).abs() < 1e-9);
        assert_eq!(v, Verdict::Worse);
        // The same numbers as a latency are an improvement.
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0, 80.0], false, 0.10).2,
            Verdict::Ok
        );
        // Within the bound.
        assert_eq!(
            judge(&a, &[95.0, 96.0, 94.0, 95.0], true, 0.10).2,
            Verdict::Ok
        );
        // Spread wider than the bound and the sets overlap: unresolved.
        assert_eq!(
            judge(
                &[100.0, 140.0, 70.0, 100.0],
                &[90.0, 130.0, 60.0, 95.0],
                true,
                0.10
            )
            .2,
            Verdict::Unresolved
        );
        // Wide spread, but every run of b beats every run of a.
        assert_eq!(
            judge(
                &[100.0, 140.0, 70.0, 100.0],
                &[200.0, 300.0, 150.0, 250.0],
                true,
                0.10
            )
            .2,
            Verdict::Ok
        );
    }

    #[test]
    fn summary_layout_is_json_and_ends_with_the_claim() {
        let series = Series {
            unit: "1/s".into(),
            values: vec![1.0, 2.0, 3.0],
        };
        let summary = Json::obj([
            ("schema", Json::Num(1.0)),
            (
                "workloads",
                Json::obj([(
                    "walk_read",
                    Json::obj([(
                        "metrics",
                        Json::obj([("throughput", series_json("end_to_end", &series))]),
                    )]),
                )]),
            ),
            ("claim", Json::Null),
        ]);
        let text = summary.render_pretty(SUMMARY_DEPTH);
        assert!(text.trim_end().ends_with("\"claim\": null\n}"));
        assert!(
            text.contains("\n        \"throughput\": {\"kind\":"),
            "one metric per line"
        );
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, summary);
        assert_eq!(
            values_of(&parsed, "walk_read", "throughput"),
            vec![1.0, 2.0, 3.0]
        );
    }
}

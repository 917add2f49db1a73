//! The whole suite: every workload in a fresh child process, the derived
//! plane-overhead rows, the combined JSON report, and `repeat`'s
//! run-to-run spread table judged against `BENCHMARK.json`'s bounds.

use crate::report::{Metric, WorkloadReport};
use crate::stats::{iqr_share, median, quartiles, sorted};
use crate::sys::{self, Host};
use crate::trace::Tracer;
use crate::workload::child;
use crate::{Args, WORKLOADS};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Stdio;

/// Each layer's share of the traced run's busy time (sum of self times).
pub fn layer_shares(tracer: &Tracer) -> Vec<Metric> {
    let by_layer = tracer.layer_self_us();
    let busy_us: f64 = by_layer.values().sum();
    let mut rows = vec![Metric::new("busy_ms", busy_us / 1e3, "ms", 1)];
    rows.extend(by_layer.iter().map(|(layer, us)| {
        Metric::new(
            format!("share.{layer}"),
            us / busy_us.max(f64::MIN_POSITIVE),
            "frac",
            1,
        )
    }));
    rows
}

fn report_path(workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { "-traced" } else { "" };
    sys::out_dir().join(format!("report-{workload}{suffix}.json"))
}

/// Write a workload's full report to `benchmark/out/` (where the suite
/// parent picks it up) and to `--json FILE` when given.
pub fn write_report(report: &WorkloadReport, json: Option<&Path>) {
    let text = serde_json::to_string_pretty(report).expect("reports always serialize");
    let own = report_path(&report.workload, report.traced);
    for path in std::iter::once(own.as_path()).chain(json) {
        std::fs::write(path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// Run one workload in a fresh child of this executable and read back
/// its report.
fn run_child(args: &Args, workload: &str, seed: u64, traced: bool) -> Option<WorkloadReport> {
    let path = report_path(workload, traced);
    // Never mistake an earlier run's file for this child's.
    let _ = std::fs::remove_file(&path);
    let status = child("run", workload, seed, args.smoke)
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::null())
        .status()
        .expect("spawn workload child");
    let report: WorkloadReport = serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()?;
    // Exit status and report must agree: success means every check passed.
    (status.success() == report.correct).then_some(report)
}

fn find<'a>(
    reports: &'a [WorkloadReport],
    workload: &str,
    traced: bool,
) -> Option<&'a WorkloadReport> {
    reports
        .iter()
        .find(|r| r.workload == workload && r.traced == traced)
}

fn metric(rows: &[Metric], name: &str) -> Option<f64> {
    rows.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Plane-overhead ratios, each with its base.
fn derived(reports: &[WorkloadReport]) -> Vec<String> {
    let e2e = |w: &str, m: &str| find(reports, w, false).and_then(|r| metric(&r.end_to_end, m));
    let mut rows = Vec::new();
    if let (Some(serve), Some(direct)) = (
        e2e("figures_serve", "jobs_per_s"),
        e2e("figures_direct", "jobs_per_s"),
    ) {
        rows.push(format!(
            "serve-plane throughput ratio: figures_serve {serve:.2} jobs/s / figures_direct \
             {direct:.2} jobs/s (base) = {:.3}",
            serve / direct
        ));
    }
    let admit_us = find(reports, "serve_cached", true)
        .and_then(|r| metric(&r.per_layer, "serve.admit_hit_us"));
    if let (Some(phase_a), Some(admit_us)) = (e2e("serve_cached", "jobs_per_s"), admit_us) {
        let in_process = 1e6 / admit_us;
        rows.push(format!(
            "net-plane throughput ratio: serve_cached phase A {phase_a:.0} jobs/s / in-process \
             admit {in_process:.0} jobs/s (base, 1/serve.admit_hit_us) = {:.4}",
            phase_a / in_process
        ));
    }
    rows
}

/// One pass over all five workloads (plus traced runs when asked).
fn run_suite(args: &Args, seed: u64) -> Vec<WorkloadReport> {
    let mut reports = Vec::new();
    for name in WORKLOADS {
        for traced in [false, true] {
            if traced && !args.traced {
                continue;
            }
            // The child prints its own table on the inherited stderr.
            match run_child(args, name, seed, traced) {
                Some(r) => reports.push(r),
                None => eprintln!("== {name}: child produced no report =="),
            }
        }
    }
    reports
}

fn suite_value(args: &Args, reports: &[WorkloadReport], extra: Vec<(String, Value)>) -> Value {
    let mut entries = vec![
        (
            "host".into(),
            serde_json::to_value(&Host::probe()).expect("host serializes"),
        ),
        ("seed".into(), Value::U64(args.seed)),
        ("T".into(), Value::U64(sys::parallelism() as u64)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("smoke".into(), Value::Bool(args.smoke)),
        // This benchmark defines the baseline; it claims no gain.
        ("claim".into(), Value::Null),
        (
            "derived".into(),
            Value::Seq(derived(reports).into_iter().map(Value::Str).collect()),
        ),
    ];
    entries.extend(extra);
    entries.push((
        "workloads".into(),
        Value::Seq(
            reports
                .iter()
                .map(|r| serde_json::to_value(r).expect("reports serialize"))
                .collect(),
        ),
    ));
    Value::Map(entries)
}

fn write_json(path: Option<&Path>, value: &Value) {
    if let Some(path) = path {
        let text = serde_json::to_string_pretty(value).expect("values serialize");
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// `run` without `--workload`.
pub fn run_all(args: &Args) -> bool {
    let reports = run_suite(args, args.seed);
    for row in derived(&reports) {
        eprintln!("{row}");
    }
    write_json(
        args.json.as_deref(),
        &suite_value(args, &reports, Vec::new()),
    );
    let expected = WORKLOADS.len() * if args.traced { 2 } else { 1 };
    reports.len() == expected && reports.iter().all(|r| r.correct)
}

/// Regression bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64)> {
    let path = sys::repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let v: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Value::Seq(rows) = v.get_field("end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    rows.iter()
        .map(|r| {
            let (Value::Str(name), Value::F64(bound)) = (r.get_field("name"), r.get_field("bound"))
            else {
                panic!("BENCHMARK.json: malformed end_to_end row");
            };
            (name.clone(), *bound)
        })
        .collect()
}

/// `repeat --runs N`: the suite N times on seeds S, S+1, …; per
/// (metric, workload) the median, quartiles, (max−min)/median and the
/// interquartile share of the median — the spread the PR driver judges —
/// which must stay within the metric's bound.
pub fn repeat(args: &Args) -> bool {
    let untraced = Args {
        traced: false,
        ..args.clone()
    };
    let runs: Vec<Vec<WorkloadReport>> = (0..args.runs as u64)
        .map(|i| run_suite(&untraced, args.seed + i))
        .collect();
    let complete = runs
        .iter()
        .all(|r| r.len() == WORKLOADS.len() && r.iter().all(|w| w.correct));
    // Every bounded metric, then the recorded-but-unbounded sixth.
    let mut bounds: Vec<(String, Option<f64>)> =
        bounds().into_iter().map(|(n, b)| (n, Some(b))).collect();
    bounds.push(("peak_rss_mib".into(), None));
    let mut ok = complete;
    let mut table = Vec::new();
    eprintln!(
        "\n{:<16} {:<16} {:>12} {:>12} {:>12} {:>9} {:>9} {:>6}",
        "workload", "metric", "median", "q1", "q3", "range/med", "iqr/med", "bound"
    );
    for workload in WORKLOADS {
        for (name, bound) in &bounds {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| find(r, workload, false))
                .filter_map(|r| metric(&r.end_to_end, name))
                .collect();
            if values.len() < 2 {
                continue;
            }
            let s = sorted(values.clone());
            let med = median(&values);
            let [q1, _, q3] = quartiles(&values);
            let range = (s[s.len() - 1] - s[0]) / med;
            let iqr = iqr_share(&values);
            // Set-up time is reported and drift-checked, but its spread
            // is not gated (cold process start on a shared host).
            let within = bound.is_none_or(|b| iqr <= b) || name == "setup_s";
            ok &= within;
            eprintln!(
                "{workload:<16} {name:<16} {med:>12.4} {q1:>12.4} {q3:>12.4} {range:>9.4} {iqr:>9.4} {:>6}{}",
                bound.map_or("-".to_string(), |b| format!("{b:.2}")),
                if within { "" } else { "  EXCEEDS" }
            );
            table.push(Value::Map(vec![
                ("workload".into(), Value::Str(workload.into())),
                ("metric".into(), Value::Str(name.clone())),
                ("n".into(), Value::U64(values.len() as u64)),
                ("median".into(), Value::F64(med)),
                ("q1".into(), Value::F64(q1)),
                ("q3".into(), Value::F64(q3)),
                ("range_over_median".into(), Value::F64(range)),
                ("iqr_over_median".into(), Value::F64(iqr)),
                ("bound".into(), bound.map_or(Value::Null, Value::F64)),
                (
                    "values".into(),
                    Value::Seq(values.into_iter().map(Value::F64).collect()),
                ),
            ]));
        }
    }
    let last = runs.last().map(Vec::as_slice).unwrap_or_default();
    write_json(
        args.json.as_deref(),
        &suite_value(
            args,
            last,
            vec![
                ("runs".into(), Value::U64(args.runs as u64)),
                ("spread".into(), Value::Seq(table)),
            ],
        ),
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probes;
    use crate::report::BOUNDED;

    fn strings(v: &Value, list: &str, key: &str) -> Vec<String> {
        let Value::Seq(rows) = v.get_field(list) else {
            panic!("BENCHMARK.json has no {list} list");
        };
        rows.iter()
            .map(|r| match r.get_field(key) {
                Value::Str(s) => s.clone(),
                other => panic!("{list}.{key}: expected a string, got {}", other.kind()),
            })
            .collect()
    }

    /// `BENCHMARK.json` is written by hand; the program must agree with it
    /// on every workload and metric name, unit and direction.
    #[test]
    fn benchmark_json_matches_the_program() {
        let text = std::fs::read_to_string(sys::repo_root().join("BENCHMARK.json")).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            strings(&v, "workloads", "name"),
            WORKLOADS.map(String::from)
        );
        assert_eq!(strings(&v, "end_to_end", "name"), BOUNDED.map(String::from));
        assert_eq!(
            bounds()
                .into_iter()
                .map(|(name, _)| name)
                .collect::<Vec<_>>(),
            BOUNDED.map(String::from)
        );
        let schema = probes::schema();
        assert!(schema.len() <= 128);
        for (key, want) in [
            (
                "name",
                schema.iter().map(|r| r.0.clone()).collect::<Vec<_>>(),
            ),
            ("unit", schema.iter().map(|r| r.1.to_string()).collect()),
            ("better", schema.iter().map(|r| r.2.to_string()).collect()),
        ] {
            assert_eq!(strings(&v, "per_layer", key), want, "per_layer.{key}");
        }
    }
}

//! Metric rows and the outputs built from them: the human table, the
//! full JSON report (every value with its unit and n, beside the host
//! and configuration it was measured under), and the one-line result the
//! PR driver reads.

use crate::sys::Host;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// The end-to-end metrics `BENCHMARK.json` bounds, in its order.
/// `peak_rss_mib`, the sixth end-to-end metric, is measured, printed and
/// recorded on every run but carries no regression bound (see the README:
/// below a few hundred MiB `VmHWM` moves in allocator-arena steps, and on
/// the time-boxed `fleet_tiny` it grows with the number of jobs served).
pub const BOUNDED: [&str; 5] = [
    "setup_s",
    "jobs_per_s",
    "job_p50_ms",
    "job_p95_ms",
    "cpu_ms_per_job",
];

/// One measured number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all the digits it was measured to.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Samples (jobs, requests, probe batches) behind the value.
    pub n: u64,
}

impl Metric {
    /// A row.
    pub fn new(name: impl Into<String>, value: f64, unit: &str, n: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
            n,
        }
    }
}

/// Everything one run of one workload produced. Its JSON form carries
/// the host and the full configuration beside every number.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload name.
    pub workload: String,
    /// The host the numbers were measured on.
    pub host: Host,
    /// Workload seed.
    pub seed: u64,
    /// `T`: callers, service workers, fleet workers.
    pub t: usize,
    /// Whether this was the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub traced: bool,
    /// Smoke counts.
    pub smoke: bool,
    /// The workload's full configuration.
    pub config: Value,
    /// Outputs correct and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub ops_attempted: u64,
    /// Operations failed.
    pub ops_failed: u64,
    /// Correctness-gate mismatches and failed operations, in words.
    pub failures: Vec<String>,
    /// The six end-to-end metrics (untraced run only).
    pub end_to_end: Vec<Metric>,
    /// Extra unbounded rows the workload reports about itself.
    pub diagnostics: Vec<Metric>,
    /// The per-layer ledger (traced run only).
    pub per_layer: Vec<Metric>,
    /// Each layer's share of traced busy time (traced run only).
    pub layer_share: Vec<Metric>,
}

impl WorkloadReport {
    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics` — the bounded end-to-end metrics for an
    /// untraced run, the per-layer metrics for a traced one.
    pub fn driver_line(&self) -> String {
        let rows = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics = rows
            .iter()
            .filter(|m| self.traced || BOUNDED.contains(&m.name.as_str()))
            .map(|m| {
                (
                    m.name.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        serde_json::to_string(&Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.ops_attempted)),
            ("failed".into(), Value::U64(self.ops_failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]))
        .expect("values always serialize")
    }

    /// Print every metric by name with its unit (standard error, so the
    /// result line stays the last thing on standard output).
    pub fn print_table(&self) {
        eprintln!(
            "== {} (seed {}, T={}{}{}) ==",
            self.workload,
            self.seed,
            self.t,
            if self.traced { ", traced" } else { "" },
            if self.smoke { ", smoke" } else { "" }
        );
        for (title, rows) in [
            ("end-to-end", &self.end_to_end),
            ("diagnostics (no bound)", &self.diagnostics),
            ("per-layer ledger", &self.per_layer),
            ("layer share of traced busy time", &self.layer_share),
        ] {
            if rows.is_empty() {
                continue;
            }
            eprintln!("  {title}");
            for m in rows {
                eprintln!(
                    "    {:<44} {:>14.4} {:<8} n={}",
                    m.name, m.value, m.unit, m.n
                );
            }
        }
        eprintln!(
            "  ops_attempted {}  ops_failed {}  correct {}",
            self.ops_attempted, self.ops_failed, self.correct
        );
        for f in &self.failures {
            eprintln!("  FAIL {f}");
        }
    }
}

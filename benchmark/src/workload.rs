//! What every workload has in common: its parameters, what it hands
//! back, and how the six end-to-end metrics are derived from that.

use crate::report::Metric;
use crate::stats::{median, percentile, sorted};
use crate::sys;
use crate::trace::Tracer;
use serde_json::Value;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fresh child processes whose set-up is timed per run; the reported
/// `setup_s` is their median.
const SETUP_PROBES: usize = 5;

/// Parameters of one workload run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: orders job lists and derives per-job noise seeds.
    pub seed: u64,
    /// Duration of time-boxed phases, seconds.
    pub seconds: f64,
    /// `T`: generator threads/connections, service workers, fleet workers.
    pub t: usize,
    /// Smaller counts, same code paths, checks still on.
    pub smoke: bool,
}

/// What a workload's measured phase produced.
pub struct Outcome {
    /// Operations attempted, including any that failed.
    pub attempted: u64,
    /// Refused, errored, unverified or unanswered operations.
    pub failed: u64,
    /// Correctness-gate mismatches (empty = outputs correct).
    pub failures: Vec<String>,
    /// Verified jobs completed per second of the throughput phase.
    pub jobs_per_s: f64,
    /// Verified jobs the rate was taken over.
    pub rate_jobs: u64,
    /// Process CPU seconds over the timed phases, and the jobs they served.
    pub cpu_s: f64,
    /// Jobs the CPU seconds are divided by.
    pub cpu_jobs: u64,
    /// Caller-observed latency per job, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Extra rows printed beside the end-to-end metrics (never bounded).
    pub diagnostics: Vec<Metric>,
    /// The workload's full configuration, for the JSON report.
    pub config: Value,
}

/// One of the five workloads.
pub trait Workload {
    /// Everything that must exist before the first timed request.
    type Env;
    /// Build the job list, start services, register workers, prime caches.
    fn setup(ctx: &Ctx) -> Self::Env;
    /// Run the timed phases and the correctness gates, then tear down.
    /// With a tracer, record a span around every call into the system.
    fn measure(ctx: &Ctx, env: Self::Env, tracer: Option<&Tracer>) -> Outcome;
    /// Tear down an environment that was set up but not measured.
    fn discard(env: Self::Env);
}

/// The line a set-up probe child prints once it could issue its first
/// timed request.
pub const READY_LINE: &str = "ready";

/// This executable, re-invoked as `<subcommand> --workload W --seed S
/// [--smoke]` — the fresh child processes set-up probes and the suite's
/// per-workload measurements run in. Output streams are the caller's.
pub fn child(subcommand: &str, workload: &str, seed: u64, smoke: bool) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own executable path"));
    cmd.args([subcommand, "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(if smoke { &["--smoke"][..] } else { &[] })
        .stdin(Stdio::null());
    cmd
}

/// Time `SETUP_PROBES` cold set-ups: each in a fresh child process of
/// this executable, from spawn to its [`READY_LINE`] — process start,
/// service start, bind, worker registration, priming.
pub fn probe_setup_s(workload: &str, ctx: &Ctx) -> Vec<f64> {
    (0..SETUP_PROBES)
        .map(|_| {
            let start = Instant::now();
            let mut child = child("setup-probe", workload, ctx.seed, ctx.smoke)
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn set-up probe");
            let mut line = String::new();
            BufReader::new(child.stdout.take().expect("piped stdout"))
                .read_line(&mut line)
                .expect("read probe output");
            let elapsed = start.elapsed().as_secs_f64();
            let status = child.wait().expect("reap set-up probe");
            assert!(
                status.success() && line.trim() == READY_LINE,
                "set-up probe for {workload} failed ({status}, said {line:?})"
            );
            elapsed
        })
        .collect()
}

/// The six end-to-end metrics, in table order. `peak_rss_mib` is the
/// process's `VmHWM` once the measured pass has ended.
pub fn end_to_end(outcome: &Outcome, setup_s: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    let lat = sorted(outcome.latencies_ms.clone());
    let n = lat.len() as u64;
    vec![
        Metric::new("setup_s", median(setup_s), "s", setup_s.len() as u64),
        Metric::new(
            "jobs_per_s",
            outcome.jobs_per_s,
            "jobs/s",
            outcome.rate_jobs,
        ),
        Metric::new("job_p50_ms", percentile(&lat, 0.50), "ms", n),
        Metric::new("job_p95_ms", percentile(&lat, 0.95), "ms", n),
        Metric::new(
            "cpu_ms_per_job",
            outcome.cpu_s * 1e3 / outcome.cpu_jobs as f64,
            "ms",
            outcome.cpu_jobs,
        ),
        Metric::new("peak_rss_mib", peak_rss_mib, "MiB", 1),
    ]
}

/// Wall and process-CPU seconds spent in `f`.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = sys::process_cpu_s();
    let wall = Instant::now();
    let out = f();
    let wall_s = wall.elapsed().as_secs_f64();
    (out, wall_s, sys::process_cpu_s() - cpu0)
}

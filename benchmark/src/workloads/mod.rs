//! The five workloads, and the closed-loop driver four of them share.

pub mod figures;
pub mod fleet_tiny;
pub mod native_kernels;
pub mod serve_cached;

use crate::trace::Lane;
use eod_clrt::prelude::Device;
use eod_core::spec::{JobSpec, Priority};
use eod_dwarfs::registry;
use eod_harness::exec::resolve_device;
use eod_harness::{execute_spec, GroupResult, Runner, RunnerConfig};
use eod_serve::{Client, JobOutcome};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// One completed step of a closed loop.
pub struct Done<R> {
    /// Position in the workload's job stream.
    pub job: u64,
    /// Caller-observed latency of the step, milliseconds.
    pub latency_ms: f64,
    /// What the step returned.
    pub out: R,
}

/// Closed loop: `threads` callers each take the next job number from a
/// shared counter, run `step` on it and only then take another, until
/// `step` reports the stream exhausted (`None`). `init` builds each
/// caller's state on its own thread.
pub fn closed_loop<S, R: Send>(
    threads: usize,
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S, u64) -> Option<R> + Sync,
) -> Vec<Done<R>> {
    let next = AtomicU64::new(0);
    let mut done: Vec<Done<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (next, init, step) = (&next, &init, &step);
                scope.spawn(move || {
                    let mut state = init(i);
                    let mut mine = Vec::new();
                    loop {
                        let job = next.fetch_add(1, Ordering::Relaxed);
                        let start = Instant::now();
                        let Some(out) = step(&mut state, job) else {
                            break;
                        };
                        mine.push(Done {
                            job,
                            latency_ms: start.elapsed().as_secs_f64() * 1e3,
                            out,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop caller panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.job);
    done
}

/// `execute_spec`, or with a lane its traced equivalent: the same
/// resolution and the same `Runner::run_group`, with the runner's
/// host-phase spans recorded under an `execute_spec` span.
pub fn execute_direct(
    spec: &JobSpec,
    lane: Option<&mut Lane<'_>>,
    job: u64,
) -> Result<GroupResult, String> {
    let Some(lane) = lane else {
        return execute_spec(spec).map_err(|e| e.to_string());
    };
    let sink = lane.sink();
    let out = lane.span("execute_spec", "harness", job, || {
        let benchmark = registry::benchmark_by_name(&spec.benchmark)
            .ok_or_else(|| format!("unknown benchmark {:?}", spec.benchmark))?;
        let device: Device = resolve_device(spec).map_err(|e| e.to_string())?;
        Runner::new(RunnerConfig::from_exec(&spec.config))
            .with_trace(sink)
            .run_group(benchmark.as_ref(), spec.size, device)
            .map_err(|e| e.to_string())
    });
    lane.absorb_runner_spans(job, spec.is_native(), spec.benchmark.starts_with("synth:"));
    out
}

/// One blocking `submit_wait`, as a span on `lane` when tracing.
pub fn submit_wait(
    client: &mut Client,
    spec: &JobSpec,
    lane: Option<&mut Lane<'_>>,
    job: u64,
) -> Result<JobOutcome, String> {
    let mut call = || {
        client
            .submit_wait(spec, Priority::Normal)
            .map_err(|e| e.to_string())
    };
    match lane {
        Some(lane) => lane.span("submit_wait", "serve", job, call),
        None => call(),
    }
}

/// The `GroupResult` of a served job, or why it counts as failed.
pub fn served_result(outcome: Result<JobOutcome, String>) -> Result<GroupResult, String> {
    let outcome = outcome?;
    match (&outcome.state[..], &outcome.group) {
        ("done", Some(json)) => serde_json::from_str(json).map_err(|e| e.to_string()),
        _ => Err(format!(
            "job {} ended {}: {}",
            outcome.job,
            outcome.state,
            outcome.error.unwrap_or_default()
        )),
    }
}

/// Split results into verified ones and failure messages.
pub fn verified(
    results: impl IntoIterator<Item = (String, Result<GroupResult, String>)>,
) -> (Vec<GroupResult>, Vec<String>) {
    let mut ok = Vec::new();
    let mut failed = Vec::new();
    for (label, r) in results {
        match r {
            Ok(g) if g.verified => ok.push(g),
            Ok(_) => failed.push(format!("{label}: result not verified")),
            Err(e) => failed.push(format!("{label}: {e}")),
        }
    }
    (ok, failed)
}

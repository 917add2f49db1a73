//! `native_kernels`: real kernels on the host backend — work-group
//! dispatch and kernel bodies do the work; device pricing and every
//! service layer do none.

use super::{closed_loop, execute_direct, verified};
use crate::jobs::{native_label, native_spec, NATIVE_PAIRS, SYNTH_BANDWIDTH_FOOTPRINT, SYNTH_GUPS};
use crate::report::Metric;
use crate::stats::{median, shuffle};
use crate::sys::Host;
use crate::trace::Tracer;
use crate::workload::{timed, Ctx, Outcome, Workload};
use eod_core::spec::JobSpec;
use eod_synth::{gups, stream};
use serde_json::Value;

/// Input seeds per (benchmark, size) pair. The inputs are the same in
/// every run — job durations depend on them (a sparser matrix, another
/// image), and percentiles over 260 jobs of 25 kinds would otherwise
/// move with the inputs rather than with the code; `--seed` orders them.
const SEEDS_PER_PAIR: u64 = 10;

/// 25 (benchmark, size) pairs × 10 input seeds (20 for the heaviest) on
/// device `native`, one submitter thread (kernels fan out over the
/// runtime's own pool).
pub struct NativeKernels;

/// The job list: `(pair index, spec)` in execution order.
pub struct NativeJobs(Vec<(usize, JobSpec)>);

/// The pair with the longest jobs gets twice the input seeds: more than
/// 5 % of all jobs are then of one kind, so the nearest-rank p95 falls
/// *inside* that kind's cluster of durations. With equal counts it falls
/// between the two heaviest kinds, and whenever the guest scheduler
/// serialises a few parallel kernels the reading jumps across the gap
/// (150 → 205 ms, one run in ten).
const DOUBLE_SEEDED: &str = SYNTH_GUPS;

impl NativeJobs {
    fn new(ctx: &Ctx) -> Self {
        let seeds = if ctx.smoke { 1 } else { SEEDS_PER_PAIR };
        let mut jobs: Vec<(usize, JobSpec)> = NATIVE_PAIRS
            .iter()
            .enumerate()
            .flat_map(|(p, &pair)| {
                let count = if pair.0 == DOUBLE_SEEDED {
                    2 * seeds
                } else {
                    seeds
                };
                (0..count).map(move |s| (p, native_spec(pair, s)))
            })
            .collect();
        shuffle(&mut jobs, ctx.seed);
        NativeJobs(jobs)
    }
}

/// Per-pair medians of `kernel_ms` from the job results, plus the two
/// bandwidth probes' derived rates. Bytes and updates are *computed*
/// from array sizes, not measured.
pub fn kernel_rows(results: &[(usize, Vec<f64>)]) -> Vec<Metric> {
    let mut rows = Vec::new();
    for (p, &pair) in NATIVE_PAIRS.iter().enumerate() {
        let samples: Vec<f64> = results
            .iter()
            .filter(|(q, _)| *q == p)
            .flat_map(|(_, ms)| ms.iter().copied())
            .collect();
        if samples.is_empty() {
            continue;
        }
        let ms = median(&samples);
        let n = samples.len() as u64;
        rows.push(Metric::new(native_label(pair), ms, "ms", n));
        let fp = SYNTH_BANDWIDTH_FOOTPRINT;
        match native_label(pair).as_str() {
            "synth.kernel_ms.stream" => rows.push(Metric::new(
                "synth.stream_gb_per_s",
                stream::bytes_per_iteration(stream::elems_per_array(fp), 1) / (ms * 1e-3) / 1e9,
                "GB/s",
                n,
            )),
            "synth.kernel_ms.gups" => rows.push(Metric::new(
                "synth.gups",
                gups::updates_per_iteration(gups::table_len(fp)) as f64 / (ms * 1e-3) / 1e9,
                "GUPS",
                n,
            )),
            _ => {}
        }
    }
    rows
}

impl Workload for NativeKernels {
    type Env = NativeJobs;

    fn setup(ctx: &Ctx) -> NativeJobs {
        NativeJobs::new(ctx)
    }

    fn measure(_: &Ctx, jobs: NativeJobs, tracer: Option<&Tracer>) -> Outcome {
        let jobs = jobs.0;
        let (done, wall_s, cpu_s) = timed(|| {
            closed_loop(
                1,
                |_| tracer.map(|t| t.lane("submitter")),
                |lane, k| {
                    let (_, spec) = jobs.get(k as usize)?;
                    Some(execute_direct(spec, lane.as_mut(), k))
                },
            )
        });
        let attempted = jobs.len() as u64;
        let latencies_ms = done.iter().map(|d| d.latency_ms).collect();
        let pairs: Vec<usize> = done.iter().map(|d| jobs[d.job as usize].0).collect();
        let (results, failures) = verified(done.into_iter().map(|d| {
            let (_, s) = &jobs[d.job as usize];
            (
                format!("{} {} on native", s.benchmark, s.size.label()),
                d.out,
            )
        }));
        let failed = attempted - results.len() as u64;
        // Pair indices line up with results only when nothing failed;
        // with failures the run is already incorrect and rows are moot.
        let diagnostics = if failed == 0 {
            let per_job: Vec<(usize, Vec<f64>)> = pairs
                .into_iter()
                .zip(results.into_iter().map(|r| r.kernel_ms))
                .collect();
            kernel_rows(&per_job)
        } else {
            Vec::new()
        };
        let host = Host::probe();
        Outcome {
            attempted,
            failed,
            failures,
            jobs_per_s: (attempted - failed) as f64 / wall_s,
            rate_jobs: attempted - failed,
            cpu_s,
            cpu_jobs: attempted - failed,
            latencies_ms,
            diagnostics,
            config: Value::Map(vec![
                ("job_count".into(), Value::U64(attempted)),
                (
                    "jobs".into(),
                    Value::Str(format!(
                        "{} (benchmark, size) pairs x {SEEDS_PER_PAIR} fixed input seeds (gups: \
                         twice that) on device native; samples 5, max_iters_per_sample 2, loop \
                         floor disabled: 11 real iterations per job",
                        NATIVE_PAIRS.len(),
                    )),
                ),
                ("path".into(), Value::Str("execute_spec".into())),
                ("loop".into(), Value::Str("closed, fixed job list".into())),
                ("callers".into(), Value::U64(1)),
                (
                    "bandwidth_probe_footprint_bytes".into(),
                    Value::U64(SYNTH_BANDWIDTH_FOOTPRINT),
                ),
                ("host_llc".into(), Value::Str(host.llc)),
            ]),
        }
    }

    fn discard(_: NativeJobs) {}
}

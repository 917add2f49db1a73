//! `fleet_tiny`: jobs whose execution is ~0.1 ms, so the job time *is*
//! coordination — client round trip, admit, dispatch loop, predict,
//! placement, grant, wire codec, completion, cache insert, push.

use super::{closed_loop, served_result, submit_wait, verified};
use crate::jobs::{fleet_canonical, fleet_spec, ExpectedDigests};
use crate::plane::ServePlane;
use crate::report::Metric;
use crate::sys::OneCpu;
use crate::trace::Tracer;
use crate::workload::{timed, Ctx, Outcome, Workload};
use eod_serve::{Client, JobOutcome};
use serde_json::Value;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A fleet-mode service under predictive placement with `T` one-slot
/// in-process workers; `T` blocking clients loop `submit_wait` on
/// always-missing smoke jobs for a fixed duration. Fixed duration, not
/// count, because per-job cost here can change by two orders of
/// magnitude and a fixed count would run either far too long or not long
/// enough to measure.
pub struct FleetTiny;

/// What `fleet_tiny` needs before its first timed request.
pub struct FleetEnv {
    /// Every thread of the plane and every caller shares one CPU.
    ///
    /// A job here is ~17 thread hand-offs and ~0.8 ms of CPU inside a
    /// 44 ms wait, so both CPUs are idle when each hand-off happens. Left
    /// to itself the guest scheduler either packs the process's threads on
    /// one CPU or spreads them over both — decided at process start by the
    /// load the previous process left behind, and kept for the process's
    /// life — and a hand-off to an idle *other* virtual CPU costs an
    /// inter-processor interrupt through the hypervisor: `cpu_ms_per_job`
    /// reads 0.77 packed and 1.0 spread on identical code. Confinement
    /// makes every run the packed case.
    one_cpu: OneCpu,
    plane: ServePlane,
    clients: Vec<Client>,
    /// Outcomes of the priming jobs, checked against pinned digests.
    primed: Vec<Result<JobOutcome, String>>,
}

impl Workload for FleetTiny {
    type Env = FleetEnv;

    fn setup(ctx: &Ctx) -> FleetEnv {
        let one_cpu = OneCpu::confine();
        let plane = ServePlane::fleet(ctx.t);
        let mut clients = plane.clients(ctx.t);
        // Priming: the seed-independent canonical set, one job at a time
        // through the same path. It fills the predictor's and the cache
        // engine's memo tables, so the timed phase measures coordination
        // rather than 25 first-time model analyses, and the memory those
        // analyses need peaks here, in sequence, instead of whenever two
        // of them happen to overlap on the workers.
        let primed = fleet_canonical()
            .iter()
            .enumerate()
            .map(|(i, spec)| submit_wait(&mut clients[0], spec, None, i as u64))
            .collect();
        FleetEnv {
            one_cpu,
            plane,
            clients,
            primed,
        }
    }

    fn measure(ctx: &Ctx, env: FleetEnv, tracer: Option<&Tracer>) -> Outcome {
        let FleetEnv {
            one_cpu,
            plane,
            clients,
            primed,
        } = env;
        let clients: Vec<_> = clients.into_iter().map(Mutex::new).collect();
        let seconds = if ctx.smoke {
            ctx.seconds.min(2.0)
        } else {
            ctx.seconds
        };
        let dispatches_primed = plane.fleet_dispatches();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let (done, wall_s, cpu_s) = timed(|| {
            closed_loop(
                ctx.t,
                |i| {
                    (
                        clients[i].lock().expect("client lock"),
                        tracer.map(|t| t.lane(format!("client {i}"))),
                    )
                },
                |(client, lane), k| {
                    if Instant::now() >= deadline {
                        return None;
                    }
                    Some(submit_wait(
                        client,
                        &fleet_spec(ctx.seed, k),
                        lane.as_mut(),
                        k,
                    ))
                },
            )
        });
        let dispatches_timed = plane.fleet_dispatches() - dispatches_primed;

        // The priming jobs are seed-independent: pinned by digest.
        let expected = ExpectedDigests::load("fleet_canonical");
        let mut failures = Vec::new();
        for (i, (spec, outcome)) in fleet_canonical().iter().zip(primed).enumerate() {
            match served_result(outcome) {
                Ok(result) => failures.extend(expected.check(spec, &result)),
                Err(e) => failures.push(format!("canonical job {i}: {e}")),
            }
        }
        drop(clients);
        plane.shutdown();
        let confined_to = one_cpu.cpu();
        drop(one_cpu);

        let attempted = done.len() as u64;
        let latencies_ms = done.iter().map(|d| d.latency_ms).collect();
        let (results, job_failures) = verified(done.into_iter().map(|d| {
            let spec = fleet_spec(ctx.seed, d.job);
            let out = d.out.and_then(|o| {
                if o.cached {
                    return Err("answered from the cache; every job must miss".to_string());
                }
                served_result(Ok(o))
            });
            let out = out.and_then(|r| {
                if r.benchmark == spec.benchmark && r.device == spec.device {
                    Ok(r)
                } else {
                    Err(format!("result is for {} on {}", r.benchmark, r.device))
                }
            });
            (
                format!("job {} ({} on {})", d.job, spec.benchmark, spec.device),
                out,
            )
        }));
        let completed = results.len() as u64;
        failures.extend(job_failures);
        Outcome {
            attempted,
            failed: attempted - completed,
            failures,
            jobs_per_s: completed as f64 / wall_s,
            rate_jobs: completed,
            cpu_s,
            cpu_jobs: completed,
            latencies_ms,
            diagnostics: vec![Metric::new(
                "attempts_per_job",
                dispatches_timed / completed.max(1) as f64,
                "ratio",
                completed,
            )],
            config: Value::Map(vec![
                (
                    "jobs".into(),
                    Value::Str(
                        "smoke-config {crc,srad,kmeans,csr,nw} tiny x 5 devices in rotation, \
                         noise seed = seed*10^6 + i (always a cache miss)"
                            .into(),
                    ),
                ),
                ("job_count".into(), Value::U64(attempted)),
                (
                    "path".into(),
                    Value::Str(
                        "Client::submit_wait over TCP -> Service::start_fleet_placed(Predictive) \
                         -> Coordinator -> Worker on LocalWire"
                            .into(),
                    ),
                ),
                ("loop".into(), Value::Str("closed, fixed duration".into())),
                ("duration_s".into(), Value::F64(seconds)),
                ("callers".into(), Value::U64(ctx.t as u64)),
                ("fleet_workers".into(), Value::U64(ctx.t as u64)),
                ("worker_slots".into(), Value::U64(1)),
                (
                    "confined_to_cpu".into(),
                    confined_to.map_or(Value::Null, |cpu| Value::U64(cpu as u64)),
                ),
            ]),
        }
    }

    fn discard(env: FleetEnv) {
        drop(env.clients);
        env.plane.shutdown();
        drop(env.one_cpu);
    }
}

//! `figures_direct` and `figures_serve`: the same `B_sim` job list, once
//! straight through `execute_spec` and once through the serving plane,
//! so the ratio of their `jobs_per_s` *is* the serve-plane overhead.

use super::{closed_loop, execute_direct, served_result, submit_wait, verified, Done};
use crate::jobs::SimBatch;
use crate::plane::ServePlane;
use crate::report::Metric;
use crate::trace::Tracer;
use crate::workload::{timed, Ctx, Outcome, Workload};
use eod_harness::GroupResult;
use eod_serve::Client;
use serde_json::Value;

fn config(ctx: &Ctx, batch: &SimBatch, path: &str) -> Value {
    Value::Map(vec![
        ("jobs".into(), Value::Str(batch.describe())),
        ("job_count".into(), Value::U64(batch.specs.len() as u64)),
        ("path".into(), Value::Str(path.into())),
        ("loop".into(), Value::Str("closed, fixed job list".into())),
        ("callers".into(), Value::U64(ctx.t as u64)),
        (
            "order".into(),
            Value::Str("shuffled by --seed; one nw-large job per caller leads".into()),
        ),
    ])
}

/// Turn one pass over the batch into an [`Outcome`]: failed-job
/// accounting, then the CSV and digest gates over the canonical order.
fn outcome(
    ctx: &Ctx,
    batch: &SimBatch,
    path: &str,
    done: Vec<Done<Result<GroupResult, String>>>,
    wall_s: f64,
    cpu_s: f64,
) -> Outcome {
    let attempted = batch.order.len() as u64;
    let latencies_ms = done.iter().map(|d| d.latency_ms).collect();
    // `done` is sorted by stream position; put results back in canonical
    // spec order for assembly.
    let mut by_spec: Vec<(usize, Result<GroupResult, String>)> = done
        .into_iter()
        .map(|d| (batch.order[d.job as usize], d.out))
        .collect();
    by_spec.sort_by_key(|(idx, _)| *idx);
    let (results, mut failures) = verified(by_spec.into_iter().map(|(idx, r)| {
        let s = &batch.specs[idx];
        (
            format!("{} {} on {}", s.benchmark, s.size.label(), s.device),
            r,
        )
    }));
    let failed = attempted - results.len() as u64;
    if failed == 0 {
        failures.extend(batch.check(results));
    }
    Outcome {
        attempted,
        failed,
        failures,
        jobs_per_s: (attempted - failed) as f64 / wall_s,
        rate_jobs: attempted - failed,
        cpu_s,
        cpu_jobs: attempted - failed,
        latencies_ms,
        diagnostics: Vec::new(),
        config: config(ctx, batch, path),
    }
}

/// `B_sim`, `T` threads pulling from a shared index, each calling
/// `execute_spec`.
pub struct FiguresDirect;

impl Workload for FiguresDirect {
    type Env = SimBatch;

    fn setup(ctx: &Ctx) -> SimBatch {
        SimBatch::new(ctx.seed, ctx.t, ctx.smoke)
    }

    fn measure(ctx: &Ctx, batch: SimBatch, tracer: Option<&Tracer>) -> Outcome {
        let (done, wall_s, cpu_s) = timed(|| {
            closed_loop(
                ctx.t,
                |i| tracer.map(|t| t.lane(format!("caller {i}"))),
                |lane, k| {
                    let idx = *batch.order.get(k as usize)?;
                    Some(execute_direct(&batch.specs[idx], lane.as_mut(), k))
                },
            )
        });
        outcome(ctx, &batch, "execute_spec", done, wall_s, cpu_s)
    }

    fn discard(_: SimBatch) {}
}

/// The same `B_sim` through an in-process `Service` + `NetServer`, `T`
/// blocking clients each looping `submit_wait`; the cold pass is timed,
/// then a warm pass resubmits the first jobs of the order and checks that
/// each is answered from the cache.
pub struct FiguresServe;

/// Jobs resubmitted after the cold pass; each must come from the cache.
const WARM_PASS_JOBS: usize = 64;

/// What `figures_serve` needs before its first timed request.
pub struct ServeEnv {
    batch: SimBatch,
    plane: ServePlane,
    clients: Vec<Client>,
}

impl Workload for FiguresServe {
    type Env = ServeEnv;

    fn setup(ctx: &Ctx) -> ServeEnv {
        let batch = SimBatch::new(ctx.seed, ctx.t, ctx.smoke);
        let plane = ServePlane::local(ctx.t);
        let clients = plane.clients(ctx.t);
        ServeEnv {
            batch,
            plane,
            clients,
        }
    }

    fn measure(ctx: &Ctx, env: ServeEnv, tracer: Option<&Tracer>) -> Outcome {
        let ServeEnv {
            batch,
            plane,
            clients,
        } = env;
        let clients: Vec<_> = clients.into_iter().map(std::sync::Mutex::new).collect();
        let pass = |label: &str, order: &[usize]| {
            timed(|| {
                closed_loop(
                    ctx.t,
                    |i| {
                        (
                            clients[i].lock().expect("client lock"),
                            tracer.map(|t| t.lane(format!("client {i} {label}"))),
                        )
                    },
                    |(client, lane), k| {
                        let idx = *order.get(k as usize)?;
                        Some(submit_wait(client, &batch.specs[idx], lane.as_mut(), k))
                    },
                )
            })
        };
        let (cold, wall_s, cpu_s) = pass("cold", &batch.order);
        let warm_order = &batch.order[..WARM_PASS_JOBS.min(batch.order.len())];
        let (warm, warm_wall_s, _) = pass("warm", warm_order);
        let warm_hits = warm
            .iter()
            .filter(|d| d.out.as_ref().is_ok_and(|o| o.cached && o.state == "done"))
            .count();
        drop(clients);
        plane.shutdown();

        // Decoding the result JSON is the caller's own work, kept out of
        // the timed pass so the pass measures the service.
        let cold = cold
            .into_iter()
            .map(|d| Done {
                job: d.job,
                latency_ms: d.latency_ms,
                out: served_result(d.out),
            })
            .collect();
        let mut out = outcome(
            ctx,
            &batch,
            "Client::submit_wait over TCP",
            cold,
            wall_s,
            cpu_s,
        );
        if warm_hits != warm.len() {
            out.failures.push(format!(
                "warm pass: {warm_hits} of {} jobs answered from the cache",
                warm.len()
            ));
        }
        out.diagnostics.push(Metric::new(
            "warm_pass_jobs_per_s",
            warm.len() as f64 / warm_wall_s,
            "jobs/s",
            warm.len() as u64,
        ));
        out
    }

    fn discard(env: ServeEnv) {
        drop(env.clients);
        env.plane.shutdown();
    }
}

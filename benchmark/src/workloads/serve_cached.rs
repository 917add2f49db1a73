//! `serve_cached`: one primed spec submitted over and over — net framing,
//! the serve codec, the job board and the cache-hit path do all the work;
//! no kernel runs. Serve as a reader, beside `figures_serve`'s writes.
//!
//! The load generator is the benchmark's own (so it is byte-identical on
//! a parent and a changed checkout): plain blocking sockets, one writer
//! and one reader per connection in the paced phase, one thread per
//! connection in the pipelined phase.

use crate::jobs::primed_spec;
use crate::plane::ServePlane;
use crate::report::Metric;
use crate::stats::{due_s, latency_from_due_s, lateness_s, median, percentile, sorted};
use crate::trace::{Lane, Tracer};
use crate::workload::{timed, Ctx, Outcome, Workload};
use eod_core::spec::Priority;
use eod_serve::protocol::{encode, Request};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Phase B's aggregate submit rate. A constant of the benchmark, never
/// derived per run: saturation on the reference host is 20–75k/s, so
/// this sits well under capacity and the latency it sees is service
/// time, not queueing.
const PACED_RATE_PER_S: f64 = 10_000.0;
/// Phase A's fixed request count. Fixed, on a fresh server, because
/// throughput depends on how many records the job board already holds.
const PIPELINED_REQUESTS: u64 = 300_000;
/// Requests in flight per connection in phase A: deep enough that no
/// shard ever idles. At depth 8 the loop → handler → loop hand-offs sleep
/// and wake between bursts, and on a 2-core host throughput then swings
/// ±20 % from run to run with where the scheduler put the threads.
const PIPELINE_DEPTH: u64 = 128;
/// A response not seen within this long counts as unanswered.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(10);

/// Fresh server, one primed spec; phase B paced open loop, then phase A
/// pipelined closed loop.
pub struct ServeCached;

/// What `serve_cached` needs before its first timed request.
pub struct CachedEnv {
    plane: ServePlane,
    conns: Vec<TcpStream>,
    /// The submit request, encoded once; each line splices an id around it.
    request_json: String,
}

/// The id-tagged envelope around the pre-encoded request — the bytes
/// `protocol::encode(&RequestFrame { id, req })` would produce.
fn request_line(id: u64, request_json: &str) -> String {
    format!("{{\"id\":{id},\"req\":{request_json}}}\n")
}

/// Correlation id of a response line, if it is the cache-hit acceptance
/// every request here must get. A byte scan, not a decode: whatever the
/// generator spends parsing is taken from the server on a small host.
fn accepted_hit_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let id = rest[..digits].parse().ok()?;
    (rest.contains("\"Accepted\"")
        && rest.contains("\"state\":\"done\"")
        && rest.contains("\"cached\":true"))
    .then_some(id)
}

/// Tally of one connection's responses.
#[derive(Default)]
struct Answers {
    ok: u64,
    errors: u64,
    first_error: Option<String>,
}

impl Answers {
    fn absorb(&mut self, other: Answers) {
        self.ok += other.ok;
        self.errors += other.errors;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    fn record(&mut self, line: &str) -> Option<u64> {
        let id = accepted_hit_id(line);
        match id {
            Some(_) => self.ok += 1,
            None => {
                self.errors += 1;
                self.first_error
                    .get_or_insert_with(|| line.trim_end().chars().take(200).collect());
            }
        }
        id
    }
}

/// One connection's share of phase B's schedule: the aggregate stream
/// has request `g` due at `g / rate`; connection `index` of `of` sends
/// every `of`-th one, so arrivals at the server are evenly spaced rather
/// than `of` at a time.
struct Schedule {
    start: Instant,
    rate: f64,
    index: u64,
    of: u64,
}

impl Schedule {
    /// Due time of this connection's `k`-th request, seconds from start.
    fn due_s(&self, k: u64) -> f64 {
        due_s(k * self.of + self.index, self.rate)
    }
}

/// Phase B on one connection: requests leave on a fixed schedule whether
/// or not earlier ones were answered; each latency counts from the
/// request's due time. Returns (latencies ms, lateness ms, answers).
fn paced(
    conn: &TcpStream,
    request_json: &str,
    count: u64,
    schedule: &Schedule,
) -> (Vec<f64>, Vec<f64>, Answers) {
    let start = schedule.start;
    let mut out = conn.try_clone().expect("clone generator socket");
    let mut reader = BufReader::new(conn.try_clone().expect("clone generator socket"));
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut lateness_ms = Vec::with_capacity(count as usize);
            for k in 0..count {
                let due = schedule.due_s(k);
                let now = start.elapsed().as_secs_f64();
                if now < due {
                    std::thread::sleep(Duration::from_secs_f64(due - now));
                }
                let sent = start.elapsed().as_secs_f64();
                if out
                    .write_all(request_line(k, request_json).as_bytes())
                    .is_err()
                {
                    break;
                }
                lateness_ms.push(lateness_s(due, sent) * 1e3);
            }
            lateness_ms
        });
        let mut latencies_ms = Vec::with_capacity(count as usize);
        let mut answers = Answers::default();
        let mut line = String::new();
        while answers.ok + answers.errors < count {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => break, // closed or timed out: the rest are unanswered
            }
            let answered = start.elapsed().as_secs_f64();
            if let Some(id) = answers.record(&line) {
                latencies_ms.push(latency_from_due_s(schedule.due_s(id), answered) * 1e3);
            }
        }
        let lateness_ms = writer.join().expect("paced writer panicked");
        (latencies_ms, lateness_ms, answers)
    })
}

/// The two phases alternate in this many rounds. Under a paced load the
/// cost of a cross-thread wake-up is bistable on a small virtualised host
/// (where the scheduler places the woken thread, whether the idle vCPU
/// has halted): a request's four wake-ups cost ~11 µs or ~35 µs each,
/// which moves phase B's latencies by 2× for as long as the state lasts.
/// A saturating phase A chunk between the paced segments lets the state
/// be drawn again, and percentiles pooled over the rounds stay with the
/// prevailing one.
const ROUNDS: u64 = 8;

/// Phase A on one connection: keep `PIPELINE_DEPTH` requests in flight
/// until `count` have been sent and answered.
fn pipelined(conn: &TcpStream, request_json: &str, count: u64) -> Answers {
    let mut out = conn.try_clone().expect("clone generator socket");
    let mut reader = BufReader::new(conn.try_clone().expect("clone generator socket"));
    let mut answers = Answers::default();
    let in_flight = PIPELINE_DEPTH.min(count);
    let first: String = (0..in_flight)
        .map(|k| request_line(k, request_json))
        .collect();
    if out.write_all(first.as_bytes()).is_err() {
        return answers;
    }
    let mut sent = in_flight;
    let mut line = String::new();
    while answers.ok + answers.errors < count {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
        answers.record(&line);
        if sent < count {
            if out
                .write_all(request_line(sent, request_json).as_bytes())
                .is_err()
            {
                break;
            }
            sent += 1;
        }
    }
    answers
}

/// Run `per_conn` on every connection at once (one thread each, released
/// together); returns their results with the phase's wall and CPU seconds.
fn on_every_connection<P: Send>(
    conns: &[TcpStream],
    per_conn: impl Fn(usize, &TcpStream) -> P + Sync,
) -> (Vec<P>, f64, f64) {
    timed(|| {
        let barrier = Barrier::new(conns.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = conns
                .iter()
                .enumerate()
                .map(|(i, conn)| {
                    let (barrier, per_conn) = (&barrier, &per_conn);
                    scope.spawn(move || {
                        barrier.wait();
                        per_conn(i, conn)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator connection panicked"))
                .collect()
        })
    })
}

/// `f` as one `serve`-layer span when tracing.
fn traced<R>(lane: &mut Option<Lane<'_>>, name: &str, round: u64, f: impl FnOnce() -> R) -> R {
    match lane {
        Some(lane) => lane.span(name, "serve", round, f),
        None => f(),
    }
}

impl Workload for ServeCached {
    type Env = CachedEnv;

    fn setup(ctx: &Ctx) -> CachedEnv {
        let plane = ServePlane::local(ctx.t);
        let spec = primed_spec();
        // Primed in-process: no connection is opened (or left closing)
        // before the generator's sockets are placed on shards.
        let primed = plane
            .service
            .submit(spec.clone(), Priority::Normal)
            .expect("admit the priming job")
            .wait_terminal();
        assert!(
            primed.result.is_some() && !primed.cached,
            "priming job must execute once: {} cached={}",
            primed.phase,
            primed.cached
        );
        let conns = plane.balanced(ctx.t, |addr| {
            let conn = TcpStream::connect(addr).expect("connect generator socket");
            // Pipelined small writes: never wait on Nagle.
            conn.set_nodelay(true).expect("TCP_NODELAY");
            conn.set_read_timeout(Some(ANSWER_TIMEOUT))
                .expect("read timeout");
            conn
        });
        let request_json = encode(&Request::Submit {
            spec,
            priority: Priority::Normal,
            wait: false,
        });
        CachedEnv {
            plane,
            conns,
            request_json,
        }
    }

    fn measure(ctx: &Ctx, env: CachedEnv, tracer: Option<&Tracer>) -> Outcome {
        let CachedEnv {
            plane,
            conns,
            request_json,
        } = env;
        let t = conns.len() as u64;
        let (seconds, pipelined_total) = if ctx.smoke {
            (ctx.seconds.min(1.0), PIPELINED_REQUESTS / 20)
        } else {
            (ctx.seconds, PIPELINED_REQUESTS)
        };
        let paced_per_conn = (PACED_RATE_PER_S * seconds) as u64 / t / ROUNDS;
        let pipelined_per_conn = pipelined_total / t / ROUNDS;
        let mut lane = tracer.map(|t| t.lane("generator"));

        let mut latencies_ms = Vec::new();
        let mut lateness_ms = Vec::new();
        let mut answers_b = Answers::default();
        let mut answers_a = Answers::default();
        let (mut phase_b_wall_s, mut cpu_s) = (0.0, 0.0);
        // Phase A's rate per chunk; the reported rate is their median, so
        // one chunk that caught a scheduler hiccup does not move it.
        let mut chunk_rates = Vec::with_capacity(ROUNDS as usize);
        for round in 0..ROUNDS {
            // Phase B: open loop at a fixed rate.
            let (parts, wall_s, cpu) = traced(&mut lane, "phase B: paced submits", round, || {
                let start = Instant::now();
                on_every_connection(&conns, |index, conn| {
                    let schedule = Schedule {
                        start,
                        rate: PACED_RATE_PER_S,
                        index: index as u64,
                        of: t,
                    };
                    paced(conn, &request_json, paced_per_conn, &schedule)
                })
            });
            phase_b_wall_s += wall_s;
            cpu_s += cpu;
            for (lat, late, answers) in parts {
                latencies_ms.extend(lat);
                lateness_ms.extend(late);
                answers_b.absorb(answers);
            }

            // Phase A: closed loop, pipelined, fixed count.
            let (parts, wall_s, cpu) =
                traced(&mut lane, "phase A: pipelined submits", round, || {
                    on_every_connection(&conns, |_, conn| {
                        pipelined(conn, &request_json, pipelined_per_conn)
                    })
                });
            cpu_s += cpu;
            let answered_before = answers_a.ok;
            for answers in parts {
                answers_a.absorb(answers);
            }
            chunk_rates.push((answers_a.ok - answered_before) as f64 / wall_s);
        }
        drop(lane);
        drop(conns);
        plane.shutdown();

        let requests_b = paced_per_conn * t * ROUNDS;
        let requests_a = pipelined_per_conn * t * ROUNDS;
        let attempted = requests_a + requests_b;
        let ok = answers_a.ok + answers_b.ok;
        let mut failures = Vec::new();
        for (phase, requests, answers) in
            [("B", requests_b, &answers_b), ("A", requests_a, &answers_a)]
        {
            if answers.ok != requests {
                failures.push(format!(
                    "phase {phase}: {requests} requests, {} cache-hit acceptances, {} other \
                     responses, {} unanswered{}",
                    answers.ok,
                    answers.errors,
                    requests - answers.ok - answers.errors,
                    answers
                        .first_error
                        .as_ref()
                        .map(|l| format!("; first: {l}"))
                        .unwrap_or_default()
                ));
            }
        }
        let late = sorted(lateness_ms);
        let late_n = late.len() as u64;
        Outcome {
            attempted,
            failed: attempted - ok,
            failures,
            jobs_per_s: median(&chunk_rates),
            rate_jobs: answers_a.ok,
            cpu_s,
            cpu_jobs: ok,
            latencies_ms,
            diagnostics: vec![
                Metric::new(
                    "paced_achieved_per_s",
                    answers_b.ok as f64 / phase_b_wall_s,
                    "jobs/s",
                    answers_b.ok,
                ),
                Metric::new(
                    "generator_lateness_p50_ms",
                    percentile(&late, 0.50),
                    "ms",
                    late_n,
                ),
                Metric::new(
                    "generator_lateness_p99_ms",
                    percentile(&late, 0.99),
                    "ms",
                    late_n,
                ),
                Metric::new(
                    "generator_lateness_max_ms",
                    percentile(&late, 1.0),
                    "ms",
                    late_n,
                ),
            ],
            config: Value::Map(vec![
                (
                    "jobs".into(),
                    Value::Str(
                        "one primed spec (crc tiny, GTX 1080, smoke config), id-tagged \
                         Submit{wait:false}; every answer must be a cache-hit acceptance"
                            .into(),
                    ),
                ),
                ("job_count".into(), Value::U64(attempted)),
                ("connections".into(), Value::U64(t)),
                (
                    "phase_b".into(),
                    Value::Str(format!(
                        "open loop, {PACED_RATE_PER_S} submits/s for {seconds} s ({requests_b} \
                         requests) in {ROUNDS} segments; latency from each request's due time"
                    )),
                ),
                (
                    "phase_a".into(),
                    Value::Str(format!(
                        "closed loop, pipeline {PIPELINE_DEPTH} per connection, {requests_a} \
                         requests in {ROUNDS} chunks, one after each paced segment; jobs_per_s \
                         is the median chunk rate"
                    )),
                ),
                ("service_workers".into(), Value::U64(ctx.t as u64)),
            ]),
        }
    }

    fn discard(env: CachedEnv) {
        drop(env.conns);
        env.plane.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eod_serve::protocol::{
        decode_request, IncomingRequest, RequestFrame, Response, ResponseFrame,
    };

    #[test]
    fn spliced_request_line_is_the_protocol_encoding() {
        let req = Request::Submit {
            spec: primed_spec(),
            priority: Priority::Normal,
            wait: false,
        };
        let line = request_line(77, &encode(&req));
        assert_eq!(
            line.trim_end(),
            encode(&RequestFrame {
                id: 77,
                req: req.clone()
            })
        );
        assert_eq!(
            decode_request(&line),
            Ok(IncomingRequest::Framed(RequestFrame { id: 77, req }))
        );
    }

    #[test]
    fn only_cache_hit_acceptances_count() {
        let frame = |resp| encode(&ResponseFrame { id: 9, resp });
        let hit = frame(Response::Accepted {
            job: 3,
            key: "k".into(),
            state: "done".into(),
            cached: true,
        });
        assert_eq!(accepted_hit_id(&hit), Some(9));
        let miss = frame(Response::Accepted {
            job: 3,
            key: "k".into(),
            state: "queued".into(),
            cached: false,
        });
        assert_eq!(accepted_hit_id(&miss), None);
        let error = frame(Response::Error {
            code: "queue_full".into(),
            message: "m".into(),
        });
        assert_eq!(accepted_hit_id(&error), None);
        assert_eq!(accepted_hit_id("garbage"), None);
        let mut answers = Answers::default();
        answers.record(&hit);
        answers.record(&error);
        assert_eq!((answers.ok, answers.errors), (1, 1));
        assert!(answers.first_error.unwrap().contains("queue_full"));
    }
}

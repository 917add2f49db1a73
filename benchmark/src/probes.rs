//! The per-layer ledger: one cost per layer, taken from outside the
//! crates by timing calls into their public functions on inputs recorded
//! from the workloads (the primed submit line, a real figure result,
//! crc-/csr-medium's kernel profiles, …).
//!
//! The ledger is the same whichever workload's traced run computes it, so
//! a change to one layer shows in its rows on every workload's trace run
//! and the rows of every other layer predict *no change*. Each row lists,
//! in `benchmark/README.md`, the end-to-end metric it should move.

use crate::jobs::{
    figure_config, native_label, native_spec, primed_spec, smoke_spec, SimBatch, FLEET_BENCHMARKS,
    FLEET_DEVICES, NATIVE_PAIRS,
};
use crate::plane::{prometheus_total, ServePlane};
use crate::report::Metric;
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use crate::workload::Ctx;
use crate::workloads::native_kernels::kernel_rows;
use crate::workloads::{closed_loop, execute_direct};
use eod_clrt::prelude::*;
use eod_core::fleet::WorkerCapabilities;
use eod_core::sizes::ProblemSize;
use eod_core::spec::{JobSpec, Priority};
use eod_devsim::profile::KernelProfile;
use eod_dwarfs::registry;
use eod_fleet::messages::{self, CoordMsg, WorkerMsg};
use eod_fleet::{CompletionSink, Coordinator, FleetConfig, FleetOutcome, LocalWire, Worker};
use eod_harness::figures::figure_plan;
use eod_harness::report::{samples_csv, summary_csv};
use eod_harness::{execute_spec, GroupResult};
use eod_net::{ConnId, Handler, LineReader, NetConfig, Outbox, ShardedReactor, WriteQueue};
use eod_predict::Predictor;
use eod_serve::protocol::{self, Request, RequestFrame, Response, ResponseFrame};
use eod_serve::{JobBoard, JobQueue, ResultCache};
use eod_telemetry::TraceSink;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Median over `batches` batches of the mean cost of one call, µs.
fn per_call_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    median(&means)
}

/// Scale a count down for `--smoke` (same code path, fewer repetitions).
fn scaled(ctx: &Ctx, n: usize) -> usize {
    if ctx.smoke {
        (n / 10).max(2)
    } else {
        n
    }
}

fn submit_request() -> Request {
    Request::Submit {
        spec: primed_spec(),
        priority: Priority::Normal,
        wait: false,
    }
}

// ---------------------------------------------------------------------------
// core, serve codec, net framing
// ---------------------------------------------------------------------------

fn core_and_codec(ctx: &Ctx, figure_result: &GroupResult, rows: &mut Vec<Metric>) {
    let n = scaled(ctx, 2000);
    let spec = primed_spec();
    rows.push(Metric::new(
        "core.spec_key_us",
        per_call_us(5, n, || {
            black_box(black_box(&spec).spec_key());
        }),
        "us",
        (5 * n) as u64,
    ));
    rows.push(Metric::new(
        "core.spec_json_us",
        per_call_us(5, n, || {
            let json = serde_json::to_string(black_box(&spec)).expect("spec serializes");
            black_box(serde_json::from_str::<JobSpec>(&json).expect("spec parses"));
        }),
        "us",
        (5 * n) as u64,
    ));

    let line = protocol::encode(&RequestFrame {
        id: 7,
        req: submit_request(),
    });
    rows.push(Metric::new(
        "serve.decode_us",
        per_call_us(5, n, || {
            black_box(protocol::decode_request(black_box(&line)).expect("line decodes"));
        }),
        "us",
        (5 * n) as u64,
    ));
    let accepted = ResponseFrame {
        id: 7,
        resp: Response::Accepted {
            job: 123_456,
            key: spec.spec_key(),
            state: "done".into(),
            cached: true,
        },
    };
    rows.push(Metric::new(
        "serve.encode_accepted_us",
        per_call_us(5, n, || {
            black_box(protocol::encode(black_box(&accepted)));
        }),
        "us",
        (5 * n) as u64,
    ));
    let result_json = serde_json::to_string(figure_result).expect("result serializes");
    let result = Response::Result {
        job: 123_456,
        key: spec.spec_key(),
        state: "done".into(),
        cached: false,
        group: Some(result_json),
        error: None,
        attempts: Vec::new(),
    };
    let n_result = scaled(ctx, 400);
    rows.push(Metric::new(
        "serve.encode_result_us",
        per_call_us(5, n_result, || {
            black_box(protocol::encode(black_box(&result)));
        }),
        "us",
        (5 * n_result) as u64,
    ));
    rows.push(Metric::new(
        "harness.result_json_us",
        per_call_us(5, n_result, || {
            black_box(serde_json::to_string(black_box(figure_result)).expect("serializes"));
        }),
        "us",
        (5 * n_result) as u64,
    ));
    rows.push(Metric::new(
        "scibench.summary_us",
        per_call_us(5, n, || {
            black_box(black_box(figure_result).time_summary());
            black_box(black_box(figure_result).boxplot());
        }),
        "us",
        (5 * n) as u64,
    ));

    // Framing: one recorded submit line through the reader, one accepted
    // line through the write queue — what a shard does per request
    // besides the syscalls.
    let mut wire = line.clone().into_bytes();
    wire.push(b'\n');
    let response = protocol::encode(&accepted);
    let config = NetConfig::default();
    let mut reader = LineReader::new(config.max_line_bytes);
    let mut writes = WriteQueue::new();
    rows.push(Metric::new(
        "net.frame_us",
        per_call_us(5, n, || {
            reader.extend(black_box(&wire));
            black_box(reader.next_line().expect("within the line bound"));
            writes.push_line(black_box(&response));
            let queued = writes.len();
            writes.consume(queued);
        }),
        "us",
        (5 * n) as u64,
    ));
}

// ---------------------------------------------------------------------------
// net: the reactor with a trivial handler
// ---------------------------------------------------------------------------

struct Echo;

impl Handler for Echo {
    fn on_line(&mut self, conn: ConnId, line: &str, outbox: &Outbox) {
        outbox.send(conn, line);
    }
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let out = TcpStream::connect(addr).expect("connect probe socket");
    out.set_nodelay(true).expect("TCP_NODELAY");
    out.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(out.try_clone().expect("clone probe socket"));
    (out, reader)
}

/// One request, one response, `n` times: mean µs per round trip.
fn round_trips_us(addr: &str, line: &str, n: usize) -> f64 {
    let (mut out, mut reader) = connect(addr);
    let mut answer = String::new();
    let wire = format!("{line}\n");
    per_call_us(5, n / 5, || {
        out.write_all(wire.as_bytes()).expect("send");
        answer.clear();
        reader.read_line(&mut answer).expect("receive");
    })
}

fn net_echo(ctx: &Ctx, rows: &mut Vec<Metric>) {
    let reactor = ShardedReactor::bind("127.0.0.1:0", NetConfig::default()).expect("bind echo");
    let addr = reactor.local_addr().to_string();
    let outbox = reactor.outbox();
    let handle = reactor.spawn(|_, _| Box::new(Echo));
    let line = protocol::encode(&RequestFrame {
        id: 7,
        req: submit_request(),
    });
    let n = scaled(ctx, 5000);
    rows.push(Metric::new(
        "net.echo_rtt_us",
        round_trips_us(&addr, &line, n),
        "us",
        n as u64,
    ));

    // Pipelined: `T` connections, eight lines in flight on each.
    let per_conn = scaled(ctx, 20_000);
    let wire = format!("{line}\n");
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..ctx.t {
            scope.spawn(|| {
                let (mut out, mut reader) = connect(&addr);
                let mut answer = String::new();
                out.write_all(wire.repeat(8).as_bytes()).expect("send");
                for sent in 8..per_conn + 8 {
                    answer.clear();
                    reader.read_line(&mut answer).expect("receive");
                    if sent < per_conn {
                        out.write_all(wire.as_bytes()).expect("send");
                    }
                }
            });
        }
    });
    let total = per_conn * ctx.t;
    rows.push(Metric::new(
        "net.echo_per_s",
        total as f64 / start.elapsed().as_secs_f64(),
        "1/s",
        total as u64,
    ));
    outbox.shutdown();
    handle.wait().expect("echo reactor exits cleanly");
}

// ---------------------------------------------------------------------------
// serve: board, cache, queue, admit, miss overhead, client and request RTT
// ---------------------------------------------------------------------------

fn serve_structures(ctx: &Ctx, figure_result: &GroupResult, rows: &mut Vec<Metric>) {
    let spec = primed_spec();
    let n = scaled(ctx, 10_000);

    // JobBoard::create on an empty board and on one holding 400k records
    // (what `serve_cached` leaves behind): the board never drops a record.
    let board = JobBoard::new();
    let create = |count: usize| {
        let start = Instant::now();
        for _ in 0..count {
            black_box(board.create(spec.clone(), Priority::Normal));
        }
        start.elapsed().as_secs_f64() * 1e6 / count as f64
    };
    rows.push(Metric::new(
        "serve.board_create_us.at0",
        create(n),
        "us",
        n as u64,
    ));
    create(scaled(ctx, 400_000).saturating_sub(n));
    rows.push(Metric::new(
        "serve.board_create_us.at400k",
        create(n),
        "us",
        n as u64,
    ));
    drop(board);

    // ResultCache at capacity: every insert evicts.
    let capacity = eod_serve::ServeConfig::default().cache_capacity;
    let cache = ResultCache::new(capacity);
    let json = serde_json::to_string(figure_result).expect("result serializes");
    let result = Arc::new(figure_result.clone());
    let keys: Vec<String> = (0..capacity + n).map(|i| format!("{i:016x}")).collect();
    for key in &keys[..capacity] {
        cache.insert(key.clone(), json.clone(), Arc::clone(&result));
    }
    let mut next = capacity;
    rows.push(Metric::new(
        "serve.cache_insert_us",
        per_call_us(5, n / 5, || {
            cache.insert(keys[next].clone(), json.clone(), Arc::clone(&result));
            next += 1;
        }),
        "us",
        n as u64,
    ));
    // The last `capacity` keys inserted are the resident ones.
    let resident = &keys[next - capacity..next];
    let mut probe = 0;
    rows.push(Metric::new(
        "serve.cache_get_us",
        per_call_us(5, n / 5, || {
            black_box(
                cache
                    .get(&resident[probe % capacity])
                    .expect("resident key"),
            );
            probe += 1;
        }),
        "us",
        n as u64,
    ));

    // JobQueue one slot below its bound: a push and a pop per call.
    let queue: JobQueue<u64> = JobQueue::new(eod_serve::ServeConfig::default().queue_capacity);
    for i in 0..queue.capacity() as u64 - 1 {
        queue.push(i, Priority::Normal).expect("below capacity");
    }
    rows.push(Metric::new(
        "serve.queue_push_pop_us",
        per_call_us(5, n, || {
            queue.push(0, Priority::Normal).expect("one slot free");
            black_box(queue.pop());
        }),
        "us",
        (5 * n) as u64,
    ));
}

fn serve_plane(ctx: &Ctx, rows: &mut Vec<Metric>) {
    let plane = ServePlane::local(ctx.t);
    let spec = primed_spec();
    let primed = plane
        .service
        .submit(spec.clone(), Priority::Normal)
        .expect("admit priming job")
        .wait_terminal();
    assert!(primed.result.is_some(), "priming job failed");

    // In-process admit of the primed spec (board create + cache hit),
    // and what each admitted job leaves resident.
    let admits = scaled(ctx, 100_000);
    let rss_before = sys::rss_bytes();
    let admit_us = per_call_us(5, admits / 5, || {
        black_box(
            plane
                .service
                .submit(spec.clone(), Priority::Normal)
                .expect("cache hits are always admitted"),
        );
    });
    rows.push(Metric::new(
        "serve.admit_hit_us",
        admit_us,
        "us",
        admits as u64,
    ));
    rows.push(Metric::new(
        "serve.board_bytes_per_job",
        (sys::rss_bytes() - rss_before).max(0.0) / admits as f64,
        "bytes",
        admits as u64,
    ));

    // Cache-miss overhead: submit → wait_terminal in-process, against a
    // direct execute_spec of the same specs (noise seeds make each a miss).
    let misses = scaled(ctx, 200);
    let miss_specs: Vec<JobSpec> = (0..misses as u64)
        .map(|i| smoke_spec("crc", ProblemSize::Tiny, "GTX 1080", 1_000 + i))
        .collect();
    let served_us: Vec<f64> = miss_specs
        .iter()
        .map(|s| {
            let start = Instant::now();
            let snap = plane
                .service
                .submit(s.clone(), Priority::Normal)
                .expect("admit")
                .wait_terminal();
            assert!(snap.result.is_some(), "miss-overhead job failed");
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let direct_us: Vec<f64> = miss_specs
        .iter()
        .map(|s| {
            let start = Instant::now();
            black_box(execute_spec(s).expect("direct execution"));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    rows.push(Metric::new(
        "serve.miss_overhead_us",
        median(&served_us) - median(&direct_us),
        "us",
        misses as u64,
    ));

    // The blocking client on an idle server.
    let mut client = plane.client();
    let stats = scaled(ctx, 12);
    let rtts_ms: Vec<f64> = (0..stats)
        .map(|_| {
            let start = Instant::now();
            black_box(client.stats().expect("stats"));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rows.push(Metric::new(
        "serve.client_rtt_ms",
        median(&rtts_ms),
        "ms",
        stats as u64,
    ));
    drop(client);

    // One cached submit at a time over TCP, and what the layers above do
    // not account for.
    let line = protocol::encode(&RequestFrame {
        id: 7,
        req: submit_request(),
    });
    let requests = scaled(ctx, 5000);
    let rtt_us = round_trips_us(&plane.addr, &line, requests);
    rows.push(Metric::new(
        "serve.request_rtt_us",
        rtt_us,
        "us",
        requests as u64,
    ));
    let accounted: f64 = [
        "net.echo_rtt_us",
        "serve.decode_us",
        "serve.admit_hit_us",
        "serve.encode_accepted_us",
    ]
    .iter()
    .map(|name| {
        rows.iter()
            .find(|m| m.name == *name)
            .expect("ledger order: layers before their remainder")
            .value
    })
    .sum();
    rows.push(Metric::new(
        "serve.request_unattributed_us",
        rtt_us - accounted,
        "us",
        requests as u64,
    ));

    // Hits through the blocking client: real figure specs (fig1's tiny
    // and small panels), executed once, then resubmitted by `T` clients.
    let warm_specs: Vec<JobSpec> = warm_plan().specs().cloned().collect();
    for s in &warm_specs {
        let snap = plane
            .service
            .submit(s.clone(), Priority::Normal)
            .expect("admit")
            .wait_terminal();
        assert!(snap.result.is_some(), "warm-pass priming job failed");
    }
    let resubmits = scaled(ctx, 24);
    let start = Instant::now();
    let hits = closed_loop(
        ctx.t,
        |_| plane.client(),
        |client, k| {
            let spec = warm_specs.get(k as usize % warm_specs.len())?;
            (k < resubmits as u64).then(|| {
                client
                    .submit_wait(spec, Priority::Normal)
                    .is_ok_and(|o| o.cached)
            })
        },
    );
    assert!(hits.iter().all(|d| d.out), "warm-pass job missed the cache");
    rows.push(Metric::new(
        "serve.warm_pass_jobs_per_s",
        hits.len() as f64 / start.elapsed().as_secs_f64(),
        "jobs/s",
        hits.len() as u64,
    ));
    plane.shutdown();
}

/// fig1's tiny and small panels: 30 cheap groups under the figure config.
fn warm_plan() -> eod_harness::figures::FigurePlan {
    let mut plan = figure_plan("fig1", &figure_config()).expect("fig1 has a plan");
    plan.panels.truncate(2);
    plan
}

// ---------------------------------------------------------------------------
// fleet and predict
// ---------------------------------------------------------------------------

fn fleet(ctx: &Ctx, rows: &mut Vec<Metric>) {
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    let sink: CompletionSink = Box::new(move |job, outcome, _| {
        assert!(
            matches!(outcome, FleetOutcome::Done { .. }),
            "canned job failed"
        );
        let _ = done_tx.send(job);
    });
    let coordinator = Coordinator::start(FleetConfig::default(), sink);
    let canned = Arc::new(String::from("{}"));
    let workers: Vec<_> = (0..ctx.t)
        .map(|i| {
            let (coord_end, worker_end) = LocalWire::pair();
            Coordinator::attach(&coordinator, coord_end);
            let canned = Arc::clone(&canned);
            let worker = Worker::with_executor(
                WorkerCapabilities {
                    name: format!("probe-worker-{i}"),
                    slots: 1,
                    devices: Vec::new(),
                },
                Arc::new(move |_: &JobSpec| Ok((*canned).clone())),
            );
            std::thread::spawn(move || worker.run(worker_end))
        })
        .collect();
    while coordinator.live_workers() < ctx.t {
        std::thread::sleep(Duration::from_micros(200));
    }
    let spec = primed_spec();
    let wait = |rx: &mpsc::Receiver<u64>| {
        rx.recv_timeout(Duration::from_secs(10))
            .expect("canned job completes")
    };

    // One job at a time: submit → completion sink.
    let serial = scaled(ctx, 300);
    let mut job = 0u64;
    let dispatch_us = per_call_us(5, serial / 5, || {
        coordinator.submit(job, spec.clone());
        wait(&done_rx);
        job += 1;
    });
    rows.push(Metric::new(
        "fleet.dispatch_us",
        dispatch_us,
        "us",
        serial as u64,
    ));

    // A backlog: everything submitted at once.
    let burst = scaled(ctx, 1000) as u64;
    let start = Instant::now();
    for i in 0..burst {
        coordinator.submit(job + i, spec.clone());
    }
    for _ in 0..burst {
        wait(&done_rx);
    }
    rows.push(Metric::new(
        "fleet.dispatch_per_s",
        burst as f64 / start.elapsed().as_secs_f64(),
        "1/s",
        burst,
    ));
    let completed = job + burst;
    rows.push(Metric::new(
        "fleet.attempts_per_job",
        prometheus_total(&coordinator.metrics_text(), "eod_fleet_dispatches_total")
            / completed as f64,
        "ratio",
        completed,
    ));
    coordinator.shutdown(Duration::from_secs(5));
    for w in workers {
        w.join()
            .expect("probe worker thread")
            .expect("probe worker wire");
    }

    // Grant and Completed through the wire codec, both directions.
    let grant = CoordMsg::Grant {
        lease: 9,
        job: 9,
        spec,
    };
    let completed_msg = WorkerMsg::Completed {
        lease: 9,
        job: 9,
        group: (*canned).clone(),
    };
    let n = scaled(ctx, 2000);
    rows.push(Metric::new(
        "fleet.msg_codec_us",
        per_call_us(5, n, || {
            let g = messages::encode(black_box(&grant));
            black_box(messages::decode::<CoordMsg>(&g).expect("grant decodes"));
            let c = messages::encode(black_box(&completed_msg));
            black_box(messages::decode::<WorkerMsg>(&c).expect("completed decodes"));
        }),
        "us",
        (5 * n) as u64,
    ));
}

fn predict(rows: &mut Vec<Metric>) {
    // The 25 distinct (benchmark, device) specs of `fleet_tiny`; the
    // predictor memoizes per benchmark × size, so the first of each
    // benchmark pays profile extraction.
    let specs: Vec<JobSpec> = FLEET_BENCHMARKS
        .iter()
        .flat_map(|b| {
            FLEET_DEVICES
                .iter()
                .map(move |d| smoke_spec(b, ProblemSize::Tiny, d, 0))
        })
        .collect();
    let predictor = Predictor::new();
    let time_all = || -> Vec<f64> {
        specs
            .iter()
            .map(|s| {
                let start = Instant::now();
                black_box(predictor.predict(s).expect("catalog spec predicts"));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };
    let cold = time_all();
    let warm = time_all();
    rows.push(Metric::new(
        "predict.cold_us",
        cold.iter().sum::<f64>() / cold.len() as f64,
        "us",
        cold.len() as u64,
    ));
    rows.push(Metric::new(
        "predict.warm_us",
        median(&warm),
        "us",
        warm.len() as u64,
    ));
}

// ---------------------------------------------------------------------------
// harness phases, tracing overhead, assembly
// ---------------------------------------------------------------------------

/// The slice of `B_sim` the harness rows are taken over: the GTX 1080
/// column of fig1, fig2a, fig3a and fig4 — the phase shapes of the
/// figure jobs at a twentieth of the batch's cost. (The irregular
/// slice's shape, a sample loop that is all gather pricing, is covered
/// by `clrt.replay_iter_us.csr` and `devsim.counters_us.gather`.)
fn harness_subset(ctx: &Ctx) -> Vec<JobSpec> {
    SimBatch::new(0, 1, ctx.smoke)
        .specs
        .into_iter()
        .filter(|s| s.device == "GTX 1080" && s.benchmark != "nw" && s.benchmark != "csr")
        .collect()
}

fn harness(ctx: &Ctx, rows: &mut Vec<Metric>) {
    let specs = harness_subset(ctx);
    let jobs = specs.len();
    let run = |tracer: Option<&Tracer>| {
        let start = Instant::now();
        let mut lane = tracer.map(|t| t.lane("harness probe"));
        for (k, spec) in specs.iter().enumerate() {
            execute_direct(spec, lane.as_mut(), k as u64).expect("subset job runs");
        }
        start.elapsed().as_secs_f64()
    };
    run(None); // histogram memo and predictor caches warm, as mid-workload
    let untraced_s = run(None);
    let tracer = Tracer::default();
    let traced_s = run(Some(&tracer));

    let phase = |pick: &dyn Fn(&str) -> bool| tracer.mean_ms_per_job(jobs, pick);
    let setup = phase(&|n| n == "setup");
    let first = phase(&|n| n == "first_iteration");
    let verify = phase(&|n| n == "verify");
    let samples = phase(&|n| n.starts_with("sample "));
    let whole = phase(&|n| n == "execute_spec");
    for (name, ms) in [
        ("harness.setup_ms", setup),
        ("harness.first_iter_ms", first),
        ("harness.verify_ms", verify),
        ("harness.sample_loop_ms", samples),
        (
            "harness.job_unattributed_ms",
            whole - (setup + first + verify + samples),
        ),
        ("harness.job_ms", whole),
    ] {
        rows.push(Metric::new(name, ms, "ms", jobs as u64));
    }
    rows.push(Metric::new(
        "telemetry.trace_overhead_frac",
        (traced_s - untraced_s) / untraced_s,
        "frac",
        jobs as u64,
    ));

    let sink = TraceSink::new();
    let spans = 20_000;
    rows.push(Metric::new(
        "telemetry.span_us",
        per_call_us(5, spans / 5, || {
            let mut g = sink.host_span("probe");
            g.arg("job", 1u64);
        }),
        "us",
        spans as u64,
    ));
}

/// Run the warm plan once; returns its results (a real 30-sample figure
/// result is the recorded input of the codec probes).
fn figure_results(rows: &mut Vec<Metric>) -> Vec<GroupResult> {
    let plan = warm_plan();
    let results: Vec<GroupResult> = plan
        .specs()
        .map(|s| execute_spec(s).expect("fig1 group runs"))
        .collect();
    let groups = results.len();
    let assemble_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let figure = plan.assemble(results.clone()).expect("plan assembles");
            let all = figure.all_groups();
            black_box(summary_csv(&all));
            black_box(samples_csv(&all));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rows.push(Metric::new(
        "harness.assemble_csv_ms",
        median(&assemble_ms),
        "ms",
        groups as u64,
    ));
    results
}

// ---------------------------------------------------------------------------
// devsim pricing and clrt replay, on recorded kernel profiles
// ---------------------------------------------------------------------------

/// Set `benchmark` up at medium on the GTX 1080, execute one iteration
/// for real, then time replayed iterations per launch. Returns the first
/// kernel's profile.
fn replay(ctx: &Ctx, benchmark: &str, rows: &mut Vec<Metric>) -> KernelProfile {
    let device = Platform::simulated()
        .device_by_name("GTX 1080")
        .expect("catalog device");
    let context = Context::new(device);
    let queue = CommandQueue::new(&context).with_profiling();
    let bench = registry::benchmark_by_name(benchmark).expect("registered benchmark");
    let mut workload = bench.workload(ProblemSize::Medium, 42);
    workload.setup(&context, &queue).expect("workload setup");
    let first = workload.run_iteration(&queue).expect("first iteration");
    let launches = first.kernel_launches();
    let profile = first
        .events
        .iter()
        .find_map(|e| e.profile.clone())
        .expect("kernel events carry their profile");
    queue.set_replay(true);
    // Replayed launches cost from microseconds (crc) to tens of
    // milliseconds (csr); iterate for a fixed budget, at least twice.
    let budget = Duration::from_millis(if ctx.smoke { 30 } else { 200 });
    let start = Instant::now();
    let mut iterations = 0u64;
    while iterations < 2 || start.elapsed() < budget {
        black_box(workload.run_iteration(&queue).expect("replayed iteration"));
        iterations += 1;
    }
    rows.push(Metric::new(
        format!("clrt.replay_iter_us.{benchmark}"),
        start.elapsed().as_secs_f64() * 1e6 / (iterations * launches as u64) as f64,
        "us",
        iterations * launches as u64,
    ));
    profile
}

fn devsim_and_replay(ctx: &Ctx, rows: &mut Vec<Metric>) {
    let streaming = replay(ctx, "crc", rows);
    let gather = replay(ctx, "csr", rows);
    replay(ctx, "lud", rows);

    let device = Platform::simulated()
        .device_by_name("GTX 1080")
        .expect("catalog device");
    let Timing::Modeled(sim) = device.timing() else {
        unreachable!("catalog devices are simulated");
    };
    let n = scaled(ctx, 2000);
    rows.push(Metric::new(
        "devsim.predict_us",
        per_call_us(5, n, || {
            black_box(sim.model.predict(black_box(&streaming)));
        }),
        "us",
        (5 * n) as u64,
    ));
    // Counter synthesis through the session's default cache engine, memo
    // warm (the replays above ran it on both profiles).
    for (name, profile, calls) in [
        ("devsim.counters_us.streaming", &streaming, n),
        ("devsim.counters_us.gather", &gather, scaled(ctx, 4)),
    ] {
        let cost = sim.model.predict(profile);
        rows.push(Metric::new(
            name,
            per_call_us(3, calls, || {
                black_box(sim.counters(black_box(profile), &cost));
            }),
            "us",
            (3 * calls) as u64,
        ));
    }
}

// ---------------------------------------------------------------------------
// clrt on the native backend: kernels defined here
// ---------------------------------------------------------------------------

fn clrt_native(ctx: &Ctx, rows: &mut Vec<Metric>) {
    let context = Context::new(Device::native());
    let queue = CommandQueue::new(&context).with_profiling();
    let launch = |items: usize, launches: usize| {
        let data = context.create_buffer::<f32>(items).expect("alloc");
        let kernel = ClosureKernel::new("probe_scale", items as u64, {
            let view = data.view();
            move |item: &WorkItem| {
                let i = item.global_id(0);
                view.set(i, view.get(i) * 1.000_1 + 1.0);
            }
        });
        let range = NdRange::d1(items, 64);
        per_call_us(5, launches / 5, || {
            black_box(queue.enqueue_kernel(&kernel, &range).expect("launch"));
        })
    };
    let small = scaled(ctx, 5000);
    rows.push(Metric::new(
        "clrt.launch_small_us",
        launch(256, small),
        "us",
        small as u64,
    ));
    let large = scaled(ctx, 50);
    let items = 1 << 20;
    rows.push(Metric::new(
        "clrt.launch_1m_items_per_s",
        items as f64 / (launch(items, large) * 1e-6),
        "items/s",
        large as u64,
    ));

    let len = (4 << 20) / std::mem::size_of::<f32>();
    let buffer = context.create_buffer::<f32>(len).expect("alloc");
    let mut host = vec![1.0f32; len];
    let copies = scaled(ctx, 100);
    let round_trip_us = per_call_us(5, copies / 5, || {
        queue.enqueue_write_buffer(&buffer, &host).expect("write");
        queue.enqueue_read_buffer(&buffer, &mut host).expect("read");
    });
    rows.push(Metric::new(
        "clrt.transfer_gib_per_s",
        // 4 MiB written plus 4 MiB read back per round trip.
        (2.0 * 4.0 / 1024.0) / (round_trip_us * 1e-6),
        "GiB/s",
        copies as u64,
    ));
}

/// One job per native (benchmark, size) pair: the kernel rows of
/// `native_kernels`, at a tenth of the workload's job count.
fn native_kernel_rows(rows: &mut Vec<Metric>) {
    let per_job: Vec<(usize, Vec<f64>)> = NATIVE_PAIRS
        .iter()
        .enumerate()
        .map(|(p, &pair)| {
            let result = execute_spec(&native_spec(pair, 42)).expect("native job runs");
            assert!(result.verified, "{} failed verification", pair.0);
            (p, result.kernel_ms)
        })
        .collect();
    rows.extend(kernel_rows(&per_job));
}

/// Name, unit and better-direction of every ledger row, in the order
/// [`ledger`] produces them and `BENCHMARK.json` lists them.
pub fn schema() -> Vec<(String, &'static str, &'static str)> {
    const FIXED: [(&str, &str, &str); 47] = [
        ("process.peak_rss_mib", "MiB", "lower"),
        ("harness.assemble_csv_ms", "ms", "lower"),
        ("core.spec_key_us", "us", "lower"),
        ("core.spec_json_us", "us", "lower"),
        ("serve.decode_us", "us", "lower"),
        ("serve.encode_accepted_us", "us", "lower"),
        ("serve.encode_result_us", "us", "lower"),
        ("harness.result_json_us", "us", "lower"),
        ("scibench.summary_us", "us", "lower"),
        ("net.frame_us", "us", "lower"),
        ("net.echo_rtt_us", "us", "lower"),
        ("net.echo_per_s", "1/s", "higher"),
        ("serve.admit_hit_us", "us", "lower"),
        ("serve.board_bytes_per_job", "bytes", "lower"),
        ("serve.miss_overhead_us", "us", "lower"),
        ("serve.client_rtt_ms", "ms", "lower"),
        ("serve.request_rtt_us", "us", "lower"),
        ("serve.request_unattributed_us", "us", "lower"),
        ("serve.warm_pass_jobs_per_s", "jobs/s", "higher"),
        ("serve.board_create_us.at0", "us", "lower"),
        ("serve.board_create_us.at400k", "us", "lower"),
        ("serve.cache_insert_us", "us", "lower"),
        ("serve.cache_get_us", "us", "lower"),
        ("serve.queue_push_pop_us", "us", "lower"),
        ("fleet.dispatch_us", "us", "lower"),
        ("fleet.dispatch_per_s", "1/s", "higher"),
        ("fleet.attempts_per_job", "ratio", "lower"),
        ("fleet.msg_codec_us", "us", "lower"),
        ("predict.cold_us", "us", "lower"),
        ("predict.warm_us", "us", "lower"),
        ("harness.setup_ms", "ms", "lower"),
        ("harness.first_iter_ms", "ms", "lower"),
        ("harness.verify_ms", "ms", "lower"),
        ("harness.sample_loop_ms", "ms", "lower"),
        ("harness.job_unattributed_ms", "ms", "lower"),
        ("harness.job_ms", "ms", "lower"),
        ("telemetry.trace_overhead_frac", "frac", "lower"),
        ("telemetry.span_us", "us", "lower"),
        ("clrt.replay_iter_us.crc", "us", "lower"),
        ("clrt.replay_iter_us.csr", "us", "lower"),
        ("clrt.replay_iter_us.lud", "us", "lower"),
        ("devsim.predict_us", "us", "lower"),
        ("devsim.counters_us.streaming", "us", "lower"),
        ("devsim.counters_us.gather", "us", "lower"),
        ("clrt.launch_small_us", "us", "lower"),
        ("clrt.launch_1m_items_per_s", "items/s", "higher"),
        ("clrt.transfer_gib_per_s", "GiB/s", "higher"),
    ];
    let mut rows: Vec<(String, &str, &str)> = FIXED
        .iter()
        .map(|&(name, unit, better)| (name.to_string(), unit, better))
        .collect();
    for pair in NATIVE_PAIRS {
        let label = native_label(pair);
        let derived = match label.as_str() {
            "synth.kernel_ms.stream" => Some(("synth.stream_gb_per_s", "GB/s")),
            "synth.kernel_ms.gups" => Some(("synth.gups", "GUPS")),
            _ => None,
        };
        rows.push((label, "ms", "lower"));
        if let Some((name, unit)) = derived {
            rows.push((name.to_string(), unit, "higher"));
        }
    }
    rows
}

/// Every per-layer metric, in `BENCHMARK.json` order. `pass_peak_rss_mib`
/// is the process's `VmHWM` after the traced workload pass, read before
/// any probe below has allocated.
pub fn ledger(ctx: &Ctx, pass_peak_rss_mib: f64) -> Vec<Metric> {
    let mut rows = vec![Metric::new(
        "process.peak_rss_mib",
        pass_peak_rss_mib,
        "MiB",
        1,
    )];
    let figure = figure_results(&mut rows);
    // A mid-sized real result: crc small on the GTX 1080, 30 samples
    // with energy and counters.
    let recorded = figure
        .iter()
        .find(|g| g.size == "small" && g.device == "GTX 1080")
        .expect("fig1 covers the GTX 1080");
    core_and_codec(ctx, recorded, &mut rows);
    net_echo(ctx, &mut rows);
    // Before anything large is allocated and freed: the admit probe reads
    // its memory cost off the process's resident set.
    serve_plane(ctx, &mut rows);
    serve_structures(ctx, recorded, &mut rows);
    fleet(ctx, &mut rows);
    predict(&mut rows);
    harness(ctx, &mut rows);
    devsim_and_replay(ctx, &mut rows);
    clrt_native(ctx, &mut rows);
    native_kernel_rows(&mut rows);
    let names: Vec<(&str, &str)> = rows.iter().map(|m| (&m.name[..], &m.unit[..])).collect();
    let want = schema();
    let want: Vec<(&str, &str)> = want.iter().map(|(n, u, _)| (&n[..], *u)).collect();
    assert_eq!(names, want, "ledger rows drifted from their schema");
    rows
}

//! End-to-end tests of the reactor transport: request pipelining with
//! id-tagged frames, push streaming for waited submits and
//! subscriptions, typed per-request admission rejections under a full
//! queue (including high-priority shedding), malformed-line survival,
//! graceful drain, and byte-identity of figure batches with the
//! blocking transport.

#![cfg(target_os = "linux")]

use eod_core::sizes::ProblemSize;
use eod_core::spec::{ExecConfig, JobSpec, Priority, NATIVE_DEVICE};
use eod_harness::RunnerConfig;
use eod_net::NetConfig;
use eod_serve::protocol::{
    codes, decode_response, encode, write_line, Request, RequestFrame, Response,
};
use eod_serve::{NetServer, ServeConfig, Server, Service};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn smoke_serve(workers: usize, queue_capacity: usize, cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity,
        cache_capacity,
        runner: RunnerConfig::smoke(),
    }
}

fn spec(benchmark: &str, device: &str, seed: u64) -> JobSpec {
    let mut config = RunnerConfig::smoke().to_exec();
    config.seed = seed;
    JobSpec {
        benchmark: benchmark.to_string(),
        size: ProblemSize::Tiny,
        device: device.to_string(),
        config,
    }
}

/// A spec that holds a worker for roughly `secs` of *wall clock*: the
/// native backend's loop floor is measured on the host clock, so the
/// sample spins until it elapses.
fn slow_native_spec(secs: u64, seed: u64) -> JobSpec {
    JobSpec {
        benchmark: "crc".to_string(),
        size: ProblemSize::Tiny,
        device: NATIVE_DEVICE.to_string(),
        config: ExecConfig {
            samples: 1,
            min_loop: Duration::from_secs(secs),
            max_iters_per_sample: usize::MAX / 2,
            verify: false,
            real_execution: true,
            energy_all_devices: false,
            seed,
            timeout: None,
        },
    }
}

/// A pipelined test client: writes id-tagged frames, reads enveloped
/// responses. Reads carry a generous timeout so a server stall fails the
/// test instead of hanging it.
struct Pipe {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Pipe {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Self {
            writer: stream,
            reader,
        }
    }

    fn send_raw(&mut self, line: &str) {
        write_line(&mut self.writer, line.to_string()).expect("write");
    }

    fn send(&mut self, id: u64, req: Request) {
        self.send_raw(&encode(&RequestFrame { id, req }));
    }

    /// Next response line; `None` on clean EOF.
    fn recv(&mut self) -> Option<(Option<u64>, Response)> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(decode_response(&line).expect("parseable response")),
            Err(e) => panic!("read: {e}"),
        }
    }

    fn recv_some(&mut self) -> (Option<u64>, Response) {
        self.recv().expect("unexpected EOF")
    }
}

fn start_net(cfg: ServeConfig) -> (Arc<Service>, NetServer) {
    start_net_with(cfg, NetConfig::default())
}

fn start_net_with(cfg: ServeConfig, net: NetConfig) -> (Arc<Service>, NetServer) {
    let service = Service::start(cfg);
    let server = NetServer::start(Arc::clone(&service), "127.0.0.1:0", net).expect("bind reactor");
    (service, server)
}

#[test]
fn pipelined_submits_answer_every_id_exactly_once() {
    let (_service, server) = start_net(smoke_serve(2, 64, 64));
    let mut pipe = Pipe::connect(&server.local_addr().to_string());

    // One burst, many requests in flight; no reads until all are written.
    let n = 32u64;
    for id in 0..n {
        pipe.send(
            id,
            Request::Submit {
                spec: spec("crc", "GTX 1080", 1000 + id),
                priority: Priority::Normal,
                wait: false,
            },
        );
    }
    let mut seen = vec![false; n as usize];
    for _ in 0..n {
        let (id, resp) = pipe.recv_some();
        let id = id.expect("framed request gets a framed response");
        assert!(
            matches!(resp, Response::Accepted { .. }),
            "submit {id} answered {resp:?}"
        );
        assert!(!seen[id as usize], "duplicate response for id {id}");
        seen[id as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "every pipelined id was answered");

    server.shutdown();
    server.wait().expect("reactor exits cleanly");
}

#[test]
fn waited_submit_streams_status_frames_then_result_under_one_id() {
    let (_service, server) = start_net(smoke_serve(1, 64, 64));
    let mut pipe = Pipe::connect(&server.local_addr().to_string());

    pipe.send(
        7,
        Request::Submit {
            spec: spec("fft", "K40m", 2001),
            priority: Priority::Normal,
            wait: true,
        },
    );
    let (id, first) = pipe.recv_some();
    assert_eq!(id, Some(7));
    assert!(matches!(first, Response::Accepted { .. }), "{first:?}");
    // Every push until the terminal Result carries the same id.
    loop {
        let (id, resp) = pipe.recv_some();
        assert_eq!(id, Some(7), "push frames carry the originating id");
        match resp {
            Response::Status { job: _, state } => {
                assert!(!state.is_empty());
            }
            Response::Result { state, group, .. } => {
                assert_eq!(state, "done");
                assert!(group.is_some(), "done result carries the stored JSON");
                break;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }

    // The same spec again: terminal at registration (cache hit) must
    // still ack before the result, in order.
    pipe.send(
        8,
        Request::Submit {
            spec: spec("fft", "K40m", 2001),
            priority: Priority::Normal,
            wait: true,
        },
    );
    let (id, ack) = pipe.recv_some();
    assert_eq!(id, Some(8));
    let Response::Accepted { cached, .. } = ack else {
        panic!("expected Accepted, got {ack:?}");
    };
    assert!(cached, "second identical submit is answered from the cache");
    let (id, result) = pipe.recv_some();
    assert_eq!(id, Some(8));
    assert!(
        matches!(result, Response::Result { cached: true, .. }),
        "{result:?}"
    );

    server.shutdown();
    server.wait().expect("reactor exits cleanly");
}

#[test]
fn subscribe_acks_then_pushes_until_terminal() {
    let (service, server) = start_net(smoke_serve(1, 64, 64));
    let mut pipe = Pipe::connect(&server.local_addr().to_string());

    // A job the worker will take a while to finish, so the subscription
    // races a genuinely in-flight job.
    let rec = service
        .submit(slow_native_spec(2, 42), Priority::Normal)
        .expect("admitted");
    pipe.send(1, Request::Subscribe { job: rec.id });
    let (id, ack) = pipe.recv_some();
    assert_eq!(id, Some(1));
    assert!(matches!(ack, Response::Subscribed { .. }), "{ack:?}");
    let mut saw_terminal = false;
    while !saw_terminal {
        let (id, resp) = pipe.recv_some();
        assert_eq!(id, Some(1));
        match resp {
            Response::Status { .. } => {}
            Response::Result { state, .. } => {
                assert_eq!(state, "done");
                saw_terminal = true;
            }
            other => panic!("unexpected push {other:?}"),
        }
    }

    // Subscribing to a finished job: ack, then the result immediately.
    pipe.send(2, Request::Subscribe { job: rec.id });
    let (_, ack) = pipe.recv_some();
    assert!(matches!(ack, Response::Subscribed { .. }), "{ack:?}");
    let (_, result) = pipe.recv_some();
    assert!(matches!(result, Response::Result { .. }), "{result:?}");

    // Unknown jobs are a typed error.
    pipe.send(3, Request::Subscribe { job: 999_999 });
    let (id, resp) = pipe.recv_some();
    assert_eq!(id, Some(3));
    let Response::Error { code, .. } = resp else {
        panic!("expected error, got {resp:?}");
    };
    assert_eq!(code, codes::UNKNOWN_JOB);

    server.shutdown();
    server.wait().expect("reactor exits cleanly");
}

#[test]
fn malformed_lines_get_a_typed_error_and_the_connection_survives() {
    let (_service, server) = start_net(smoke_serve(1, 8, 8));
    let mut pipe = Pipe::connect(&server.local_addr().to_string());

    // Garbage, an unknown request shape, and then a good framed request —
    // all pipelined on the same connection.
    pipe.send_raw("this is not json");
    pipe.send_raw("{\"Frobnicate\":{}}");
    pipe.send(5, Request::Stats);

    for _ in 0..2 {
        let (id, resp) = pipe.recv_some();
        assert_eq!(id, None, "an unparseable line has no id to echo");
        let Response::Error { code, .. } = resp else {
            panic!("expected bad_request, got {resp:?}");
        };
        assert_eq!(code, codes::BAD_REQUEST);
    }
    let (id, resp) = pipe.recv_some();
    assert_eq!(id, Some(5), "the connection kept working after bad lines");
    assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");

    server.shutdown();
    server.wait().expect("reactor exits cleanly");
}

/// The backpressure-composition satellite: with one worker pinned and
/// the queue full, pipelined submits are refused *per request* (typed
/// errors on their own ids — never a stalled or torn connection),
/// high-priority submits shed queued normal work (whose waiters see the
/// displacement immediately), an all-high queue refuses even high
/// submits, and every rejection is visible in the admission metrics.
#[test]
fn full_queue_rejects_per_request_and_high_sheds_normal_first() {
    backpressure_composition(NetConfig::default());
}

/// The same composition must hold verbatim when the transport is a
/// sharded multi-reactor: per-request refusals, shedding, and drain are
/// connection-level semantics that cannot depend on which loop owns the
/// socket.
#[test]
fn full_queue_composition_holds_with_two_shards() {
    backpressure_composition(NetConfig {
        shards: 2,
        ..NetConfig::default()
    });
}

fn backpressure_composition(net_config: NetConfig) {
    let (service, server) = start_net_with(smoke_serve(1, 2, 64), net_config);
    let addr = server.local_addr().to_string();
    let mut pipe = Pipe::connect(&addr);

    // Pin the only worker on a wall-clock-slow native job.
    let blocker = service
        .submit(slow_native_spec(6, 7), Priority::Normal)
        .expect("admitted");
    let pinned = Instant::now();
    while !service
        .job(blocker.id)
        .unwrap()
        .snapshot()
        .phase
        .to_string()
        .eq("running")
    {
        assert!(
            pinned.elapsed() < Duration::from_secs(5),
            "worker never took the blocker"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let submit = |seed: u64, priority: Priority| Request::Submit {
        spec: spec("crc", "GTX 1080", seed),
        priority,
        wait: true,
    };

    // Fill the queue: capacity 2, both normal.
    pipe.send(1, submit(101, Priority::Normal)); // n1
    pipe.send(2, submit(102, Priority::Normal)); // n2
    for want in [1u64, 2] {
        let (id, resp) = pipe.recv_some();
        assert_eq!(id, Some(want));
        assert!(matches!(resp, Response::Accepted { .. }), "{resp:?}");
    }

    // A normal submit at capacity: its own typed refusal, nothing stalls.
    pipe.send(3, submit(103, Priority::Normal));
    let (id, resp) = pipe.recv_some();
    assert_eq!(id, Some(3));
    let Response::Error { code, .. } = resp else {
        panic!("expected queue_full, got {resp:?}");
    };
    assert_eq!(code, codes::QUEUE_FULL);

    // High-priority submits shed the queued normal jobs, newest first:
    // h1 displaces n2, h2 displaces n1. Each victim's waiter sees a
    // pushed Failed result carrying the shed marker.
    pipe.send(4, submit(104, Priority::High)); // h1
    pipe.send(5, submit(105, Priority::High)); // h2
    let mut accepted = Vec::new();
    let mut shed = Vec::new();
    while accepted.len() < 2 || shed.len() < 2 {
        let (id, resp) = pipe.recv_some();
        let id = id.expect("framed");
        match resp {
            Response::Accepted { .. } => accepted.push(id),
            Response::Result { state, error, .. } => {
                assert_eq!(state, "failed");
                let error = error.unwrap_or_default();
                assert!(
                    error.starts_with("shed:"),
                    "victim {id} failed for another reason: {error}"
                );
                shed.push(id);
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
    accepted.sort_unstable();
    shed.sort_unstable();
    assert_eq!(accepted, [4, 5], "both high submits were admitted");
    assert_eq!(shed, [1, 2], "both queued normal jobs were displaced");

    // The queue is now all-high: nothing sheddable, high refuses too.
    pipe.send(6, submit(106, Priority::High));
    let (id, resp) = pipe.recv_some();
    assert_eq!(id, Some(6));
    let Response::Error { code, .. } = resp else {
        panic!("expected queue_full, got {resp:?}");
    };
    assert_eq!(code, codes::QUEUE_FULL);

    // Every refusal and shed above is a visible admission metric.
    pipe.send(9, Request::Metrics);
    let (id, resp) = pipe.recv_some();
    assert_eq!(id, Some(9));
    let Response::Metrics { text } = resp else {
        panic!("expected metrics, got {resp:?}");
    };
    assert!(text.contains(
        "eod_admission_rejections_total{priority=\"normal\",reason=\"shed_low_priority\"} 2\n"
    ));
    assert!(text
        .contains("eod_admission_rejections_total{priority=\"normal\",reason=\"queue_full\"} 1\n"));
    assert!(text
        .contains("eod_admission_rejections_total{priority=\"high\",reason=\"queue_full\"} 1\n"));
    // The reactor's own surface rides along on the same scrape.
    assert!(text.contains("eod_net_connections 1\n"));
    assert!(text.contains("eod_net_accepts_total 1\n"));

    // Graceful shutdown drains: the admitted high jobs still stream
    // their terminal results (after the blocker yields the worker)
    // before the connection closes.
    pipe.send(10, Request::Shutdown);
    let mut done = Vec::new();
    loop {
        match pipe.recv() {
            None => break,
            Some((id, Response::Result { state, .. })) => {
                assert_eq!(state, "done");
                done.push(id.unwrap());
            }
            Some((id, Response::Bye)) => assert_eq!(id, Some(10)),
            Some((_, Response::Status { .. })) => {}
            Some((id, other)) => panic!("unexpected frame {id:?} {other:?}"),
        }
    }
    done.sort_unstable();
    assert_eq!(done, [4, 5], "shutdown flushed the in-flight results");
    server.wait().expect("reactor exits cleanly");
}

#[test]
fn figure_batches_are_byte_identical_across_transports_and_shard_counts() {
    // The blocking transport's figure output is the reference; every
    // reactor shape (single shard, sharded) must serve the same bytes
    // for the same batch.
    let blocking_service = Service::start(smoke_serve(2, 64, 256));
    let blocking = Server::bind(Arc::clone(&blocking_service), "127.0.0.1:0").expect("bind");
    let blocking_addr = blocking.local_addr();
    let blocking_thread = std::thread::spawn(move || {
        let _ = blocking.run();
    });

    let figure_over = |addr: String| {
        let mut pipe = Pipe::connect(&addr);
        pipe.send(1, Request::Figure { id: "fig2a".into() });
        let (_, resp) = pipe.recv_some();
        let Response::Figure { rendered, jobs, .. } = resp else {
            panic!("expected figure, got {resp:?}");
        };
        (rendered, jobs)
    };

    // The blocking transport speaks bare (unframed) lines — same
    // protocol types, no envelopes.
    let mut bare = Pipe::connect(&blocking_addr.to_string());
    bare.send_raw(&encode(&Request::Figure { id: "fig2a".into() }));
    let (id, resp) = bare.recv_some();
    assert_eq!(id, None, "a bare request gets a bare response");
    let Response::Figure {
        rendered: blocking_rendered,
        jobs: blocking_jobs,
        ..
    } = resp
    else {
        panic!("expected figure, got {resp:?}");
    };

    for shards in [1usize, 2] {
        let (_, net) = start_net_with(
            smoke_serve(2, 64, 256),
            NetConfig {
                shards,
                ..NetConfig::default()
            },
        );
        let (net_rendered, net_jobs) = figure_over(net.local_addr().to_string());
        assert_eq!(net_jobs, blocking_jobs, "{shards}-shard job count differs");
        assert_eq!(
            net_rendered, blocking_rendered,
            "figure bytes must not depend on the transport ({shards} shards)"
        );
        net.shutdown();
        net.wait().expect("reactor exits cleanly");
    }

    let mut c = eod_serve::Client::connect(&blocking_addr.to_string()).unwrap();
    c.shutdown().unwrap();
    blocking_thread.join().unwrap();
}

/// Guards against write-write-read under Nagle + delayed ACK: a blocking
/// `Client` request split over two writes (line, then `\n`), or a blocking
/// `Server` response sent the same way on a socket without `TCP_NODELAY`,
/// waits ~40 ms on the peer's delayed ACK — 50 idle round trips took
/// ≈ 2.2 s on either transport. They must stay well under that.
#[test]
fn blocking_client_round_trips_do_not_stall_on_either_transport() {
    let rtt_50 = |addr: String| {
        let mut c = eod_serve::Client::connect(&addr).unwrap();
        c.stats().unwrap(); // connection set-up is not what is timed
        let start = Instant::now();
        for _ in 0..50 {
            c.stats().unwrap();
        }
        (start.elapsed(), c)
    };

    let (_service, net) = start_net(smoke_serve(1, 8, 8));
    let (reactor, _) = rtt_50(net.local_addr().to_string());
    net.shutdown();
    net.wait().expect("reactor exits cleanly");
    assert!(
        reactor < Duration::from_millis(500),
        "50 round trips against the reactor took {reactor:?}"
    );

    let service = Service::start(smoke_serve(1, 8, 8));
    let server = Server::bind(service, "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || {
        let _ = server.run();
    });
    let (blocking, mut c) = rtt_50(addr);
    c.shutdown().unwrap();
    thread.join().unwrap();
    assert!(
        blocking < Duration::from_millis(500),
        "50 round trips against the blocking server took {blocking:?}"
    );
}

/// The accept-sharding satellite: at a few hundred connections the
/// kernel's `SO_REUSEPORT` hash (or the round-robin fallback) must land
/// work on every shard — no loop sits idle while another owns the whole
/// fleet. Each connection round-trips a request so the count reflects
/// served conns, not just SYNs.
#[test]
fn connections_distribute_across_all_shards() {
    let (_service, server) = start_net_with(
        smoke_serve(1, 64, 64),
        NetConfig {
            shards: 2,
            ..NetConfig::default()
        },
    );
    assert_eq!(server.shard_count(), 2);
    let addr = server.local_addr().to_string();

    let total = 500usize;
    let mut pipes: Vec<Pipe> = Vec::with_capacity(total);
    for _ in 0..total {
        pipes.push(Pipe::connect(&addr));
    }
    for (i, pipe) in pipes.iter_mut().enumerate() {
        pipe.send(i as u64, Request::Stats);
    }
    for (i, pipe) in pipes.iter_mut().enumerate() {
        let (id, resp) = pipe.recv_some();
        assert_eq!(id, Some(i as u64));
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
    }

    let per_shard: Vec<usize> = server
        .shard_metrics()
        .iter()
        .map(|m| m.accepts.get() as usize)
        .collect();
    assert_eq!(per_shard.iter().sum::<usize>(), total);
    assert!(
        per_shard.iter().all(|&a| a > 0),
        "a shard accepted nothing out of {total} connections: {per_shard:?}"
    );

    drop(pipes);
    server.shutdown();
    server.wait().expect("reactor exits cleanly");
}

/// Coordinated shutdown must drain every shard, not just the one that
/// carried the Shutdown request: waited submits held by connections on
/// *other* loops still stream their terminal results before EOF.
#[test]
fn graceful_shutdown_drains_waited_jobs_on_every_shard() {
    let (_service, server) = start_net_with(
        smoke_serve(2, 64, 64),
        NetConfig {
            shards: 2,
            // Deterministic placement: conn 1 -> shard 0, conn 2 -> shard 1.
            force_round_robin_accept: true,
            ..NetConfig::default()
        },
    );
    let addr = server.local_addr().to_string();

    let mut a = Pipe::connect(&addr);
    let mut b = Pipe::connect(&addr);
    a.send(
        1,
        Request::Submit {
            spec: slow_native_spec(2, 501),
            priority: Priority::Normal,
            wait: true,
        },
    );
    b.send(
        2,
        Request::Submit {
            spec: slow_native_spec(2, 502),
            priority: Priority::Normal,
            wait: true,
        },
    );
    let (id, ack) = a.recv_some();
    assert_eq!(id, Some(1));
    assert!(matches!(ack, Response::Accepted { .. }), "{ack:?}");
    let (id, ack) = b.recv_some();
    assert_eq!(id, Some(2));
    assert!(matches!(ack, Response::Accepted { .. }), "{ack:?}");

    // Both shards own a waiting connection before the shutdown lands.
    let per_shard: Vec<usize> = server
        .shard_metrics()
        .iter()
        .map(|m| m.accepts.get() as usize)
        .collect();
    assert_eq!(per_shard, vec![1, 1], "round-robin placement was not even");

    // Shutdown arrives on shard 0's connection; shard 1's waiter must
    // still see its Result before the drain closes the socket.
    a.send(3, Request::Shutdown);
    let drain = |pipe: &mut Pipe, want: u64| {
        let mut saw_result = false;
        loop {
            match pipe.recv() {
                None => break,
                Some((id, Response::Result { state, .. })) => {
                    assert_eq!(id, Some(want));
                    assert_eq!(state, "done");
                    saw_result = true;
                }
                Some((_, Response::Status { .. })) => {}
                Some((id, Response::Bye)) => assert_eq!(id, Some(3)),
                Some((id, other)) => panic!("unexpected frame {id:?} {other:?}"),
            }
        }
        saw_result
    };
    assert!(drain(&mut a, 1), "shard 0's waiter lost its result");
    assert!(drain(&mut b, 2), "shard 1's waiter lost its result");
    server.wait().expect("all shards exit cleanly");
}

//! End-to-end tests of the execution service: cache keying and
//! determinism, concurrent clients against the direct runner, typed
//! admission and timeout errors, and the figure-batch cache round trip.

use eod_core::sizes::ProblemSize;
use eod_core::spec::{JobSpec, Priority};
use eod_harness::{Runner, RunnerConfig};
use eod_serve::{Client, ClientError, ServeConfig, Server, Service};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn smoke_serve(workers: usize, queue_capacity: usize, cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        workers,
        queue_capacity,
        cache_capacity,
        runner: RunnerConfig::smoke(),
    }
}

fn spec(benchmark: &str, size: ProblemSize, device: &str, config: &RunnerConfig) -> JobSpec {
    JobSpec {
        benchmark: benchmark.to_string(),
        size,
        device: device.to_string(),
        config: config.to_exec(),
    }
}

fn kernel_ms(json: &str) -> Vec<f64> {
    let v: serde::Value = serde_json::from_str(json).expect("stored JSON parses");
    let serde::Value::Seq(samples) = v.get_field("kernel_ms") else {
        panic!("kernel_ms missing in {json}");
    };
    samples
        .iter()
        .map(|x| match x {
            serde::Value::F64(f) => *f,
            other => panic!("non-float sample {other:?}"),
        })
        .collect()
}

fn start_server(cfg: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let service = Service::start(cfg);
    let server = Server::bind(service, "127.0.0.1:0").expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    (addr, handle)
}

fn stop_server(addr: SocketAddr, handle: std::thread::JoinHandle<()>) {
    Client::connect(&addr.to_string())
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    handle.join().expect("server thread exits cleanly");
}

#[test]
fn identical_specs_share_one_cached_result_byte_for_byte() {
    let svc = Service::start(smoke_serve(2, 64, 64));
    let s = spec("crc", ProblemSize::Tiny, "GTX 1080", &RunnerConfig::smoke());

    let first = svc
        .submit(s.clone(), Priority::Normal)
        .unwrap()
        .wait_terminal();
    assert!(!first.cached, "first submission executes");
    let second = svc
        .submit(s.clone(), Priority::Normal)
        .unwrap()
        .wait_terminal();
    assert!(second.cached, "second submission hits the cache");
    assert_eq!(
        first.json, second.json,
        "cache hit returns the stored JSON byte-identical"
    );

    // Any semantic change to the spec is a different content address.
    let mut reseeded = s.clone();
    reseeded.config.seed += 1;
    assert_ne!(reseeded.spec_key(), s.spec_key());
    let third = svc
        .submit(reseeded, Priority::Normal)
        .unwrap()
        .wait_terminal();
    assert!(!third.cached, "a changed seed misses");
    assert_ne!(
        first.json, third.json,
        "different noise stream, different samples"
    );

    let stats = svc.cache_stats();
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 2);
    svc.shutdown();
}

#[test]
fn cached_results_match_the_direct_runner() {
    // The soundness claim behind the cache: serving a stored result is
    // indistinguishable (in modeled quantities) from re-running the spec.
    let config = RunnerConfig::smoke();
    let svc = Service::start(smoke_serve(2, 64, 64));
    let s = spec("fft", ProblemSize::Tiny, "K40m", &config);
    let served = svc.submit(s, Priority::Normal).unwrap().wait_terminal();

    let runner = Runner::new(config);
    let bench = eod_dwarfs::registry::benchmark_by_name("fft").unwrap();
    let device = eod_clrt::Platform::simulated()
        .device_by_name("K40m")
        .unwrap();
    let direct = runner
        .run_group(bench.as_ref(), ProblemSize::Tiny, device)
        .unwrap();
    assert_eq!(kernel_ms(served.json.as_deref().unwrap()), direct.kernel_ms);
    svc.shutdown();
}

#[test]
fn lru_eviction_respects_capacity() {
    let svc = Service::start(smoke_serve(1, 64, 2));
    let cfg = RunnerConfig::smoke();
    let s1 = spec("crc", ProblemSize::Tiny, "i7-6700K", &cfg);
    let s2 = spec("crc", ProblemSize::Tiny, "GTX 1080", &cfg);
    let s3 = spec("crc", ProblemSize::Tiny, "K40m", &cfg);
    for s in [&s1, &s2, &s3] {
        svc.submit(s.clone(), Priority::Normal)
            .unwrap()
            .wait_terminal();
    }
    assert_eq!(svc.cache_stats().entries, 2, "capacity bound holds");
    // s1 was the least recently used and is gone; s3 is resident.
    let again3 = svc.submit(s3, Priority::Normal).unwrap().wait_terminal();
    assert!(again3.cached);
    let again1 = svc.submit(s1, Priority::Normal).unwrap().wait_terminal();
    assert!(!again1.cached, "evicted entry re-executes");
    svc.shutdown();
}

#[test]
fn concurrent_clients_get_direct_runner_results() {
    // All eleven benchmarks at tiny on three devices, hammered by four
    // client threads over TCP; every result must equal the single-threaded
    // direct runner's modeled samples.
    let config = RunnerConfig::smoke();
    let devices = ["i7-6700K", "GTX 1080", "K40m"];
    let benchmarks: Vec<String> = eod_dwarfs::registry::all_benchmarks()
        .iter()
        .map(|b| b.name().to_string())
        .collect();
    assert_eq!(benchmarks.len(), 11, "the paper's eleven");

    let specs: Vec<JobSpec> = benchmarks
        .iter()
        .flat_map(|b| {
            devices
                .iter()
                .map(|d| spec(b, ProblemSize::Tiny, d, &config))
        })
        .collect();

    // Direct reference, computed once, single-threaded.
    let runner = Runner::new(config);
    let platform = eod_clrt::Platform::simulated();
    let reference: Vec<Vec<f64>> = specs
        .iter()
        .map(|s| {
            let bench = eod_dwarfs::registry::benchmark_by_name(&s.benchmark).unwrap();
            let device = platform.device_by_name(&s.device).unwrap();
            runner
                .run_group(bench.as_ref(), s.size, device)
                .unwrap()
                .kernel_ms
        })
        .collect();

    let (addr, handle) = start_server(smoke_serve(4, 256, 256));
    let specs = Arc::new(specs);
    let reference = Arc::new(reference);
    let clients: Vec<_> = (0..4)
        .map(|t| {
            let specs = Arc::clone(&specs);
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr.to_string()).expect("connect");
                for (i, s) in specs.iter().enumerate() {
                    let out = client
                        .submit_wait(s, Priority::Normal)
                        .unwrap_or_else(|e| panic!("thread {t} spec {i}: {e}"));
                    assert_eq!(out.state, "done", "thread {t} spec {i}: {:?}", out.error);
                    assert_eq!(
                        kernel_ms(out.group.as_deref().unwrap()),
                        reference[i],
                        "thread {t}: {} on {}",
                        s.benchmark,
                        s.device
                    );
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }

    // 132 submissions over 33 distinct specs: every distinct spec misses
    // at least once, everything else is answered from the cache (threads
    // racing on the same not-yet-finished spec may add a few misses).
    let mut stats_client = Client::connect(&addr.to_string()).unwrap();
    let (cache, _, _) = stats_client.stats().unwrap();
    assert_eq!(cache.hits + cache.misses, 132);
    assert!(cache.misses >= 33, "{cache:?}");
    assert!(cache.hits > 0, "{cache:?}");
    drop(stats_client);
    stop_server(addr, handle);
}

#[test]
fn queue_overflow_is_a_typed_refusal() {
    // One worker, a queue of one, and slow native jobs: the first runs,
    // the second queues, the third must be refused — an error, not a
    // panic, and typed end-to-end through the protocol.
    let (addr, handle) = start_server(smoke_serve(1, 1, 8));
    let mut slow = RunnerConfig::smoke();
    slow.samples = 2;
    slow.min_loop = Duration::from_millis(150);
    slow.max_iters_per_sample = 100_000;
    let mut client = Client::connect(&addr.to_string()).unwrap();
    let mut refusals = 0;
    for i in 0..3 {
        let mut s = spec("crc", ProblemSize::Tiny, "native", &slow);
        s.config.seed = 1000 + i; // distinct specs so the cache cannot answer
        match client.submit(&s, Priority::Normal) {
            Ok((job, _, state, _)) => {
                assert!(state == "queued" || state == "running");
                // The worker must have taken the first job off the queue
                // before the second arrives, or the second is the refusal.
                while i == 0 && client.status(job).unwrap().state == "queued" {
                    std::thread::yield_now();
                }
            }
            Err(ClientError::QueueFull(msg)) => {
                refusals += 1;
                assert!(msg.contains("queue full"), "{msg}");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(refusals, 1, "exactly the third submission is refused");
    stop_server(addr, handle);
}

#[test]
fn per_job_timeout_reaches_the_client_typed() {
    let (addr, handle) = start_server(smoke_serve(1, 8, 8));
    let mut cfg = RunnerConfig::smoke();
    cfg.timeout = Some(Duration::from_nanos(1));
    let mut client = Client::connect(&addr.to_string()).unwrap();
    let out = client
        .submit_wait(
            &spec("kmeans", ProblemSize::Tiny, "GTX 1080", &cfg),
            Priority::Normal,
        )
        .unwrap();
    assert_eq!(out.state, "timed-out");
    assert!(out.group.is_none());
    assert!(
        out.error
            .as_deref()
            .unwrap_or_default()
            .contains("timed out"),
        "{:?}",
        out.error
    );
    stop_server(addr, handle);
}

#[test]
fn transitions_stream_to_a_waiting_client() {
    let (addr, handle) = start_server(smoke_serve(1, 8, 8));
    let mut slow = RunnerConfig::smoke();
    slow.samples = 2;
    slow.min_loop = Duration::from_millis(120);
    slow.max_iters_per_sample = 100_000;
    let mut client = Client::connect(&addr.to_string()).unwrap();
    let out = client
        .submit_wait(
            &spec("crc", ProblemSize::Tiny, "native", &slow),
            Priority::Normal,
        )
        .unwrap();
    assert_eq!(out.state, "done");
    assert_eq!(
        out.transitions.last().map(String::as_str),
        Some("done"),
        "{:?}",
        out.transitions
    );
    assert!(
        out.transitions.contains(&"running".to_string()),
        "a slow job is observed running: {:?}",
        out.transitions
    );
    stop_server(addr, handle);
}

#[test]
fn figure_batch_round_trip_hits_the_cache_and_matches_direct() {
    let config = RunnerConfig::smoke();
    let svc = Service::start(ServeConfig {
        workers: 4,
        queue_capacity: 16, // smaller than the batch: exercises backpressure
        cache_capacity: 256,
        runner: config.clone(),
    });

    let first = svc.run_figure("fig2a").expect("first pass");
    assert_eq!(first.jobs, 56, "4 sizes × 14 devices");
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.cache_misses, 56);

    let second = svc.run_figure("fig2a").expect("second pass");
    assert!(
        second.cache_hits * 10 >= second.jobs * 9,
        "second pass is ≥90% cache hits: {second:?}"
    );
    assert_eq!(
        first.figure.render_ascii(),
        second.figure.render_ascii(),
        "repeat submission renders identically"
    );

    // And the served figure matches the direct path's rendering exactly.
    let direct = eod_harness::figures::fig2(&Runner::new(config), 'a').unwrap();
    assert_eq!(first.figure.render_ascii(), direct.render_ascii());
    svc.shutdown();
}

#[test]
fn metrics_surface_over_protocol_and_http() {
    let cfg = smoke_serve(2, 8, 4);
    let runner = cfg.runner.clone();
    let service = Service::start(cfg);
    // The Prometheus endpoint, exactly as `eod serve --metrics-addr` wires it.
    let metrics_http = eod_telemetry::MetricsServer::serve("127.0.0.1:0", {
        let svc = Arc::clone(&service);
        move || svc.metrics_text()
    })
    .expect("bind metrics endpoint");
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });

    let mut client = Client::connect(&addr.to_string()).expect("connect");
    let job = spec("crc", ProblemSize::Tiny, "GTX 1080", &runner);
    let first = client.submit_wait(&job, Priority::Normal).expect("submit");
    assert_eq!(first.state, "done");
    let second = client.submit_wait(&job, Priority::High).expect("resubmit");
    assert!(second.cached, "identical spec is a cache hit");

    // The same exposition text over the ndjson protocol…
    let text = client.metrics().expect("metrics request");
    assert!(text.contains("# TYPE eod_queue_depth gauge"), "{text}");
    assert!(
        text.contains("eod_queue_depth{priority=\"high\"} 0\n"),
        "{text}"
    );
    assert!(
        text.contains("eod_queue_depth{priority=\"normal\"} 0\n"),
        "{text}"
    );
    assert!(text.contains("eod_cache_hits_total 1\n"), "{text}");
    assert!(text.contains("eod_cache_misses_total 1\n"), "{text}");
    assert!(
        text.contains("# TYPE eod_job_latency_seconds histogram"),
        "{text}"
    );
    assert!(
        text.contains("eod_job_latency_seconds_bucket{le=\"+Inf\"} 2\n"),
        "{text}"
    );
    assert!(text.contains("eod_job_latency_seconds_count 2\n"), "{text}");
    assert!(
        text.contains("eod_jobs_completed_total{state=\"done\"} 2\n"),
        "{text}"
    );
    assert!(
        text.contains("eod_jobs_submitted_total{priority=\"high\"} 1\n"),
        "{text}"
    );
    assert!(text.contains("eod_workers 2\n"), "{text}");

    // …and over plain HTTP for a Prometheus scraper.
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(metrics_http.local_addr()).expect("connect http");
    write!(s, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).expect("read response");
    assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
    assert!(resp.contains("text/plain; version=0.0.4"), "{resp}");
    assert!(
        resp.contains("eod_queue_depth{priority=\"normal\"}"),
        "{resp}"
    );
    assert!(resp.contains("eod_cache_hits_total 1\n"), "{resp}");
    assert!(resp.contains("eod_cache_misses_total 1\n"), "{resp}");
    assert!(
        resp.contains("eod_job_latency_seconds_bucket{le=\"+Inf\"} 2"),
        "{resp}"
    );

    metrics_http.stop();
    stop_server(addr, handle);
}

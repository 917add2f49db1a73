//! `eod-fleet` — distributed worker fleet for the benchmark execution
//! service.
//!
//! The paper's methodology prices hundreds of (benchmark, size, device)
//! measurement groups per figure; a single host's worker pool is the
//! bottleneck once real kernels are involved. This crate scales the
//! existing service horizontally without changing its contract:
//!
//! * [`worker::Worker`] — a remote executor that registers capability
//!   advertisements (slot count, servable devices), runs granted jobs
//!   through [`eod_harness::execute_spec_serialized`], and renews its
//!   leases by heartbeat;
//! * [`coordinator::Coordinator`] — shards the job stream across
//!   registered workers under expiring leases, fails leased jobs over
//!   when heartbeats stop, retries with exponential backoff up to an
//!   attempt bound, and re-dispatches stragglers past a percentile-based
//!   deadline (first completion wins, losers are revoked);
//! * [`messages`] — the ndjson wire protocol, forward-compatible by
//!   ignoring unknown fields;
//! * [`wire`] — transports: TCP for deployments, an in-process channel
//!   pair ([`wire::LocalWire`]) so every protocol path is unit-testable
//!   without sockets;
//! * [`metrics`] — per-worker utilization/heartbeat gauges and fleet
//!   retry/failover/straggler counters, rendered alongside the service's
//!   own registry.
//!
//! Results travel as the serialized `GroupResult` JSON produced by the
//! same code path the in-process service uses, so a fleet-computed result
//! is byte-identical to a locally computed one and content-addressed
//! caching keeps working unchanged.

pub mod coordinator;
pub mod messages;
pub mod metrics;
pub mod net_wire;
pub mod placement;
pub mod wire;
pub mod worker;

pub use coordinator::{CompletionSink, Coordinator, FleetConfig, FleetOutcome};
pub use messages::{CoordMsg, WorkerMsg};
pub use net_wire::{NetFleetListener, ReactorWire};
pub use placement::{Candidate, Greedy, PlacementPolicy, Predictive, RoundRobin};
pub use wire::{FleetListener, LocalWire, TcpWire, Wire, WireError};
pub use worker::{ExecFailure, Executor, Worker, WorkerExit, WorkerKill};

#[cfg(test)]
mod tests {
    use super::*;
    use eod_core::fleet::{Attempt, AttemptOutcome, WorkerCapabilities};
    use eod_core::sizes::ProblemSize;
    use eod_core::spec::{ExecConfig, JobSpec};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    fn spec(tag: u64) -> JobSpec {
        JobSpec {
            benchmark: "crc".into(),
            size: ProblemSize::Tiny,
            device: "GTX 1080".into(),
            config: ExecConfig {
                samples: 1,
                min_loop: Duration::from_micros(1),
                max_iters_per_sample: 1,
                verify: false,
                real_execution: false,
                energy_all_devices: false,
                seed: tag,
                timeout: None,
            },
        }
    }

    fn caps(name: &str, slots: u32) -> WorkerCapabilities {
        WorkerCapabilities {
            name: name.into(),
            slots,
            devices: Vec::new(),
        }
    }

    type Sink = (
        CompletionSink,
        mpsc::Receiver<(u64, FleetOutcome, Vec<Attempt>)>,
    );

    fn channel_sink() -> Sink {
        let (tx, rx) = mpsc::channel();
        let sink: CompletionSink = Box::new(move |job, outcome, attempts| {
            let _ = tx.send((job, outcome, attempts.to_vec()));
        });
        (sink, rx)
    }

    /// Spawn an in-process worker wired to `coord`; returns its kill
    /// handle and thread handle.
    fn spawn_worker(
        coord: &Arc<Coordinator>,
        worker: Worker,
    ) -> (WorkerKill, std::thread::JoinHandle<WorkerExit>) {
        let (coord_end, worker_end) = LocalWire::pair();
        Coordinator::attach(coord, coord_end);
        let kill = worker.kill_handle();
        let handle = std::thread::spawn(move || worker.run(worker_end).unwrap());
        (kill, handle)
    }

    fn instant_executor(counter: Arc<AtomicU64>) -> Executor {
        Arc::new(move |spec: &JobSpec| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(format!("{{\"seed\":{}}}", spec.config.seed))
        })
    }

    #[test]
    fn jobs_complete_across_two_workers() {
        let (sink, rx) = channel_sink();
        let coord = Coordinator::start(FleetConfig::fast(), sink);
        let executed = Arc::new(AtomicU64::new(0));
        let (_k1, h1) = spawn_worker(
            &coord,
            Worker::with_executor(caps("w1", 2), instant_executor(Arc::clone(&executed))),
        );
        let (_k2, h2) = spawn_worker(
            &coord,
            Worker::with_executor(caps("w2", 2), instant_executor(Arc::clone(&executed))),
        );
        for job in 0..8u64 {
            coord.submit(job, spec(job));
        }
        let mut done = std::collections::BTreeMap::new();
        for _ in 0..8 {
            let (job, outcome, attempts) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            let FleetOutcome::Done { group } = outcome else {
                panic!("job {job} failed")
            };
            assert_eq!(group, format!("{{\"seed\":{job}}}"));
            assert_eq!(attempts.len(), 1);
            assert_eq!(attempts[0].outcome, AttemptOutcome::Completed);
            done.insert(job, ());
        }
        assert_eq!(done.len(), 8);
        assert!(executed.load(Ordering::SeqCst) >= 8);
        let text = coord.metrics_text();
        assert!(text.contains("eod_fleet_workers 2"), "{text}");
        assert!(
            text.contains("eod_fleet_worker_slots{worker=\"w1\"} 2"),
            "{text}"
        );
        coord.shutdown(Duration::from_secs(2));
        assert_eq!(h1.join().unwrap(), WorkerExit::Drained);
        assert_eq!(h2.join().unwrap(), WorkerExit::Drained);
    }

    #[test]
    fn sink_may_call_back_into_the_coordinator() {
        // The sink runs with no coordinator lock held: it can query the
        // coordinator and chain a follow-up job. Under the lock, the first
        // `open_jobs()` would self-deadlock the reader thread.
        let (tx, rx) = mpsc::channel();
        let handle = Arc::new(std::sync::OnceLock::<std::sync::Weak<Coordinator>>::new());
        let sink: CompletionSink = {
            let handle = Arc::clone(&handle);
            Box::new(move |job, outcome, _attempts| {
                let coord = handle.get().and_then(|weak| weak.upgrade()).unwrap();
                let open = coord.open_jobs();
                if job == 1 {
                    coord.submit(2, spec(2));
                }
                let _ = tx.send((job, outcome, open));
            })
        };
        let coord = Coordinator::start(FleetConfig::fast(), sink);
        handle.set(Arc::downgrade(&coord)).unwrap();
        let executed = Arc::new(AtomicU64::new(0));
        let (_k, h) = spawn_worker(
            &coord,
            Worker::with_executor(caps("w1", 1), instant_executor(executed)),
        );
        coord.submit(1, spec(1));
        for expect in [1u64, 2] {
            let (job, outcome, open) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(job, expect);
            assert!(matches!(outcome, FleetOutcome::Done { .. }));
            assert_eq!(open, 0, "a job is closed before its outcome is delivered");
        }
        coord.shutdown(Duration::from_secs(2));
        assert_eq!(h.join().unwrap(), WorkerExit::Drained);
    }

    #[test]
    fn device_filter_routes_jobs_to_capable_worker() {
        let (sink, rx) = channel_sink();
        let coord = Coordinator::start(FleetConfig::fast(), sink);
        let cpu_runs = Arc::new(AtomicU64::new(0));
        let gpu_runs = Arc::new(AtomicU64::new(0));
        let cpu_caps = WorkerCapabilities {
            name: "cpu".into(),
            slots: 1,
            devices: vec!["i7-6700K".into()],
        };
        let gpu_caps = WorkerCapabilities {
            name: "gpu".into(),
            slots: 1,
            devices: vec!["GTX 1080".into()],
        };
        let (_kc, hc) = spawn_worker(
            &coord,
            Worker::with_executor(cpu_caps, instant_executor(Arc::clone(&cpu_runs))),
        );
        let (_kg, hg) = spawn_worker(
            &coord,
            Worker::with_executor(gpu_caps, instant_executor(Arc::clone(&gpu_runs))),
        );
        coord.submit(1, spec(1)); // targets GTX 1080
        let (job, outcome, _) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(job, 1);
        assert!(matches!(outcome, FleetOutcome::Done { .. }));
        assert_eq!(gpu_runs.load(Ordering::SeqCst), 1);
        assert_eq!(cpu_runs.load(Ordering::SeqCst), 0);
        coord.shutdown(Duration::from_secs(2));
        hc.join().unwrap();
        hg.join().unwrap();
    }

    #[test]
    fn killed_worker_fails_over_to_survivor() {
        let (sink, rx) = channel_sink();
        let coord = Coordinator::start(FleetConfig::fast(), sink);
        // Worker 1 hangs forever on its first job; worker 2 is instant.
        let slow: Executor = Arc::new(|_spec: &JobSpec| {
            std::thread::sleep(Duration::from_secs(30));
            Ok("{\"never\":true}".into())
        });
        let (kill1, h1) = spawn_worker(&coord, Worker::with_executor(caps("victim", 1), slow));
        // Wait until the victim holds the job before starting the savior,
        // so the grant deterministically lands on the victim first.
        coord.submit(7, spec(7));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !coord
            .metrics_text()
            .contains("eod_fleet_worker_slots_busy{worker=\"victim\"} 1")
        {
            assert!(
                std::time::Instant::now() < deadline,
                "victim never got the job"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let fast = Arc::new(AtomicU64::new(0));
        let (_k2, h2) = spawn_worker(
            &coord,
            Worker::with_executor(caps("savior", 1), instant_executor(Arc::clone(&fast))),
        );
        kill1.kill();
        let (job, outcome, attempts) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(job, 7);
        assert!(matches!(outcome, FleetOutcome::Done { .. }), "{attempts:?}");
        // History: attempt #1 on the victim lost (worker-lost or
        // lease-expired depending on timing), attempt #2 completed.
        assert!(attempts.len() >= 2, "{attempts:?}");
        assert!(attempts
            .iter()
            .any(|a| a.outcome == AttemptOutcome::WorkerLost
                || a.outcome == AttemptOutcome::LeaseExpired));
        assert_eq!(attempts.last().unwrap().outcome, AttemptOutcome::Completed);
        assert_eq!(attempts.last().unwrap().worker, "savior");
        let text = coord.metrics_text();
        let failed_over = text.contains("eod_fleet_failovers_total 1")
            || text.contains("eod_fleet_retries_total 1");
        assert!(failed_over, "{text}");
        assert_eq!(h1.join().unwrap(), WorkerExit::Killed);
        coord.shutdown(Duration::from_secs(2));
        h2.join().unwrap();
    }

    #[test]
    fn straggler_is_redispatched_and_first_completion_wins() {
        let mut config = FleetConfig::fast();
        config.straggler_min_completions = 2;
        config.straggler_min_age = Duration::from_millis(80);
        config.straggler_factor = 2.0;
        let (sink, rx) = channel_sink();
        let coord = Coordinator::start(config, sink);
        // One poisoned seed stalls on its FIRST execution only — the
        // original attempt hangs past the straggler deadline on whichever
        // worker draws it; the re-dispatched duplicate runs fast on the
        // other worker and wins.
        let poisoned_once = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let make_executor = |poisoned: Arc<std::sync::atomic::AtomicBool>| -> Executor {
            Arc::new(move |spec: &JobSpec| {
                if spec.config.seed == 99 && !poisoned.swap(true, Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_secs(20));
                }
                Ok(format!("{{\"seed\":{}}}", spec.config.seed))
            })
        };
        let (_k1, h1) = spawn_worker(
            &coord,
            Worker::with_executor(caps("w1", 1), make_executor(Arc::clone(&poisoned_once))),
        );
        let (_k2, h2) = spawn_worker(
            &coord,
            Worker::with_executor(caps("w2", 1), make_executor(Arc::clone(&poisoned_once))),
        );
        // Seed the duration estimate with quick jobs, then the poisoned one.
        for job in 0..4u64 {
            coord.submit(job, spec(job));
        }
        for i in 0..4 {
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(_) => {}
                Err(e) => panic!(
                    "seed job {i} never completed ({e}); open={} metrics:\n{}",
                    coord.open_jobs(),
                    coord.metrics_text()
                ),
            }
        }
        coord.submit(99, spec(99));
        let (job, outcome, attempts) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(job, 99);
        let FleetOutcome::Done { group } = outcome else {
            panic!("straggler never completed: {attempts:?}")
        };
        assert_eq!(group, "{\"seed\":99}");
        assert_eq!(attempts.last().unwrap().outcome, AttemptOutcome::Completed);
        let text = coord.metrics_text();
        assert!(
            text.contains("eod_fleet_straggler_redispatches_total 1"),
            "{text}"
        );
        coord.shutdown(Duration::from_millis(200));
        // Workers may still be sleeping in the poisoned executor; don't
        // join the slot threads, just the run loops (closed by shutdown).
        h1.join().unwrap();
        h2.join().unwrap();
    }

    #[test]
    fn deterministic_failure_is_terminal_with_history() {
        let (sink, rx) = channel_sink();
        let coord = Coordinator::start(FleetConfig::fast(), sink);
        let failing: Executor = Arc::new(|_spec: &JobSpec| {
            Err(ExecFailure {
                error: "verification failed".into(),
                timed_out: false,
            })
        });
        let (_k, h) = spawn_worker(&coord, Worker::with_executor(caps("w1", 1), failing));
        coord.submit(5, spec(5));
        let (job, outcome, attempts) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(job, 5);
        let FleetOutcome::Failed { error, timed_out } = outcome else {
            panic!("expected failure")
        };
        assert_eq!(error, "verification failed");
        assert!(!timed_out);
        assert_eq!(attempts.len(), 1);
        assert_eq!(attempts[0].outcome, AttemptOutcome::ExecutionFailed);
        coord.shutdown(Duration::from_secs(2));
        h.join().unwrap();
    }

    #[test]
    fn lease_expires_without_heartbeats_and_job_retries_until_bound() {
        // Drive the protocol by hand: register, accept a grant, then go
        // silent. The coordinator must expire the lease, back off, retry,
        // and give up after max_attempts with full history.
        let mut config = FleetConfig::fast();
        config.max_attempts = 2;
        let (sink, rx) = channel_sink();
        let coord = Coordinator::start(config, sink);
        let (coord_end, manual) = LocalWire::pair();
        Coordinator::attach(&coord, coord_end);
        manual
            .send_line(&messages::encode(&WorkerMsg::Register {
                proto: eod_core::fleet::FLEET_PROTO_VERSION,
                caps: caps("mute", 1),
            }))
            .unwrap();
        // Swallow the Welcome.
        let welcome = manual.recv_line(Duration::from_secs(5)).unwrap().unwrap();
        assert!(welcome.contains("Welcome"), "{welcome}");
        coord.submit(3, spec(3));
        // Accept grants (never execute, never heartbeat) until the
        // coordinator gives up. Heartbeat just often enough to stay
        // "alive" so expiry — not worker death — is the tested path.
        let (job, outcome, attempts) = loop {
            match manual.recv_line(Duration::from_millis(20)) {
                Ok(Some(_)) | Ok(None) => {}
                Err(_) => {}
            }
            let _ = manual.send_line(&messages::encode(&WorkerMsg::Heartbeat {
                held: Vec::new(), // never renews the lease
            }));
            match rx.try_recv() {
                Ok(done) => break done,
                Err(_) => continue,
            }
        };
        assert_eq!(job, 3);
        let FleetOutcome::Failed { error, .. } = outcome else {
            panic!("job must fail after attempts are exhausted")
        };
        assert!(error.contains("gave up"), "{error}");
        assert_eq!(
            attempts
                .iter()
                .filter(|a| a.outcome == AttemptOutcome::LeaseExpired)
                .count(),
            2,
            "{attempts:?}"
        );
        let text = coord.metrics_text();
        assert!(text.contains("eod_fleet_retries_total 2"), "{text}");
        coord.shutdown(Duration::from_millis(100));
    }

    #[test]
    fn real_executor_runs_a_job_end_to_end() {
        // One job through the default harness-backed executor, exercising
        // execute_spec_serialized over the local transport.
        let (sink, rx) = channel_sink();
        let coord = Coordinator::start(FleetConfig::fast(), sink);
        let (_k, h) = spawn_worker(&coord, Worker::new(caps("real", 1)));
        let s = JobSpec {
            benchmark: "crc".into(),
            size: ProblemSize::Tiny,
            device: "GTX 1080".into(),
            config: eod_harness::RunnerConfig::smoke().to_exec(),
        };
        coord.submit(1, s);
        let (_, outcome, _) = rx.recv_timeout(Duration::from_secs(60)).unwrap();
        let FleetOutcome::Done { group } = outcome else {
            panic!("real execution failed")
        };
        let parsed: eod_harness::GroupResult = serde_json::from_str(&group).unwrap();
        assert_eq!(parsed.benchmark, "crc");
        assert!(parsed.verified);
        coord.shutdown(Duration::from_secs(2));
        h.join().unwrap();
    }
}

//! The worker's slot pool, driven by hand from the coordinator's side of
//! the wire: concurrency up to `slots`, rejection beyond it, a fixed
//! thread count however many grants pass through, silence after a kill,
//! `Released` after a revoke, and drain waiting for the active slot.
//!
//! Slot threads are counted from `/proc/self/task/*/comm`, which is
//! process-wide, so the tests serialize on [`SERIAL`] and each ends by
//! waiting for its own slot threads to exit — which also checks that the
//! pool is torn down when `Worker::run` returns.

#![cfg(target_os = "linux")]

use eod_core::fleet::WorkerCapabilities;
use eod_core::sizes::ProblemSize;
use eod_core::spec::{ExecConfig, JobSpec};
use eod_fleet::messages::{decode, encode};
use eod_fleet::{CoordMsg, Executor, Wire, WireError, Worker, WorkerExit, WorkerKill, WorkerMsg};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

const PATIENCE: Duration = Duration::from_secs(10);

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The worker's end of a channel pair. Unlike `LocalWire`, a line sent
/// after `close` still reaches the test, so "a killed worker says
/// nothing" is observable rather than implied by the transport.
struct TapWire {
    to_test: Mutex<Sender<String>>,
    from_test: Mutex<Receiver<String>>,
}

impl Wire for TapWire {
    fn send_line(&self, line: &str) -> Result<(), WireError> {
        let _ = self.to_test.lock().unwrap().send(line.to_string());
        Ok(())
    }

    fn recv_line(&self, timeout: Duration) -> Result<Option<String>, WireError> {
        match self.from_test.lock().unwrap().recv_timeout(timeout) {
            Ok(line) => Ok(Some(line)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(WireError::Closed),
        }
    }

    fn close(&self) {}
}

/// A running worker plus the coordinator's side of its wire.
struct Rig {
    to_worker: Sender<String>,
    from_worker: Receiver<String>,
    kill: WorkerKill,
    run: JoinHandle<WorkerExit>,
}

impl Rig {
    /// Start a `slots`-slot worker and complete the handshake. The
    /// heartbeat period is long enough that none is sent during a test.
    fn start(slots: u32, executor: Executor) -> Rig {
        let (to_worker, from_test) = mpsc::channel();
        let (to_test, from_worker) = mpsc::channel();
        let wire = Arc::new(TapWire {
            to_test: Mutex::new(to_test),
            from_test: Mutex::new(from_test),
        });
        let worker = Worker::with_executor(
            WorkerCapabilities {
                name: "rig".into(),
                slots,
                devices: Vec::new(),
            },
            executor,
        );
        let kill = worker.kill_handle();
        let run = std::thread::spawn(move || worker.run(wire).unwrap());
        let rig = Rig {
            to_worker,
            from_worker,
            kill,
            run,
        };
        assert!(matches!(rig.next(), WorkerMsg::Register { .. }));
        rig.send(CoordMsg::Welcome {
            worker: 1,
            heartbeat_ms: 600_000,
            lease_ttl_ms: 600_000,
        });
        rig
    }

    fn send(&self, msg: CoordMsg) {
        self.to_worker.send(encode(&msg)).unwrap();
    }

    fn grant(&self, lease: u64) {
        self.send(CoordMsg::Grant {
            lease,
            job: lease,
            spec: spec(lease),
        });
    }

    fn next(&self) -> WorkerMsg {
        let line = self.from_worker.recv_timeout(PATIENCE).unwrap();
        decode(&line).unwrap()
    }

    /// Join `run`, then wait for the pool it owned to exit.
    fn finish(self) -> WorkerExit {
        let exit = self.run.join().unwrap();
        wait_for_slot_threads(0);
        exit
    }
}

fn spec(seed: u64) -> JobSpec {
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
            seed,
            timeout: None,
        },
    }
}

fn group(seed: u64) -> String {
    format!("{{\"seed\":{seed}}}")
}

/// An executor that announces each start and then blocks until the test
/// sends one release per job; returns the `started` and `release` ends.
fn gated_executor() -> (Executor, Receiver<u64>, Sender<()>) {
    let (started_tx, started) = mpsc::channel();
    let (release, gate) = mpsc::channel::<()>();
    let started_tx = Mutex::new(started_tx);
    let gate = Mutex::new(gate);
    let executor: Executor = Arc::new(move |spec: &JobSpec| {
        started_tx.lock().unwrap().send(spec.config.seed).unwrap();
        let _ = gate.lock().unwrap().recv();
        Ok(group(spec.config.seed))
    });
    (executor, started, release)
}

fn slot_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("fleet-slot-"))
        .count()
}

fn wait_for_slot_threads(want: usize) {
    let deadline = Instant::now() + PATIENCE;
    while slot_threads() != want {
        assert!(
            Instant::now() < deadline,
            "{} fleet-slot threads, want {want}",
            slot_threads()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn two_slots_run_two_grants_concurrently_and_reject_a_third() {
    let _serial = serial();
    let (executor, started, release) = gated_executor();
    let rig = Rig::start(2, executor);
    rig.grant(1);
    rig.grant(2);
    // Both executors are inside their job before either is released.
    let mut running = vec![
        started.recv_timeout(PATIENCE).unwrap(),
        started.recv_timeout(PATIENCE).unwrap(),
    ];
    running.sort_unstable();
    assert_eq!(running, [1, 2]);
    rig.grant(3);
    assert_eq!(
        rig.next(),
        WorkerMsg::Reject {
            lease: 3,
            job: 3,
            reason: "no free slot".into()
        }
    );
    release.send(()).unwrap();
    release.send(()).unwrap();
    let mut done = vec![rig.next(), rig.next()];
    done.sort_by_key(|m| match m {
        WorkerMsg::Completed { lease, .. } => *lease,
        other => panic!("expected Completed, got {other:?}"),
    });
    let completed = |n| WorkerMsg::Completed {
        lease: n,
        job: n,
        group: group(n),
    };
    assert_eq!(done, [completed(1), completed(2)]);
    rig.send(CoordMsg::Drain {});
    assert_eq!(rig.next(), WorkerMsg::Bye {});
    assert_eq!(rig.finish(), WorkerExit::Drained);
}

#[test]
fn a_thousand_grants_leave_the_slot_thread_count_at_slots() {
    let _serial = serial();
    let executor: Executor = Arc::new(|spec: &JobSpec| Ok(group(spec.config.seed)));
    let rig = Rig::start(2, executor);
    for lease in 1..=1000 {
        rig.grant(lease);
        assert!(matches!(rig.next(), WorkerMsg::Completed { lease: l, .. } if l == lease));
    }
    assert_eq!(slot_threads(), 2);
    rig.send(CoordMsg::Drain {});
    assert_eq!(rig.next(), WorkerMsg::Bye {});
    assert_eq!(rig.finish(), WorkerExit::Drained);
}

#[test]
fn a_worker_killed_mid_execution_sends_nothing() {
    let _serial = serial();
    let (executor, started, release) = gated_executor();
    let rig = Rig::start(1, executor);
    rig.grant(1);
    assert_eq!(started.recv_timeout(PATIENCE).unwrap(), 1);
    rig.kill.kill();
    // `run` returns while the slot is still inside the executor. The
    // sender stays open so the exit cannot be mistaken for a disconnect.
    let Rig {
        to_worker: _open,
        from_worker,
        run,
        ..
    } = rig;
    assert_eq!(run.join().unwrap(), WorkerExit::Killed);
    assert_eq!(slot_threads(), 1);
    release.send(()).unwrap();
    // Once the slot thread is gone it has had its chance to speak.
    wait_for_slot_threads(0);
    assert_eq!(from_worker.try_iter().next(), None);
}

#[test]
fn a_revoked_lease_answers_released() {
    let _serial = serial();
    let (executor, started, release) = gated_executor();
    let rig = Rig::start(1, executor);
    rig.grant(1);
    assert_eq!(started.recv_timeout(PATIENCE).unwrap(), 1);
    rig.send(CoordMsg::Revoke {
        lease: 1,
        reason: "superseded".into(),
    });
    // A second grant is answered only after the Revoke ahead of it on the
    // wire has been handled, so the release below cannot overtake it.
    rig.grant(2);
    assert!(matches!(rig.next(), WorkerMsg::Reject { lease: 2, .. }));
    release.send(()).unwrap();
    assert_eq!(rig.next(), WorkerMsg::Released { lease: 1, job: 1 });
    rig.send(CoordMsg::Drain {});
    assert_eq!(rig.next(), WorkerMsg::Bye {});
    assert_eq!(rig.finish(), WorkerExit::Drained);
}

#[test]
fn drain_rejects_new_grants_and_waits_for_the_active_slot() {
    let _serial = serial();
    let (executor, started, release) = gated_executor();
    let rig = Rig::start(1, executor);
    rig.grant(1);
    assert_eq!(started.recv_timeout(PATIENCE).unwrap(), 1);
    rig.send(CoordMsg::Drain {});
    rig.grant(2);
    // The wire is ordered and the run loop checks for drain completion
    // between the two messages: a premature Bye would arrive first.
    assert_eq!(
        rig.next(),
        WorkerMsg::Reject {
            lease: 2,
            job: 2,
            reason: "draining".into()
        }
    );
    release.send(()).unwrap();
    // The slot frees `active` before it sends, so the run loop may say
    // Bye a moment ahead of the result; both must arrive.
    let last = [rig.next(), rig.next()];
    assert!(last.contains(&WorkerMsg::Completed {
        lease: 1,
        job: 1,
        group: group(1)
    }));
    assert!(last.contains(&WorkerMsg::Bye {}));
    assert_eq!(rig.finish(), WorkerExit::Drained);
}

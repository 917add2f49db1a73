//! The fleet worker: registers capabilities, executes granted jobs on a
//! fixed pool of slot threads, heartbeats to renew its leases, and honours
//! revocation and drain.
//!
//! A worker is transport-agnostic: hand [`Worker::run`] any [`Wire`] — a
//! [`crate::wire::TcpWire`] in production, a [`crate::wire::LocalWire`]
//! endpoint in tests. The default executor calls
//! [`eod_harness::execute_spec_serialized`]; tests inject their own with
//! [`Worker::with_executor`] to simulate slow or crashing workers without
//! running real kernels.

use crate::messages::{decode, encode, CoordMsg, WorkerMsg};
use crate::wire::{Wire, WireError};
use eod_core::fleet::{WorkerCapabilities, FLEET_PROTO_VERSION};
use eod_core::spec::JobSpec;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Why a job's execution failed, as the worker reports it.
#[derive(Debug, Clone)]
pub struct ExecFailure {
    /// Error message.
    pub error: String,
    /// Whether the failure was the job's wall-clock budget.
    pub timed_out: bool,
}

/// Executes one job spec, returning the serialized `GroupResult` JSON.
pub type Executor = Arc<dyn Fn(&JobSpec) -> Result<String, ExecFailure> + Send + Sync>;

/// Why [`Worker::run`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerExit {
    /// Drained gracefully after a coordinator `Drain` and said `Bye`.
    Drained,
    /// [`WorkerKill::kill`] was called (tests use this to simulate a crash).
    Killed,
    /// The coordinator connection dropped.
    Disconnected,
}

/// An admitted grant on its way to a slot thread.
struct Granted {
    lease: u64,
    job: u64,
    spec: JobSpec,
}

struct SlotState {
    /// lease id → job id for everything currently executing.
    active: HashMap<u64, u64>,
    /// Leases revoked while executing; their results are discarded.
    revoked: HashSet<u64>,
    draining: bool,
}

/// A fleet worker. Construct, then [`Worker::run`] against a connected
/// wire; `run` blocks until drain, kill, or disconnect.
pub struct Worker {
    caps: WorkerCapabilities,
    executor: Executor,
    killed: Arc<AtomicBool>,
}

impl Worker {
    /// A worker that executes jobs with the real harness.
    pub fn new(caps: WorkerCapabilities) -> Worker {
        Worker::with_executor(
            caps,
            Arc::new(|spec: &JobSpec| {
                eod_harness::execute_spec_serialized(spec)
                    .map(|(json, _)| json)
                    .map_err(|e| ExecFailure {
                        timed_out: matches!(e, eod_harness::RunnerError::TimedOut { .. }),
                        error: e.to_string(),
                    })
            }),
        )
    }

    /// A worker with an injected executor (tests: slow, failing, or
    /// instant executors without real kernels).
    pub fn with_executor(caps: WorkerCapabilities, executor: Executor) -> Worker {
        Worker {
            caps,
            executor,
            killed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A handle that aborts [`Worker::run`] from another thread without a
    /// goodbye — the coordinator sees a dropped connection, exactly like
    /// a crash.
    pub fn kill_handle(&self) -> WorkerKill {
        WorkerKill {
            killed: Arc::clone(&self.killed),
        }
    }

    /// Register, then serve grants until drain, kill, or disconnect.
    pub fn run(&self, wire: Arc<dyn Wire>) -> Result<WorkerExit, WireError> {
        wire.send_line(&encode(&WorkerMsg::Register {
            proto: FLEET_PROTO_VERSION,
            caps: self.caps.clone(),
        }))?;
        // Wait for the Welcome carrying our lease terms.
        let deadline = Instant::now() + Duration::from_secs(10);
        let heartbeat_every = loop {
            if Instant::now() > deadline {
                return Err(WireError::Io("no Welcome within 10s".into()));
            }
            if self.killed.load(Ordering::SeqCst) {
                wire.close();
                return Ok(WorkerExit::Killed);
            }
            match wire.recv_line(Duration::from_millis(50))? {
                Some(line) => match decode::<CoordMsg>(&line) {
                    Ok(CoordMsg::Welcome { heartbeat_ms, .. }) => {
                        break Duration::from_millis(heartbeat_ms.max(10));
                    }
                    Ok(_) | Err(_) => continue,
                },
                None => continue,
            }
        };

        let state = Arc::new(Mutex::new(SlotState {
            active: HashMap::new(),
            revoked: HashSet::new(),
            draining: false,
        }));
        // Dropped when `run` returns: idle slot threads see the hang-up
        // and exit, busy ones after the job they are executing.
        let slots = self.spawn_slots(&wire, &state)?;
        let mut next_heartbeat = Instant::now() + heartbeat_every;
        let tick = heartbeat_every.min(Duration::from_millis(25));
        loop {
            if self.killed.load(Ordering::SeqCst) {
                wire.close();
                return Ok(WorkerExit::Killed);
            }
            {
                let s = state.lock().unwrap();
                if s.draining && s.active.is_empty() {
                    let _ = wire.send_line(&encode(&WorkerMsg::Bye {}));
                    wire.close();
                    return Ok(WorkerExit::Drained);
                }
            }
            if Instant::now() >= next_heartbeat {
                let held: Vec<u64> = state.lock().unwrap().active.keys().copied().collect();
                match wire.send_line(&encode(&WorkerMsg::Heartbeat { held })) {
                    Ok(()) => {}
                    Err(WireError::Closed) => return Ok(WorkerExit::Disconnected),
                    Err(e) => return Err(e),
                }
                next_heartbeat = Instant::now() + heartbeat_every;
            }
            let line = match wire.recv_line(tick) {
                Ok(Some(line)) => line,
                Ok(None) => continue,
                Err(WireError::Closed) => return Ok(WorkerExit::Disconnected),
                Err(e) => return Err(e),
            };
            let msg = match decode::<CoordMsg>(&line) {
                Ok(m) => m,
                Err(_) => continue, // tolerate unknown/garbage lines
            };
            match msg {
                CoordMsg::Grant { lease, job, spec } => {
                    self.on_grant(&wire, &state, &slots, Granted { lease, job, spec });
                }
                CoordMsg::Revoke { lease, .. } => {
                    // If the lease is still executing, mark it: the slot
                    // thread discards its result and answers Released. If
                    // it already finished, the result is on the wire and
                    // the coordinator discards it there.
                    let mut s = state.lock().unwrap();
                    if s.active.contains_key(&lease) {
                        s.revoked.insert(lease);
                    }
                }
                CoordMsg::Drain {} => {
                    state.lock().unwrap().draining = true;
                }
                CoordMsg::Welcome { .. } => {} // duplicate; ignore
            }
        }
    }

    /// Start `caps.slots` slot threads sharing one grant channel. They are
    /// never joined — `run` must return at once on kill or disconnect even
    /// while an executor is mid-job — so each reports its own result and
    /// unregisters its lease itself.
    fn spawn_slots(
        &self,
        wire: &Arc<dyn Wire>,
        state: &Arc<Mutex<SlotState>>,
    ) -> Result<mpsc::Sender<Granted>, WireError> {
        let (tx, rx) = mpsc::channel::<Granted>();
        let rx = Arc::new(Mutex::new(rx));
        for slot in 0..self.caps.slots {
            let rx = Arc::clone(&rx);
            let executor = Arc::clone(&self.executor);
            let wire = Arc::clone(wire);
            let state = Arc::clone(state);
            let killed = Arc::clone(&self.killed);
            std::thread::Builder::new()
                .name(format!("fleet-slot-{slot}"))
                .spawn(move || loop {
                    // The guard is a temporary: it is released before the
                    // job executes, so the other slots can take grants.
                    let next = rx.lock().expect("slot receiver poisoned").recv();
                    let Ok(Granted { lease, job, spec }) = next else {
                        return; // `run` returned
                    };
                    let outcome = executor(&spec);
                    let mut s = state.lock().unwrap();
                    s.active.remove(&lease);
                    let was_revoked = s.revoked.remove(&lease);
                    drop(s);
                    if killed.load(Ordering::SeqCst) {
                        continue; // crash simulation: say nothing
                    }
                    let msg = if was_revoked {
                        WorkerMsg::Released { lease, job }
                    } else {
                        match outcome {
                            Ok(group) => WorkerMsg::Completed { lease, job, group },
                            Err(f) => WorkerMsg::Failed {
                                lease,
                                job,
                                error: f.error,
                                timed_out: f.timed_out,
                            },
                        }
                    };
                    let _ = wire.send_line(&encode(&msg));
                })
                .map_err(|e| WireError::Io(format!("spawn slot thread: {e}")))?;
        }
        Ok(tx)
    }

    fn on_grant(
        &self,
        wire: &Arc<dyn Wire>,
        state: &Mutex<SlotState>,
        slots: &mpsc::Sender<Granted>,
        grant: Granted,
    ) {
        let reject = |reason: &str| {
            let _ = wire.send_line(&encode(&WorkerMsg::Reject {
                lease: grant.lease,
                job: grant.job,
                reason: reason.into(),
            }));
        };
        {
            let mut s = state.lock().unwrap();
            if s.draining {
                return reject("draining");
            }
            if s.active.len() >= self.caps.slots as usize {
                return reject("no free slot");
            }
            s.active.insert(grant.lease, grant.job);
        }
        // `active` admits at most `slots` grants, so one never waits
        // behind an executing job — at most behind a slot still sending
        // the previous result.
        slots
            .send(grant)
            .expect("slot threads outlive the grant sender");
    }
}

/// Aborts a running [`Worker::run`] from another thread; the coordinator
/// observes a dropped connection.
#[derive(Clone)]
pub struct WorkerKill {
    killed: Arc<AtomicBool>,
}

impl WorkerKill {
    /// Trigger the abort. Slot threads mid-execution finish silently and
    /// report nothing.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }
}

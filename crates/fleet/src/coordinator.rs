//! The fleet coordinator: shards the job queue across registered workers
//! under expiring leases, and owns every failure policy — missed
//! heartbeats, lease expiry, bounded retries with exponential backoff,
//! and percentile-based straggler re-dispatch.
//!
//! # Lease state machine
//!
//! ```text
//!            Grant sent                Completed
//!  (none) ──────────────▶ ACTIVE ──────────────────▶ (gone: job done)
//!                           │  ▲
//!                           │  │ Heartbeat listing the lease
//!                           │  └─── renews expiry ──┐
//!                           │                       │
//!          ttl elapsed,     │                       │
//!          no renewal       ▼                       │
//!                        EXPIRED ── requeue job (retry/backoff)
//!                           │
//!          first completion │ Revoke sent (another attempt won)
//!          elsewhere        ▼
//!                        REVOKED ── worker answers Released/Completed;
//!                                   result discarded, slot freed
//! ```
//!
//! Completion is first-wins: the first `Completed` for a job finalizes
//! it, every other active lease of that job is revoked, and late results
//! are counted as discarded duplicates.

use crate::messages::{decode, encode, CoordMsg, WorkerMsg};
use crate::metrics::{FleetMetrics, WorkerGauges};
use crate::placement::{Candidate, Greedy, PlacementPolicy};
use crate::wire::{Wire, WireError};
use eod_core::fleet::{Attempt, AttemptOutcome, LeaseId, WorkerCapabilities, WorkerId};
use eod_core::spec::JobSpec;
use eod_telemetry::Counter;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for the coordinator's failure policies.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Lease lifetime without renewal.
    pub lease_ttl: Duration,
    /// Heartbeat period workers are told to observe.
    pub heartbeat_interval: Duration,
    /// A worker missing heartbeats for this long is declared dead and its
    /// leased jobs fail over to survivors.
    pub heartbeat_timeout: Duration,
    /// Engine wake-up period (lease expiry, straggler scan, backoff).
    pub monitor_tick: Duration,
    /// Maximum execution grants per job before it is failed outright.
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub retry_backoff: Duration,
    /// Retry delay ceiling.
    pub retry_backoff_cap: Duration,
    /// Straggler detection needs at least this many completed attempts to
    /// estimate a deadline.
    pub straggler_min_completions: usize,
    /// Percentile of completed-attempt durations the deadline scales from
    /// (0 < p ≤ 1).
    pub straggler_percentile: f64,
    /// Deadline = factor × percentile duration.
    pub straggler_factor: f64,
    /// Never re-dispatch an attempt younger than this, whatever the
    /// percentile says.
    pub straggler_min_age: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            lease_ttl: Duration::from_secs(5),
            heartbeat_interval: Duration::from_millis(500),
            heartbeat_timeout: Duration::from_secs(3),
            monitor_tick: Duration::from_millis(50),
            max_attempts: 4,
            retry_backoff: Duration::from_millis(100),
            retry_backoff_cap: Duration::from_secs(2),
            straggler_min_completions: 5,
            straggler_percentile: 0.9,
            straggler_factor: 4.0,
            straggler_min_age: Duration::from_secs(1),
        }
    }
}

impl FleetConfig {
    /// Aggressive timings for in-process tests: everything fires within
    /// tens of milliseconds.
    pub fn fast() -> Self {
        FleetConfig {
            lease_ttl: Duration::from_millis(250),
            heartbeat_interval: Duration::from_millis(40),
            heartbeat_timeout: Duration::from_millis(200),
            monitor_tick: Duration::from_millis(10),
            max_attempts: 4,
            retry_backoff: Duration::from_millis(5),
            retry_backoff_cap: Duration::from_millis(50),
            straggler_min_completions: 3,
            straggler_percentile: 0.9,
            straggler_factor: 3.0,
            straggler_min_age: Duration::from_millis(60),
        }
    }
}

/// How a job left the fleet, handed to the [`CompletionSink`].
#[derive(Debug, Clone)]
pub enum FleetOutcome {
    /// A worker produced the result; `group` is the serialized
    /// `GroupResult` exactly as the worker shipped it.
    Done {
        /// Serialized result JSON.
        group: String,
    },
    /// No attempt produced a result.
    Failed {
        /// Final error message.
        error: String,
        /// Whether the terminal attempt hit the job's wall-clock budget.
        timed_out: bool,
    },
}

/// Called exactly once per submitted job, with its full attempt history.
/// Runs on coordinator threads with no coordinator lock held, so it may
/// call back in ([`Coordinator::submit`], [`Coordinator::open_jobs`]…);
/// outcomes of different jobs may arrive in any order.
pub type CompletionSink = Box<dyn Fn(u64, FleetOutcome, &[Attempt]) + Send + Sync>;

struct WorkerState {
    id: WorkerId,
    caps: WorkerCapabilities,
    label: String,
    wire: Arc<dyn Wire>,
    alive: bool,
    draining: bool,
    last_heartbeat: Instant,
    busy: u32,
    gauges: WorkerGauges,
}

struct LeaseState {
    job: u64,
    worker: WorkerId,
    attempt_no: u32,
    granted: Instant,
    expires: Instant,
    revoked: bool,
}

struct JobState {
    spec: JobSpec,
    grants: u32,
    attempts: Vec<Attempt>,
    active_leases: Vec<LeaseId>,
    done: bool,
    not_before: Option<Instant>,
    straggler_dispatched: bool,
    /// Modeled runtime from the placement policy's predictor, if any —
    /// feeds worker-backlog estimates on later dispatch passes.
    predicted_s: Option<f64>,
}

#[derive(Default)]
struct Inner {
    workers: HashMap<WorkerId, WorkerState>,
    leases: HashMap<LeaseId, LeaseState>,
    jobs: HashMap<u64, JobState>,
    /// Jobs eligible for dispatch now, FIFO.
    ready: VecDeque<u64>,
    /// Jobs waiting out a retry backoff.
    waiting: Vec<u64>,
    /// Recent completed-attempt durations (ms) for the straggler deadline.
    completed_ms: VecDeque<f64>,
    /// Which workers have completed which `spec_key`s — the cache-affinity
    /// signal for predictive placement. Bounded; cleared when it grows
    /// past [`RESIDENCY_CAP`] keys.
    residency: HashMap<String, HashSet<WorkerId>>,
    /// Outcomes decided under the lock, awaiting [`Coordinator::deliver`].
    finished: Vec<(u64, FleetOutcome, Vec<Attempt>)>,
    next_worker_id: u64,
    next_lease_id: u64,
}

/// Residency map size bound; crossing it clears the map (affinity is an
/// optimization hint, not correctness state).
const RESIDENCY_CAP: usize = 1024;

/// The coordinator: accepts worker connections via [`Coordinator::attach`],
/// jobs via [`Coordinator::submit`], and reports outcomes through the
/// [`CompletionSink`].
pub struct Coordinator {
    config: FleetConfig,
    inner: Mutex<Inner>,
    wake: Condvar,
    sink: CompletionSink,
    metrics: FleetMetrics,
    policy: Arc<dyn PlacementPolicy>,
    placements: Arc<Counter>,
    stopping: AtomicBool,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Coordinator {
    /// Start the coordinator engine with the default [`Greedy`] placement
    /// policy (the historical most-free-slots dispatch rule).
    pub fn start(config: FleetConfig, sink: CompletionSink) -> Arc<Coordinator> {
        Self::start_with_policy(config, sink, Arc::new(Greedy::new()))
    }

    /// Start the coordinator engine (one background thread driving lease
    /// expiry, failover, straggler scans, backoff, and dispatch) with an
    /// explicit placement policy.
    pub fn start_with_policy(
        config: FleetConfig,
        sink: CompletionSink,
        policy: Arc<dyn PlacementPolicy>,
    ) -> Arc<Coordinator> {
        let metrics = FleetMetrics::new();
        let placements = metrics.placements(policy.name());
        let coord = Arc::new(Coordinator {
            config,
            inner: Mutex::new(Inner::default()),
            wake: Condvar::new(),
            sink,
            metrics,
            policy,
            placements,
            stopping: AtomicBool::new(false),
            threads: Mutex::new(Vec::new()),
        });
        let engine = Arc::clone(&coord);
        let handle = std::thread::Builder::new()
            .name("fleet-engine".into())
            .spawn(move || engine.engine_loop())
            .expect("spawn fleet engine");
        coord.threads.lock().unwrap().push(handle);
        coord
    }

    /// Submit a job for distributed execution. `job` is the caller's id,
    /// echoed in the sink callback.
    pub fn submit(&self, job: u64, spec: JobSpec) {
        // Prediction can be milliseconds of model work on a cold cache;
        // do it before taking the coordinator lock.
        let predicted_s = self.policy.predict_runtime_s(&spec);
        let mut inner = self.inner.lock().unwrap();
        inner.jobs.insert(
            job,
            JobState {
                spec,
                grants: 0,
                attempts: Vec::new(),
                active_leases: Vec::new(),
                done: false,
                not_before: None,
                straggler_dispatched: false,
                predicted_s,
            },
        );
        inner.ready.push_back(job);
        self.wake.notify_all();
    }

    /// Adopt a worker connection: spawns a reader thread that handles the
    /// registration handshake and all subsequent traffic.
    pub fn attach(this: &Arc<Coordinator>, wire: Arc<dyn Wire>) {
        let coord = Arc::clone(this);
        let handle = std::thread::Builder::new()
            .name("fleet-reader".into())
            .spawn(move || coord.reader_loop(wire))
            .expect("spawn fleet reader");
        this.threads.lock().unwrap().push(handle);
    }

    /// Number of live registered workers.
    pub fn live_workers(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.workers.values().filter(|w| w.alive).count()
    }

    /// Jobs submitted but not yet reported through the sink.
    pub fn open_jobs(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.jobs.values().filter(|j| !j.done).count()
    }

    /// Prometheus exposition of the fleet registry, with heartbeat-age
    /// gauges refreshed to now.
    pub fn metrics_text(&self) -> String {
        {
            let inner = self.inner.lock().unwrap();
            for w in inner.workers.values() {
                if w.alive {
                    w.gauges
                        .heartbeat_age
                        .set(w.last_heartbeat.elapsed().as_secs_f64());
                }
            }
        }
        self.metrics.render()
    }

    /// Drain all workers, wait up to `grace` for open jobs, then stop the
    /// engine and drop every connection. Jobs still open after the grace
    /// period are failed through the sink.
    pub fn shutdown(&self, grace: Duration) {
        {
            let inner = self.inner.lock().unwrap();
            for w in inner.workers.values() {
                if w.alive {
                    let _ = w.wire.send_line(&encode(&CoordMsg::Drain {}));
                }
            }
        }
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline && self.open_jobs() > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.stopping.store(true, Ordering::SeqCst);
        self.wake.notify_all();
        let mut inner = self.inner.lock().unwrap();
        let open: Vec<u64> = inner
            .jobs
            .iter()
            .filter(|(_, j)| !j.done)
            .map(|(id, _)| *id)
            .collect();
        for id in open {
            self.finalize_failed(&mut inner, id, "fleet shut down before completion", false);
        }
        for w in inner.workers.values() {
            w.wire.close();
        }
        self.deliver(inner);
        let handles: Vec<_> = self.threads.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    // ---- engine -------------------------------------------------------

    fn engine_loop(&self) {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if self.stopping.load(Ordering::SeqCst) {
                return;
            }
            self.tick(&mut inner);
            self.dispatch(&mut inner);
            if !inner.finished.is_empty() {
                self.deliver(inner);
                // Anything that notified `wake` while the lock was down
                // is picked up by running the pass again before waiting.
                inner = self.inner.lock().unwrap();
                continue;
            }
            let (guard, _) = self
                .wake
                .wait_timeout(inner, self.config.monitor_tick)
                .unwrap();
            inner = guard;
        }
    }

    /// One maintenance pass: dead workers, expired leases, straggler
    /// re-dispatch, backoff promotion.
    fn tick(&self, inner: &mut Inner) {
        let now = Instant::now();

        // Dead workers: missed heartbeats past the timeout.
        let dead: Vec<WorkerId> = inner
            .workers
            .values()
            .filter(|w| {
                w.alive && now.duration_since(w.last_heartbeat) > self.config.heartbeat_timeout
            })
            .map(|w| w.id)
            .collect();
        for wid in dead {
            self.worker_lost(inner, wid, "missed heartbeats");
        }

        // Expired leases.
        let expired: Vec<LeaseId> = inner
            .leases
            .iter()
            .filter(|(_, l)| l.expires < now)
            .map(|(id, _)| *id)
            .collect();
        for lease_id in expired {
            let Some(lease) = inner.leases.remove(&lease_id) else {
                continue;
            };
            self.free_slot(inner, lease.worker);
            if let Some(job) = inner.jobs.get_mut(&lease.job) {
                job.active_leases.retain(|l| *l != lease_id);
            }
            if lease.revoked {
                // Was already cancelled; the worker just never confirmed.
                continue;
            }
            let worker_label = self.worker_label(inner, lease.worker);
            self.send_to_worker(
                inner,
                lease.worker,
                &CoordMsg::Revoke {
                    lease: lease_id,
                    reason: "lease expired".into(),
                },
            );
            self.record_attempt(
                inner,
                lease.job,
                lease.attempt_no,
                &worker_label,
                AttemptOutcome::LeaseExpired,
                Some("lease ttl elapsed without renewal".into()),
            );
            self.metrics.retries.inc();
            self.requeue_after_failure(inner, lease.job, now);
        }

        // Straggler re-dispatch: one duplicate per job, only once a
        // deadline can be estimated, only to a different worker (the
        // dispatcher enforces the worker constraint).
        if inner.completed_ms.len() >= self.config.straggler_min_completions {
            let deadline_ms = self
                .percentile_ms(inner)
                .map(|p| p * self.config.straggler_factor)
                .unwrap_or(f64::INFINITY)
                .max(self.config.straggler_min_age.as_secs_f64() * 1000.0);
            let stragglers: Vec<u64> = inner
                .jobs
                .iter()
                .filter(|(_, j)| {
                    !j.done
                        && !j.straggler_dispatched
                        && j.active_leases.len() == 1
                        && j.grants < self.config.max_attempts
                })
                .filter(|(_, j)| {
                    j.active_leases
                        .first()
                        .and_then(|l| inner.leases.get(l))
                        .is_some_and(|l| {
                            !l.revoked
                                && now.duration_since(l.granted).as_secs_f64() * 1000.0
                                    > deadline_ms
                        })
                })
                .map(|(id, _)| *id)
                .collect();
            for job_id in stragglers {
                if let Some(job) = inner.jobs.get_mut(&job_id) {
                    job.straggler_dispatched = true;
                }
                inner.ready.push_back(job_id);
                self.metrics.straggler_redispatches.inc();
            }
        }

        // Promote jobs whose backoff elapsed.
        let mut promoted = Vec::new();
        let jobs = &inner.jobs;
        inner.waiting.retain(|job_id| {
            let due = jobs
                .get(job_id)
                .and_then(|j| j.not_before)
                .is_none_or(|t| t <= now);
            if due {
                promoted.push(*job_id);
            }
            !due
        });
        for job_id in promoted {
            inner.ready.push_back(job_id);
        }
    }

    /// Grant every ready job an eligible worker; jobs with no eligible
    /// worker stay queued for the next pass. Eligibility (liveness, free
    /// slots, device capability, no duplicate attempt on one worker) is
    /// enforced here; *which* eligible worker wins is the placement
    /// policy's call.
    fn dispatch(&self, inner: &mut Inner) {
        let mut pending = std::mem::take(&mut inner.ready);
        while let Some(job_id) = pending.pop_front() {
            let Some(job) = inner.jobs.get(&job_id) else {
                continue;
            };
            if job.done {
                continue;
            }
            let holders: Vec<WorkerId> = job
                .active_leases
                .iter()
                .filter_map(|l| inner.leases.get(l))
                .map(|l| l.worker)
                .collect();
            let spec = job.spec.clone();
            let key = spec.spec_key();

            // Predicted backlog per worker: sum of predicted runtimes of
            // the jobs it currently leases (grants in this same pass
            // count, so one pass doesn't pile everything on one worker).
            let mut backlog: HashMap<WorkerId, f64> = HashMap::new();
            for l in inner.leases.values() {
                if l.revoked {
                    continue;
                }
                let p = inner
                    .jobs
                    .get(&l.job)
                    .and_then(|j| j.predicted_s)
                    .unwrap_or(0.0);
                *backlog.entry(l.worker).or_default() += p;
            }

            let mut candidates: Vec<Candidate> = inner
                .workers
                .values()
                .filter(|w| {
                    w.alive
                        && !w.draining
                        && w.busy < w.caps.slots
                        && w.caps.supports_device(&spec.device)
                        && !holders.contains(&w.id)
                })
                .map(|w| Candidate {
                    id: w.id,
                    label: w.label.clone(),
                    slots: w.caps.slots,
                    free_slots: w.caps.slots - w.busy,
                    devices: w.caps.devices.clone(),
                    backlog_s: backlog.get(&w.id).copied().unwrap_or(0.0),
                    holds_result: inner
                        .residency
                        .get(&key)
                        .is_some_and(|held| held.contains(&w.id)),
                })
                .collect();
            candidates.sort_by_key(|c| c.id);
            if candidates.is_empty() {
                inner.ready.push_back(job_id);
                continue;
            }
            match self.policy.place(&spec, &candidates) {
                Some(wid) if candidates.iter().any(|c| c.id == wid) => {
                    self.grant(inner, job_id, wid);
                    self.placements.inc();
                }
                // A policy returning None or an ineligible id defers the
                // job to the next pass rather than violating eligibility.
                _ => inner.ready.push_back(job_id),
            }
        }
    }

    fn grant(&self, inner: &mut Inner, job_id: u64, wid: WorkerId) {
        inner.next_lease_id += 1;
        let lease_id = inner.next_lease_id;
        let now = Instant::now();
        let spec = {
            let Some(job) = inner.jobs.get_mut(&job_id) else {
                return;
            };
            job.grants += 1;
            let attempt_no = job.grants;
            job.active_leases.push(lease_id);
            inner.leases.insert(
                lease_id,
                LeaseState {
                    job: job_id,
                    worker: wid,
                    attempt_no,
                    granted: now,
                    expires: now + self.config.lease_ttl,
                    revoked: false,
                },
            );
            job.spec.clone()
        };
        if let Some(w) = inner.workers.get_mut(&wid) {
            w.busy += 1;
            w.gauges.slots_busy.set(w.busy as f64);
            w.gauges.leases.set(w.busy as f64);
        }
        self.metrics.dispatches.inc();
        self.send_to_worker(
            inner,
            wid,
            &CoordMsg::Grant {
                lease: lease_id,
                job: job_id,
                spec,
            },
        );
    }

    // ---- reader -------------------------------------------------------

    fn reader_loop(&self, wire: Arc<dyn Wire>) {
        let tick = self.config.monitor_tick.max(Duration::from_millis(10));
        // Registration phase: the first decodable message must be
        // Register; anything else is counted and skipped.
        let wid = loop {
            if self.stopping.load(Ordering::SeqCst) {
                return;
            }
            match wire.recv_line(tick) {
                Ok(Some(line)) => match decode::<WorkerMsg>(&line) {
                    Ok(WorkerMsg::Register { proto: _, caps }) => {
                        break self.register_worker(caps, Arc::clone(&wire));
                    }
                    Ok(_) | Err(_) => self.metrics.protocol_errors.inc(),
                },
                Ok(None) => continue,
                Err(_) => return,
            }
        };
        loop {
            if self.stopping.load(Ordering::SeqCst) {
                return;
            }
            match wire.recv_line(tick) {
                Ok(Some(line)) => {
                    let msg = match decode::<WorkerMsg>(&line) {
                        Ok(m) => m,
                        Err(_) => {
                            self.metrics.protocol_errors.inc();
                            continue;
                        }
                    };
                    if self.handle_worker_msg(wid, msg) {
                        return; // clean Bye
                    }
                }
                Ok(None) => continue,
                Err(WireError::Closed) | Err(WireError::Io(_)) => {
                    let mut inner = self.inner.lock().unwrap();
                    self.worker_lost(&mut inner, wid, "connection lost");
                    self.deliver(inner);
                    return;
                }
            }
        }
    }

    fn register_worker(&self, caps: WorkerCapabilities, wire: Arc<dyn Wire>) -> WorkerId {
        let mut inner = self.inner.lock().unwrap();
        inner.next_worker_id += 1;
        let wid = inner.next_worker_id;
        let base = if caps.name.is_empty() {
            format!("worker-{wid}")
        } else {
            caps.name.clone()
        };
        let label = if inner.workers.values().any(|w| w.label == base) {
            format!("{base}#{wid}")
        } else {
            base
        };
        let gauges = self.metrics.worker_gauges(&label);
        gauges.slots.set(caps.slots as f64);
        let welcome = CoordMsg::Welcome {
            worker: wid,
            heartbeat_ms: self.config.heartbeat_interval.as_millis() as u64,
            lease_ttl_ms: self.config.lease_ttl.as_millis() as u64,
        };
        let _ = wire.send_line(&encode(&welcome));
        inner.workers.insert(
            wid,
            WorkerState {
                id: wid,
                caps,
                label,
                wire,
                alive: true,
                draining: false,
                last_heartbeat: Instant::now(),
                busy: 0,
                gauges,
            },
        );
        self.metrics
            .workers
            .set(inner.workers.values().filter(|w| w.alive).count() as f64);
        self.wake.notify_all();
        wid
    }

    /// Returns true when the worker said a clean goodbye and the reader
    /// should exit.
    fn handle_worker_msg(&self, wid: WorkerId, msg: WorkerMsg) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let said_bye = matches!(msg, WorkerMsg::Bye {});
        match msg {
            WorkerMsg::Register { .. } => {
                // Re-registration on a live connection is a protocol error.
                self.metrics.protocol_errors.inc();
            }
            WorkerMsg::Heartbeat { held } => {
                let now = Instant::now();
                if let Some(w) = inner.workers.get_mut(&wid) {
                    w.last_heartbeat = now;
                }
                for lease_id in held {
                    if let Some(l) = inner.leases.get_mut(&lease_id) {
                        if l.worker == wid {
                            l.expires = now + self.config.lease_ttl;
                        }
                    }
                }
            }
            WorkerMsg::Completed { lease, job, group } => {
                self.on_completed(&mut inner, wid, lease, job, group);
            }
            WorkerMsg::Failed {
                lease,
                job,
                error,
                timed_out,
            } => {
                self.on_failed(&mut inner, wid, lease, job, error, timed_out);
            }
            WorkerMsg::Reject { lease, job, reason } => {
                self.on_reject(&mut inner, wid, lease, job, reason);
            }
            WorkerMsg::Released { lease, job } => {
                self.on_released(&mut inner, wid, lease, job);
            }
            WorkerMsg::Bye {} => self.worker_departed(&mut inner, wid),
        }
        self.deliver(inner);
        said_bye
    }

    /// Release the lock, wake the engine, then hand every outcome decided
    /// under the lock to the sink. The sink decodes results and wakes
    /// clients; run under the lock it would stall every heartbeat, grant
    /// and other completion, and could not call back into the coordinator.
    /// Taking the batch under the lock is what keeps delivery exactly-once
    /// per job. The engine is woken only once the guard is gone — woken
    /// under it, it runs straight into the mutex and sleeps again — and it
    /// cannot miss the change: it holds the lock from each pass through to
    /// its wait.
    fn deliver(&self, mut inner: MutexGuard<'_, Inner>) {
        let finished = std::mem::take(&mut inner.finished);
        drop(inner);
        self.wake.notify_all();
        for (job, outcome, attempts) in finished {
            (self.sink)(job, outcome, &attempts);
        }
    }

    fn on_completed(
        &self,
        inner: &mut Inner,
        wid: WorkerId,
        lease_id: LeaseId,
        job_id: u64,
        group: String,
    ) {
        let lease = inner.leases.remove(&lease_id);
        if let Some(l) = &lease {
            self.free_slot(inner, l.worker);
            if let Some(job) = inner.jobs.get_mut(&l.job) {
                job.active_leases.retain(|x| *x != lease_id);
            }
        }
        let worker_label = self.worker_label(inner, wid);
        let stale = lease.as_ref().is_none_or(|l| l.revoked)
            || inner.jobs.get(&job_id).is_none_or(|j| j.done);
        if stale {
            self.metrics.duplicates_discarded.inc();
            if let Some(l) = &lease {
                self.record_attempt(
                    inner,
                    job_id,
                    l.attempt_no,
                    &worker_label,
                    AttemptOutcome::Superseded,
                    Some("another attempt finished first".into()),
                );
            }
            self.gc_job(inner, job_id);
            return;
        }
        let lease = lease.expect("non-stale completion has a lease");
        let elapsed_ms = lease.granted.elapsed().as_secs_f64() * 1000.0;
        inner.completed_ms.push_back(elapsed_ms);
        while inner.completed_ms.len() > 512 {
            inner.completed_ms.pop_front();
        }
        self.record_attempt(
            inner,
            job_id,
            lease.attempt_no,
            &worker_label,
            AttemptOutcome::Completed,
            None,
        );
        // Revoke every other in-flight attempt: first completion wins.
        let others: Vec<LeaseId> = inner
            .jobs
            .get(&job_id)
            .map(|j| j.active_leases.clone())
            .unwrap_or_default();
        for other in others {
            let Some(l) = inner.leases.get_mut(&other) else {
                continue;
            };
            l.revoked = true;
            let target = l.worker;
            self.send_to_worker(
                inner,
                target,
                &CoordMsg::Revoke {
                    lease: other,
                    reason: "superseded: another attempt completed".into(),
                },
            );
        }
        let finished = inner.jobs.get_mut(&job_id).map(|job| {
            job.done = true;
            (job.spec.spec_key(), job.attempts.clone())
        });
        if let Some((key, attempts)) = finished {
            if inner.residency.len() > RESIDENCY_CAP {
                inner.residency.clear();
            }
            inner.residency.entry(key).or_default().insert(wid);
            inner
                .finished
                .push((job_id, FleetOutcome::Done { group }, attempts));
        }
        self.gc_job(inner, job_id);
    }

    fn on_failed(
        &self,
        inner: &mut Inner,
        wid: WorkerId,
        lease_id: LeaseId,
        job_id: u64,
        error: String,
        timed_out: bool,
    ) {
        let lease = inner.leases.remove(&lease_id);
        if let Some(l) = &lease {
            self.free_slot(inner, l.worker);
            if let Some(job) = inner.jobs.get_mut(&l.job) {
                job.active_leases.retain(|x| *x != lease_id);
            }
        }
        let worker_label = self.worker_label(inner, wid);
        let outcome = if timed_out {
            AttemptOutcome::TimedOut
        } else {
            AttemptOutcome::ExecutionFailed
        };
        if let Some(l) = &lease {
            self.record_attempt(
                inner,
                job_id,
                l.attempt_no,
                &worker_label,
                outcome,
                Some(error.clone()),
            );
        }
        let Some(job) = inner.jobs.get(&job_id) else {
            return;
        };
        if job.done || lease.as_ref().is_none_or(|l| l.revoked) {
            self.gc_job(inner, job_id);
            return;
        }
        if !job.active_leases.is_empty() {
            // A straggler duplicate is still running; let it decide.
            return;
        }
        // Execution failures are deterministic for this suite (the spec
        // itself is wrong, or its wall-clock budget is too small); retrying
        // on another worker would fail identically.
        self.finalize_failed(inner, job_id, &error, timed_out);
    }

    fn on_reject(
        &self,
        inner: &mut Inner,
        wid: WorkerId,
        lease_id: LeaseId,
        job_id: u64,
        reason: String,
    ) {
        let lease = inner.leases.remove(&lease_id);
        if let Some(l) = &lease {
            self.free_slot(inner, l.worker);
            if let Some(job) = inner.jobs.get_mut(&l.job) {
                job.active_leases.retain(|x| *x != lease_id);
            }
        }
        let worker_label = self.worker_label(inner, wid);
        if let Some(l) = &lease {
            self.record_attempt(
                inner,
                job_id,
                l.attempt_no,
                &worker_label,
                AttemptOutcome::Rejected,
                Some(reason),
            );
        }
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return;
        };
        if job.done {
            return;
        }
        // A rejection never executed, so it does not count against the
        // attempt bound; requeue immediately.
        job.grants = job.grants.saturating_sub(1);
        if job.active_leases.is_empty() {
            inner.ready.push_back(job_id);
            self.metrics.retries.inc();
        }
    }

    fn on_released(&self, inner: &mut Inner, wid: WorkerId, lease_id: LeaseId, job_id: u64) {
        let Some(lease) = inner.leases.remove(&lease_id) else {
            return; // already expired / accounted for
        };
        self.free_slot(inner, lease.worker);
        if let Some(job) = inner.jobs.get_mut(&lease.job) {
            job.active_leases.retain(|x| *x != lease_id);
        }
        let worker_label = self.worker_label(inner, wid);
        self.metrics.duplicates_discarded.inc();
        self.record_attempt(
            inner,
            job_id,
            lease.attempt_no,
            &worker_label,
            AttemptOutcome::Superseded,
            Some("revoked; discarded result".into()),
        );
        self.gc_job(inner, job_id);
    }

    // ---- failure plumbing --------------------------------------------

    /// A worker died (missed heartbeats or dropped connection): requeue
    /// every job it held and count a failover per job.
    fn worker_lost(&self, inner: &mut Inner, wid: WorkerId, reason: &str) {
        let label = {
            let Some(w) = inner.workers.get_mut(&wid) else {
                return;
            };
            if !w.alive {
                return;
            }
            w.alive = false;
            w.busy = 0;
            w.wire.close();
            w.gauges.slots_busy.set(0.0);
            w.gauges.leases.set(0.0);
            w.gauges.heartbeat_age.set(0.0);
            w.label.clone()
        };
        self.metrics
            .workers
            .set(inner.workers.values().filter(|w| w.alive).count() as f64);
        let held: Vec<LeaseId> = inner
            .leases
            .iter()
            .filter(|(_, l)| l.worker == wid)
            .map(|(id, _)| *id)
            .collect();
        let now = Instant::now();
        for lease_id in held {
            let Some(lease) = inner.leases.remove(&lease_id) else {
                continue;
            };
            if let Some(job) = inner.jobs.get_mut(&lease.job) {
                job.active_leases.retain(|x| *x != lease_id);
            }
            if lease.revoked {
                continue;
            }
            self.record_attempt(
                inner,
                lease.job,
                lease.attempt_no,
                &label,
                AttemptOutcome::WorkerLost,
                Some(reason.to_string()),
            );
            let still_running = inner
                .jobs
                .get(&lease.job)
                .is_some_and(|j| !j.done && j.active_leases.is_empty());
            if still_running {
                self.metrics.failovers.inc();
                self.requeue_after_failure(inner, lease.job, now);
            }
        }
        self.wake.notify_all();
    }

    /// A clean `Bye`: the worker drained; nothing should be in flight, but
    /// any leftovers fail over exactly like a lost worker's.
    fn worker_departed(&self, inner: &mut Inner, wid: WorkerId) {
        let holds_leases = inner.leases.values().any(|l| l.worker == wid);
        if holds_leases {
            self.worker_lost(inner, wid, "disconnected while holding leases");
            return;
        }
        if let Some(w) = inner.workers.get_mut(&wid) {
            if w.alive {
                w.alive = false;
                w.wire.close();
                w.gauges.slots_busy.set(0.0);
                w.gauges.leases.set(0.0);
            }
        }
        self.metrics
            .workers
            .set(inner.workers.values().filter(|w| w.alive).count() as f64);
    }

    /// Requeue with exponential backoff, or give up past the attempt
    /// bound.
    fn requeue_after_failure(&self, inner: &mut Inner, job_id: u64, now: Instant) {
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return;
        };
        if job.done || !job.active_leases.is_empty() {
            return;
        }
        if job.grants >= self.config.max_attempts {
            let msg = format!("gave up after {} attempts", job.grants);
            self.finalize_failed(inner, job_id, &msg, false);
            return;
        }
        let exponent = job.grants.saturating_sub(1).min(16);
        let backoff = self
            .config
            .retry_backoff
            .saturating_mul(1u32 << exponent)
            .min(self.config.retry_backoff_cap);
        job.not_before = Some(now + backoff);
        inner.waiting.push(job_id);
    }

    fn finalize_failed(&self, inner: &mut Inner, job_id: u64, error: &str, timed_out: bool) {
        let Some(job) = inner.jobs.get_mut(&job_id) else {
            return;
        };
        if job.done {
            return;
        }
        job.done = true;
        let attempts = job.attempts.clone();
        inner.finished.push((
            job_id,
            FleetOutcome::Failed {
                error: error.to_string(),
                timed_out,
            },
            attempts,
        ));
        self.gc_job(inner, job_id);
    }

    // ---- small helpers ------------------------------------------------

    /// Drop a job's bookkeeping once it is finalized and no lease still
    /// references it (bounds coordinator memory on long-running fleets).
    fn gc_job(&self, inner: &mut Inner, job_id: u64) {
        let removable = inner
            .jobs
            .get(&job_id)
            .is_some_and(|j| j.done && j.active_leases.is_empty());
        if removable {
            inner.jobs.remove(&job_id);
        }
    }

    fn record_attempt(
        &self,
        inner: &mut Inner,
        job_id: u64,
        attempt_no: u32,
        worker: &str,
        outcome: AttemptOutcome,
        detail: Option<String>,
    ) {
        if let Some(job) = inner.jobs.get_mut(&job_id) {
            job.attempts.push(Attempt {
                attempt: attempt_no,
                worker: worker.to_string(),
                outcome,
                detail,
            });
        }
    }

    fn free_slot(&self, inner: &mut Inner, wid: WorkerId) {
        if let Some(w) = inner.workers.get_mut(&wid) {
            if w.alive && w.busy > 0 {
                w.busy -= 1;
                w.gauges.slots_busy.set(w.busy as f64);
                w.gauges.leases.set(w.busy as f64);
            }
        }
    }

    fn worker_label(&self, inner: &Inner, wid: WorkerId) -> String {
        inner
            .workers
            .get(&wid)
            .map(|w| w.label.clone())
            .unwrap_or_else(|| format!("worker-{wid}"))
    }

    fn send_to_worker(&self, inner: &mut Inner, wid: WorkerId, msg: &CoordMsg) {
        let Some(w) = inner.workers.get(&wid) else {
            return;
        };
        if !w.alive {
            return;
        }
        let wire = Arc::clone(&w.wire);
        if wire.send_line(&encode(msg)).is_err() {
            self.worker_lost(inner, wid, "send failed");
        }
    }

    /// The configured percentile of recent completed-attempt durations.
    fn percentile_ms(&self, inner: &Inner) -> Option<f64> {
        if inner.completed_ms.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = inner.completed_ms.iter().copied().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let p = self.config.straggler_percentile.clamp(0.0, 1.0);
        let idx = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        Some(sorted[idx])
    }
}

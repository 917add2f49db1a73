//! The execution service: admission → queue → worker pool → cache.
//!
//! [`Service::submit`] is the one write path. It content-addresses the
//! spec, answers `Done` immediately on a cache hit, and otherwise admits
//! the job to the bounded queue where one of the pool's workers picks it
//! up, runs it through [`eod_harness::execute_spec`] (the same path the
//! direct CLI uses), stores the result, and publishes the transition.
//! Workers never propagate panics or errors past the job record: every
//! failure lands as a typed terminal state the client can read.
//!
//! Two execution backends share everything above the queue. The default
//! [`Service::start`] runs a local worker pool. [`Service::start_fleet`]
//! replaces the pool with a dispatcher that forwards jobs to an
//! [`eod_fleet::Coordinator`], which shards them across remote workers
//! under expiring leases; outcomes land back in the same job records and
//! result cache, so cache keys, stored JSON, and the protocol surface
//! are identical in both modes.

use crate::cache::{CacheStats, ResultCache};
use crate::jobs::{JobBoard, JobId, JobRecord};
use crate::metrics::ServiceMetrics;
use crate::queue::{AdmissionError, JobQueue};
use eod_core::fleet::{Attempt, AttemptOutcome};
use eod_core::predict::PredictionSet;
use eod_core::spec::{JobSpec, Priority};
use eod_fleet::{
    CompletionSink, Coordinator, FleetConfig, FleetOutcome, Greedy, PlacementPolicy, Predictive,
    RoundRobin,
};
use eod_harness::figures::{self, Figure};
use eod_harness::{GroupResult, RunnerConfig, RunnerError};
use eod_predict::{PredictError, Predictor};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which placement policy a fleet-mode service runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Rotate through eligible workers.
    RoundRobin,
    /// Most free slots first — the historical default.
    #[default]
    Greedy,
    /// Model-guided placement via the prediction service.
    Predictive,
}

impl Placement {
    /// Parse a `--placement` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "round-robin" | "roundrobin" | "rr" => Some(Placement::RoundRobin),
            "greedy" => Some(Placement::Greedy),
            "predictive" => Some(Placement::Predictive),
            _ => None,
        }
    }

    /// The canonical policy name.
    pub fn label(self) -> &'static str {
        match self {
            Placement::RoundRobin => "round-robin",
            Placement::Greedy => "greedy",
            Placement::Predictive => "predictive",
        }
    }
}

/// Service sizing and execution defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs concurrently.
    pub workers: usize,
    /// Queue admission bound.
    pub queue_capacity: usize,
    /// Result-cache entry bound.
    pub cache_capacity: usize,
    /// Runner configuration used for figure batches (individual submits
    /// carry their own [`eod_core::spec::ExecConfig`]).
    pub runner: RunnerConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 1024,
            runner: RunnerConfig::quick(),
        }
    }
}

/// Error-message prefix marking a job that was displaced (shed) from the
/// queue by a high-priority admission at capacity. Waiters can recognize
/// the displacement — and, like [`Service::run_figure`], choose to
/// resubmit — by matching this prefix on a `Failed` record's error.
pub const SHED_ERROR_PREFIX: &str = "shed:";

/// A figure executed through the service, with the batch's cache economy.
#[derive(Debug, Clone)]
pub struct FigureOutcome {
    /// The assembled figure, identical (in its deterministic fields) to
    /// the direct path's.
    pub figure: Figure,
    /// Groups in the batch.
    pub jobs: u64,
    /// Batch lookups answered from the cache.
    pub cache_hits: u64,
    /// Batch lookups that required execution.
    pub cache_misses: u64,
}

/// The running service. Create with [`Service::start`]; share via `Arc`.
pub struct Service {
    config: ServeConfig,
    queue: JobQueue<Arc<JobRecord>>,
    cache: ResultCache,
    board: JobBoard,
    metrics: ServiceMetrics,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Fleet-mode coordinator; `None` when a local pool executes jobs.
    fleet: Mutex<Option<Arc<Coordinator>>>,
    /// The prediction service. Always present — `Predict` requests work
    /// in every mode — and shared with the predictive placement policy
    /// when that mode is active.
    predictor: Arc<Predictor>,
    /// Whether the fleet runs under predictive placement (enables the
    /// predicted-vs-actual feedback gauge).
    predictive: bool,
}

impl Service {
    /// Start the worker pool and return the shared service handle.
    pub fn start(config: ServeConfig) -> Arc<Self> {
        let workers = config.workers.max(1);
        let svc = Arc::new(Self {
            queue: JobQueue::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity),
            board: JobBoard::new(),
            metrics: ServiceMetrics::new(),
            workers: Mutex::new(Vec::new()),
            fleet: Mutex::new(None),
            predictor: Arc::new(Predictor::new()),
            predictive: false,
            config,
        });
        let mut handles = svc.workers.lock().unwrap();
        for i in 0..workers {
            let svc = Arc::clone(&svc);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("eod-serve-worker-{i}"))
                    .spawn(move || svc.worker_loop())
                    .expect("spawn worker"),
            );
        }
        drop(handles);
        svc
    }

    /// Start in **fleet mode**: no local pool; one dispatcher thread
    /// forwards admitted jobs to the returned [`Coordinator`], which
    /// leases them out to remote workers (attach connections with
    /// [`Coordinator::attach`]). The caller owns the coordinator's
    /// listener; [`Service::shutdown`] drains the coordinator too.
    pub fn start_fleet(config: ServeConfig, fleet: FleetConfig) -> (Arc<Self>, Arc<Coordinator>) {
        Self::start_fleet_placed(config, fleet, Placement::Greedy)
    }

    /// Fleet mode with an explicit placement policy. [`Placement::Predictive`]
    /// shares the service's predictor with the policy and enables the
    /// predicted-vs-actual feedback gauge.
    pub fn start_fleet_placed(
        config: ServeConfig,
        fleet: FleetConfig,
        placement: Placement,
    ) -> (Arc<Self>, Arc<Coordinator>) {
        let predictor = Arc::new(Predictor::new());
        let policy: Arc<dyn PlacementPolicy> = match placement {
            Placement::RoundRobin => Arc::new(RoundRobin::new()),
            Placement::Greedy => Arc::new(Greedy::new()),
            Placement::Predictive => Arc::new(Predictive::new(Arc::clone(&predictor))),
        };
        let svc = Arc::new(Self {
            queue: JobQueue::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity),
            board: JobBoard::new(),
            metrics: ServiceMetrics::new(),
            workers: Mutex::new(Vec::new()),
            fleet: Mutex::new(None),
            predictor,
            predictive: placement == Placement::Predictive,
            config,
        });
        let sink: CompletionSink = {
            let svc = Arc::downgrade(&svc);
            Box::new(move |job, outcome, attempts| {
                if let Some(svc) = svc.upgrade() {
                    svc.fleet_complete(job, outcome, attempts);
                }
            })
        };
        let coord = Coordinator::start_with_policy(fleet, sink, policy);
        *svc.fleet.lock().unwrap() = Some(Arc::clone(&coord));
        let dispatcher = {
            let svc = Arc::clone(&svc);
            let coord = Arc::clone(&coord);
            std::thread::Builder::new()
                .name("eod-fleet-dispatch".into())
                .spawn(move || svc.fleet_dispatch_loop(&coord))
                .expect("spawn fleet dispatcher")
        };
        svc.workers.lock().unwrap().push(dispatcher);
        (svc, coord)
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Submit one job. Cache hits return an already-`Done` record; misses
    /// return a `Queued` record, or a typed refusal when the queue is full
    /// or the service is stopping.
    pub fn submit(
        &self,
        spec: JobSpec,
        priority: Priority,
    ) -> Result<Arc<JobRecord>, AdmissionError> {
        self.submit_inner(spec, priority, false)
    }

    /// Like [`Self::submit`], but a [`Priority::High`] job arriving at a
    /// full queue sheds the newest queued [`Priority::Normal`] job
    /// instead of being refused: the victim's record turns `Failed` with
    /// a [`SHED_ERROR_PREFIX`] error (its waiters and watchers see the
    /// transition immediately) and the shed is counted as a
    /// `shed_low_priority` admission rejection. The pipelined transport
    /// admits through this path so high-priority work keeps flowing under
    /// sustained load.
    pub fn submit_shedding(
        &self,
        spec: JobSpec,
        priority: Priority,
    ) -> Result<Arc<JobRecord>, AdmissionError> {
        let rec = self.board.create(spec, priority);
        self.metrics.on_submission(priority);
        if let Some((json, result)) = self.cache.get(&rec.key) {
            rec.set_done(json, result, true);
            self.metrics
                .on_terminal(rec.phase(), rec.age().as_secs_f64());
            return Ok(rec);
        }
        match self.queue.push_or_shed(Arc::clone(&rec), priority) {
            Ok(shed) => {
                if let Some(victim) = shed {
                    victim.set_failed(
                        format!(
                            "{SHED_ERROR_PREFIX} displaced by a high-priority \
                             admission at queue capacity"
                        ),
                        false,
                    );
                    self.metrics.on_shed();
                    self.metrics
                        .on_terminal(victim.phase(), victim.age().as_secs_f64());
                }
                Ok(rec)
            }
            Err(e) => {
                self.board.forget(rec.id);
                self.metrics.on_rejection(priority, e);
                Err(e)
            }
        }
    }

    /// Like [`Self::submit`] but waits out a full queue instead of
    /// refusing — backpressure for the trusted in-process figure batch,
    /// never for protocol clients.
    fn submit_backpressured(
        &self,
        spec: JobSpec,
        priority: Priority,
    ) -> Result<Arc<JobRecord>, AdmissionError> {
        self.submit_inner(spec, priority, true)
    }

    fn submit_inner(
        &self,
        spec: JobSpec,
        priority: Priority,
        backpressure: bool,
    ) -> Result<Arc<JobRecord>, AdmissionError> {
        let rec = self.board.create(spec, priority);
        self.metrics.on_submission(priority);
        // One counted lookup per submission, however many push retries the
        // backpressure loop needs.
        if let Some((json, result)) = self.cache.get(&rec.key) {
            rec.set_done(json, result, true);
            self.metrics
                .on_terminal(rec.phase(), rec.age().as_secs_f64());
            return Ok(rec);
        }
        loop {
            match self.queue.push(Arc::clone(&rec), priority) {
                Ok(()) => return Ok(rec),
                Err(AdmissionError::QueueFull { .. }) if backpressure => {
                    std::thread::sleep(Duration::from_millis(2));
                    // An identical job may have finished while we waited.
                    if let Some((json, result)) = self.cache.peek(&rec.key) {
                        rec.set_done(json, result, true);
                        self.metrics
                            .on_terminal(rec.phase(), rec.age().as_secs_f64());
                        return Ok(rec);
                    }
                }
                Err(e) => {
                    self.board.forget(rec.id);
                    self.metrics.on_rejection(priority, e);
                    return Err(e);
                }
            }
        }
    }

    fn worker_loop(&self) {
        while let Some(rec) = self.queue.pop() {
            self.metrics.worker_busy();
            if self.execute_one(&rec) {
                self.metrics
                    .on_terminal(rec.phase(), rec.age().as_secs_f64());
            }
            self.metrics.worker_idle();
        }
    }

    /// Run one job to a terminal state; `false` means the job went back
    /// to the queue (a first wall-clock timeout earns exactly one retry)
    /// and must not be counted terminal yet.
    fn execute_one(&self, rec: &Arc<JobRecord>) -> bool {
        rec.set_running();
        // An identical job may have completed while this one queued;
        // answer from the store without re-executing. peek() keeps the
        // hit/miss counters honest — the miss was already counted at
        // submission.
        if let Some((json, result)) = self.cache.peek(&rec.key) {
            rec.set_done(json, result, true);
            return true;
        }
        match eod_harness::execute_spec(&rec.spec) {
            Ok(group) => match serde_json::to_string(&group) {
                Ok(json) => {
                    let result = Arc::new(group);
                    self.cache
                        .insert(rec.key.clone(), json.clone(), Arc::clone(&result));
                    rec.set_done(json, result, false);
                }
                Err(e) => rec.set_failed(format!("result serialization: {e}"), false),
            },
            Err(e @ RunnerError::TimedOut { .. }) => {
                let prior_timeouts = rec
                    .attempts()
                    .iter()
                    .filter(|a| a.outcome == AttemptOutcome::TimedOut)
                    .count() as u32;
                rec.record_attempt(Attempt {
                    attempt: prior_timeouts + 1,
                    worker: "local".into(),
                    outcome: AttemptOutcome::TimedOut,
                    detail: Some(e.to_string()),
                });
                // A budget overrun is requeued exactly once: scheduling
                // noise can blow the budget one time, but a second overrun
                // is the spec's own wall-clock and is terminal.
                if prior_timeouts == 0 {
                    rec.set_queued();
                    if self.queue.requeue(Arc::clone(rec), rec.priority).is_ok() {
                        return false;
                    }
                    // Shutting down: the retry has nowhere to run.
                }
                rec.set_failed(e.to_string(), true);
            }
            Err(e) => rec.set_failed(e.to_string(), false),
        }
        true
    }

    /// Fleet-mode replacement for the worker pool: hands admitted jobs to
    /// the coordinator. Late cache hits (an identical job finished while
    /// this one queued) are still answered locally.
    fn fleet_dispatch_loop(&self, coord: &Coordinator) {
        while let Some(rec) = self.queue.pop() {
            if let Some((json, result)) = self.cache.peek(&rec.key) {
                rec.set_done(json, result, true);
                self.metrics
                    .on_terminal(rec.phase(), rec.age().as_secs_f64());
                continue;
            }
            // "Running" here means "in the fleet's hands" — grants,
            // retries, and failovers are the coordinator's business.
            rec.set_running();
            if self.predictive {
                // The policy already predicted this spec at submit time,
                // so this is a prediction-cache hit.
                if let Some(run_s) = self.predictor.runtime_s(&rec.spec) {
                    rec.set_predicted_ms(run_s * 1e3);
                }
            }
            coord.submit(rec.id, rec.spec.clone());
        }
    }

    /// Completion-sink target: land a fleet outcome in the job record and
    /// result cache, exactly as the local pool would. The stored JSON is
    /// the worker's serialization of the same `GroupResult` the local
    /// path produces, so cached bytes are identical across modes.
    fn fleet_complete(&self, job: JobId, outcome: FleetOutcome, attempts: &[Attempt]) {
        let Some(rec) = self.board.get(job) else {
            return;
        };
        rec.set_attempts(attempts.to_vec());
        match outcome {
            FleetOutcome::Done { group } => match serde_json::from_str::<GroupResult>(&group) {
                Ok(result) => {
                    let result = Arc::new(result);
                    // Feed the prediction-error gauge from the measured
                    // runtime when predictive placement dispatched this.
                    if let (Some(predicted_ms), Some(actual_ms)) =
                        (rec.predicted_ms(), result.mean_kernel_ms())
                    {
                        if actual_ms > 0.0 {
                            self.metrics.on_prediction_feedback(
                                (predicted_ms - actual_ms).abs() / actual_ms,
                            );
                        }
                    }
                    self.cache
                        .insert(rec.key.clone(), group.clone(), Arc::clone(&result));
                    rec.set_done(group, result, false);
                }
                Err(e) => rec.set_failed(format!("result deserialization: {e}"), false),
            },
            FleetOutcome::Failed { error, timed_out } => rec.set_failed(error, timed_out),
        }
        self.metrics
            .on_terminal(rec.phase(), rec.age().as_secs_f64());
    }

    /// Predict the spec's runtime and energy on every catalog device
    /// without executing anything — the `Predict` protocol request.
    pub fn predict(&self, spec: &JobSpec) -> Result<Arc<PredictionSet>, PredictError> {
        self.predictor.predict(spec)
    }

    /// Look up a job by id.
    pub fn job(&self, id: JobId) -> Option<Arc<JobRecord>> {
        self.board.get(id)
    }

    /// All jobs in submission order.
    pub fn jobs(&self) -> Vec<Arc<JobRecord>> {
        self.board.all()
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Jobs awaiting a worker.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Jobs awaiting a worker at each priority: `(high, normal)`.
    pub fn queue_depths(&self) -> (usize, usize) {
        self.queue.depths()
    }

    /// Executors visible to clients: the local pool's size, or in fleet
    /// mode the coordinator's live remote workers.
    pub fn worker_count(&self) -> usize {
        match self.fleet.lock().unwrap().as_ref() {
            Some(coord) => coord.live_workers(),
            None => self.config.workers.max(1),
        }
    }

    /// The full metric surface in Prometheus text exposition format —
    /// answers both the protocol's `Metrics` request and `GET /metrics`.
    /// The predictor's `eod_predict_*` series, the device simulator's
    /// `eod_devsim_histogram_cache_*` gauges and the recorded-run store's
    /// `eod_run_log_*` series are always appended; in
    /// fleet mode the coordinator's registry (per-worker utilization and
    /// heartbeat-age gauges, retry/failover/straggler counters, and the
    /// per-policy `eod_fleet_placements_total` counter) is appended too.
    pub fn metrics_text(&self) -> String {
        let mut text = self.metrics.render(
            self.queue.depths(),
            self.queue.capacity(),
            &self.cache.stats(),
            self.worker_count(),
        );
        text.push_str(&self.predictor.metrics_text());
        text.push_str(&eod_devsim::HistogramCache::global().metrics_text());
        text.push_str(&crate::metrics::run_log_text(
            &eod_core::recorded::RunLog::global().stats(),
        ));
        let coord = self.fleet.lock().unwrap().clone();
        if let Some(coord) = coord {
            text.push_str(&coord.metrics_text());
        }
        text
    }

    /// Run a whole figure through the queue: one job per measurement
    /// group, assembled back into the figure's panel structure. Repeat
    /// submissions are answered from the cache group by group.
    pub fn run_figure(&self, id: &str) -> Result<FigureOutcome, String> {
        let plan = figures::figure_plan(id, &self.config.runner)?;
        let before = self.cache.stats();
        let records: Vec<Arc<JobRecord>> = plan
            .specs()
            .map(|spec| {
                self.submit_backpressured(spec.clone(), Priority::Normal)
                    .map_err(|e| format!("{id}: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let mut results = Vec::with_capacity(records.len());
        for rec in &records {
            let mut rec = Arc::clone(rec);
            loop {
                let snap = rec.wait_terminal();
                match snap.result {
                    Some(r) => {
                        results.push((*r).clone());
                        break;
                    }
                    None if snap
                        .error
                        .as_deref()
                        .is_some_and(|e| e.starts_with(SHED_ERROR_PREFIX)) =>
                    {
                        // The group was displaced by unrelated high-priority
                        // traffic, not by anything wrong with the group
                        // itself. Resubmit: figure output must not depend
                        // on concurrent load.
                        rec = self
                            .submit_backpressured(rec.spec.clone(), Priority::Normal)
                            .map_err(|e| format!("{id}: {e}"))?;
                    }
                    None => {
                        return Err(format!(
                            "{id}: group {} {} on {} {}: {}",
                            rec.spec.benchmark,
                            rec.spec.size.label(),
                            rec.spec.device,
                            snap.phase,
                            snap.error.unwrap_or_default()
                        ))
                    }
                }
            }
        }
        let after = self.cache.stats();
        Ok(FigureOutcome {
            figure: plan.assemble(results)?,
            jobs: plan.job_count() as u64,
            cache_hits: after.hits - before.hits,
            cache_misses: after.misses - before.misses,
        })
    }

    /// Stop admitting work, drain the queue, and join every worker. In
    /// fleet mode this also drains the coordinator: workers get `Drain`,
    /// open jobs get a grace period, stragglers are failed through the
    /// sink.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        let coord = self.fleet.lock().unwrap().take();
        if let Some(coord) = coord {
            coord.shutdown(Duration::from_secs(5));
        }
    }
}

//! The service's metric surface.
//!
//! One [`ServiceMetrics`] instance holds typed handles into an
//! [`eod_telemetry::Registry`]; the service increments event counters at
//! the moment things happen (admissions, rejections, terminal states,
//! worker pickup/release) and refreshes point-in-time gauges (queue
//! depth, cache occupancy, busy workers) at scrape time, so a scrape is
//! always consistent with what `Stats` would report. Cache hit/miss/
//! eviction totals are mirrored from the cache's own counters rather than
//! double-counted here.

use crate::cache::CacheStats;
use eod_core::recorded::RunLogStats;
use eod_core::spec::Priority;
use eod_telemetry::{Counter, Gauge, Histogram, Registry, LATENCY_BUCKETS};
use std::sync::Arc;

/// Reasons an admission was refused, as metric label values.
pub mod reject_reasons {
    /// The queue was at capacity.
    pub const QUEUE_FULL: &str = "queue_full";
    /// The service was shutting down.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// A queued normal-priority job was displaced by a high-priority
    /// admission at queue capacity.
    pub const SHED_LOW_PRIORITY: &str = "shed_low_priority";
}

fn per_priority<T>(mut make: impl FnMut(Priority) -> T) -> [(Priority, T); 2] {
    let [a, b] = [Priority::High, Priority::Normal];
    [(a, make(a)), (b, make(b))]
}

fn pick<T>(pairs: &[(Priority, Arc<T>)], priority: Priority) -> &T {
    pairs
        .iter()
        .find(|(p, _)| *p == priority)
        .map(|(_, v)| v.as_ref())
        .expect("both priorities registered")
}

/// Typed handles into the service's metric registry.
pub struct ServiceMetrics {
    registry: Registry,
    queue_depth: [(Priority, Arc<Gauge>); 2],
    queue_capacity: Arc<Gauge>,
    submissions: [(Priority, Arc<Counter>); 2],
    rejections_full: [(Priority, Arc<Counter>); 2],
    rejections_shutdown: [(Priority, Arc<Counter>); 2],
    rejections_shed: Arc<Counter>,
    jobs_done: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_timed_out: Arc<Counter>,
    job_latency: Arc<Histogram>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_evictions: Arc<Counter>,
    cache_entries: Arc<Gauge>,
    cache_capacity: Arc<Gauge>,
    workers: Arc<Gauge>,
    workers_busy: Arc<Gauge>,
    predict_feedback: Arc<Counter>,
    predict_error_ratio: Arc<Gauge>,
}

impl ServiceMetrics {
    /// Register every instrument the service exposes.
    pub fn new() -> Self {
        let r = Registry::new();
        let queue_depth = per_priority(|p| {
            r.gauge_with(
                "eod_queue_depth",
                "Jobs awaiting a worker, by priority.",
                &[("priority", p.label())],
            )
        });
        let queue_capacity = r.gauge("eod_queue_capacity", "Queue admission bound.");
        let submissions = per_priority(|p| {
            r.counter_with(
                "eod_jobs_submitted_total",
                "Jobs registered at submission, by priority (cache hits included).",
                &[("priority", p.label())],
            )
        });
        let rejections_full = per_priority(|p| {
            r.counter_with(
                "eod_admission_rejections_total",
                "Submissions refused at the queue boundary, by priority and reason.",
                &[
                    ("priority", p.label()),
                    ("reason", reject_reasons::QUEUE_FULL),
                ],
            )
        });
        let rejections_shutdown = per_priority(|p| {
            r.counter_with(
                "eod_admission_rejections_total",
                "Submissions refused at the queue boundary, by priority and reason.",
                &[
                    ("priority", p.label()),
                    ("reason", reject_reasons::SHUTTING_DOWN),
                ],
            )
        });
        // Shedding only ever displaces normal-priority work, so the shed
        // series carries a fixed priority label.
        let rejections_shed = r.counter_with(
            "eod_admission_rejections_total",
            "Submissions refused at the queue boundary, by priority and reason.",
            &[
                ("priority", Priority::Normal.label()),
                ("reason", reject_reasons::SHED_LOW_PRIORITY),
            ],
        );
        let completed = |state: &str| {
            r.counter_with(
                "eod_jobs_completed_total",
                "Jobs reaching a terminal state, by state.",
                &[("state", state)],
            )
        };
        let jobs_done = completed("done");
        let jobs_failed = completed("failed");
        let jobs_timed_out = completed("timed-out");
        let job_latency = r.histogram(
            "eod_job_latency_seconds",
            "Submission-to-terminal latency of jobs.",
            &LATENCY_BUCKETS,
        );
        let cache_hits = r.counter("eod_cache_hits_total", "Lookups answered from the cache.");
        let cache_misses = r.counter(
            "eod_cache_misses_total",
            "Lookups that fell through to execution.",
        );
        let cache_evictions = r.counter(
            "eod_cache_evictions_total",
            "Entries displaced by the LRU bound.",
        );
        let cache_entries = r.gauge("eod_cache_entries", "Entries currently resident.");
        let cache_capacity = r.gauge("eod_cache_capacity", "Cache entry bound.");
        let workers = r.gauge("eod_workers", "Worker threads in the pool.");
        let workers_busy = r.gauge("eod_workers_busy", "Workers currently executing a job.");
        let predict_feedback = r.counter(
            "eod_predict_feedback_total",
            "Completed jobs whose measured runtime was compared against the predictive policy's model.",
        );
        let predict_error_ratio = r.gauge(
            "eod_predict_error_ratio",
            "Most recent |predicted - actual| / actual runtime error from a completed predictively-placed job.",
        );
        Self {
            registry: r,
            queue_depth,
            queue_capacity,
            submissions,
            rejections_full,
            rejections_shutdown,
            rejections_shed,
            jobs_done,
            jobs_failed,
            jobs_timed_out,
            job_latency,
            cache_hits,
            cache_misses,
            cache_evictions,
            cache_entries,
            cache_capacity,
            workers,
            workers_busy,
            predict_feedback,
            predict_error_ratio,
        }
    }

    /// Record one predicted-vs-actual comparison from a completed job
    /// placed by the predictive policy.
    pub fn on_prediction_feedback(&self, error_ratio: f64) {
        self.predict_feedback.inc();
        self.predict_error_ratio.set(error_ratio);
    }

    /// Count one submission (before the cache/queue decide its fate).
    pub fn on_submission(&self, priority: Priority) {
        pick(&self.submissions, priority).inc();
    }

    /// Count one typed refusal at the queue boundary.
    pub fn on_rejection(&self, priority: Priority, e: crate::queue::AdmissionError) {
        use crate::queue::AdmissionError;
        match e {
            AdmissionError::QueueFull { .. } => pick(&self.rejections_full, priority).inc(),
            AdmissionError::ShuttingDown => pick(&self.rejections_shutdown, priority).inc(),
        }
    }

    /// Count one queued normal-priority job displaced by a high-priority
    /// admission at queue capacity.
    pub fn on_shed(&self) {
        self.rejections_shed.inc();
    }

    /// Count a terminal transition and observe the job's latency.
    pub fn on_terminal(&self, phase: crate::jobs::JobPhase, latency_secs: f64) {
        use crate::jobs::JobPhase;
        match phase {
            JobPhase::Done => self.jobs_done.inc(),
            JobPhase::Failed => self.jobs_failed.inc(),
            JobPhase::TimedOut => self.jobs_timed_out.inc(),
            JobPhase::Queued | JobPhase::Running => return,
        }
        self.job_latency.observe(latency_secs);
    }

    /// A worker picked a job up.
    pub fn worker_busy(&self) {
        self.workers_busy.add(1.0);
    }

    /// A worker finished its job (however it ended).
    pub fn worker_idle(&self) {
        self.workers_busy.add(-1.0);
    }

    /// Refresh the point-in-time gauges and mirrored cache totals, then
    /// render the whole registry in Prometheus text exposition format.
    pub fn render(
        &self,
        depths: (usize, usize),
        queue_capacity: usize,
        cache: &CacheStats,
        workers: usize,
    ) -> String {
        let (high, normal) = depths;
        pick(&self.queue_depth, Priority::High).set(high as f64);
        pick(&self.queue_depth, Priority::Normal).set(normal as f64);
        self.queue_capacity.set(queue_capacity as f64);
        self.cache_hits.mirror(cache.hits as f64);
        self.cache_misses.mirror(cache.misses as f64);
        self.cache_evictions.mirror(cache.evictions as f64);
        self.cache_entries.set(cache.entries as f64);
        self.cache_capacity.set(cache.capacity as f64);
        self.workers.set(workers as f64);
        self.registry.render()
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// The `eod_run_log_*` series: occupancy and traffic of the recorded-run
/// store ([`eod_core::recorded::RunLog`]) the runner prices groups from.
/// The store keeps its own counts, so this mirrors them into a registry
/// built for the scrape.
pub fn run_log_text(stats: &RunLogStats) -> String {
    let r = Registry::new();
    r.gauge("eod_run_log_entries", "Recorded runs held by the run log.")
        .set(stats.entries as f64);
    r.gauge(
        "eod_run_log_bytes",
        "Bytes of recorded commands held by the run log.",
    )
    .set(stats.bytes as f64);
    r.counter(
        "eod_run_log_hits_total",
        "Simulated groups priced from a run another group recorded.",
    )
    .mirror(stats.hits as f64);
    r.counter(
        "eod_run_log_misses_total",
        "Simulated groups that found no run and recorded it.",
    )
    .mirror(stats.misses as f64);
    r.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobPhase;
    use crate::queue::AdmissionError;

    fn stats() -> CacheStats {
        CacheStats {
            hits: 4,
            misses: 7,
            evictions: 2,
            entries: 5,
            capacity: 16,
        }
    }

    #[test]
    fn counters_and_gauges_land_in_the_exposition() {
        let m = ServiceMetrics::new();
        m.on_submission(Priority::High);
        m.on_submission(Priority::Normal);
        m.on_submission(Priority::Normal);
        m.on_rejection(Priority::Normal, AdmissionError::QueueFull { capacity: 2 });
        m.on_rejection(Priority::High, AdmissionError::ShuttingDown);
        m.on_shed();
        m.on_terminal(JobPhase::Done, 0.02);
        m.on_terminal(JobPhase::TimedOut, 0.3);
        m.worker_busy();
        let text = m.render((1, 3), 8, &stats(), 4);
        assert!(text.contains("eod_queue_depth{priority=\"high\"} 1\n"));
        assert!(text.contains("eod_queue_depth{priority=\"normal\"} 3\n"));
        assert!(text.contains("eod_queue_capacity 8\n"));
        assert!(text.contains("eod_jobs_submitted_total{priority=\"normal\"} 2\n"));
        assert!(text.contains(
            "eod_admission_rejections_total{priority=\"normal\",reason=\"queue_full\"} 1\n"
        ));
        assert!(text.contains(
            "eod_admission_rejections_total{priority=\"high\",reason=\"shutting_down\"} 1\n"
        ));
        assert!(text.contains(
            "eod_admission_rejections_total{priority=\"normal\",reason=\"shed_low_priority\"} 1\n"
        ));
        assert!(text.contains("eod_jobs_completed_total{state=\"done\"} 1\n"));
        assert!(text.contains("eod_jobs_completed_total{state=\"timed-out\"} 1\n"));
        assert!(text.contains("eod_job_latency_seconds_count 2\n"));
        assert!(text.contains("eod_job_latency_seconds_bucket{le=\"0.025\"} 1\n"));
        assert!(text.contains("eod_cache_hits_total 4\n"));
        assert!(text.contains("eod_cache_misses_total 7\n"));
        assert!(text.contains("eod_cache_evictions_total 2\n"));
        assert!(text.contains("eod_cache_entries 5\n"));
        assert!(text.contains("eod_workers 4\n"));
        assert!(text.contains("eod_workers_busy 1\n"));
    }

    #[test]
    fn prediction_feedback_lands_in_the_exposition_with_help_and_type() {
        let m = ServiceMetrics::new();
        m.on_prediction_feedback(0.25);
        m.on_prediction_feedback(0.1);
        let text = m.render((0, 0), 1, &stats(), 1);
        assert!(text.contains("eod_predict_feedback_total 2\n"), "{text}");
        assert!(text.contains("eod_predict_error_ratio 0.1\n"), "{text}");
        for name in ["eod_predict_feedback_total", "eod_predict_error_ratio"] {
            assert!(text.contains(&format!("# HELP {name} ")), "missing {name}");
            assert!(text.contains(&format!("# TYPE {name} ")), "missing {name}");
        }
    }

    #[test]
    fn non_terminal_phases_do_not_count() {
        let m = ServiceMetrics::new();
        m.on_terminal(JobPhase::Queued, 1.0);
        m.on_terminal(JobPhase::Running, 1.0);
        let text = m.render((0, 0), 1, &stats(), 1);
        assert!(text.contains("eod_job_latency_seconds_count 0\n"));
        assert!(text.contains("eod_jobs_completed_total{state=\"done\"} 0\n"));
    }

    #[test]
    fn run_log_series_mirror_the_store() {
        let text = run_log_text(&RunLogStats {
            entries: 21,
            bytes: 300_000,
            hits: 261,
            misses: 21,
        });
        for line in [
            "# TYPE eod_run_log_entries gauge",
            "eod_run_log_entries 21\n",
            "eod_run_log_bytes 300000\n",
            "# TYPE eod_run_log_hits_total counter",
            "eod_run_log_hits_total 261\n",
            "eod_run_log_misses_total 21\n",
        ] {
            assert!(text.contains(line), "missing {line:?} in {text}");
        }
    }
}

//! `eod-predict` — the device-model characterization as an online query
//! service.
//!
//! Since PR 5 the stack-distance cache engine answers "how would this
//! kernel behave on device X" in microseconds; this crate turns that
//! offline capability into a serving feature. A [`Predictor`] takes a
//! [`JobSpec`] and returns a ranked [`PredictionSet`]: one
//! [`Prediction`] per catalog device (the Table 1 fifteen plus the
//! post-paper extensions) with modeled runtime,
//! modeled energy, energy-delay product, a confidence score, and the
//! memoization provenance of the cache profile it leaned on.
//!
//! ## How a prediction is made
//!
//! 1. **Profiles from the recorded run.** Every launch of the workload's
//!    first iteration reports a [`KernelProfile`] (flops, bytes, working
//!    set, access pattern); profiles describe the *kernel*, not the
//!    device, so one recording serves every catalog device. The predictor
//!    reads them from the same [`RecordedRun`] the runner prices
//!    ([`eod_core::recorded`]): if some group has already executed this
//!    (benchmark, size, seed) its log is the answer, otherwise the
//!    workload is set up once on a reference device and iterated in
//!    replay mode — no kernel body runs — and that log is stored.
//! 2. **Per-device sweep.** For each catalog device,
//!    [`DeviceModel::predict`] converts each profile into a cost
//!    breakdown and [`PowerModel`] into energy; runtimes and energies
//!    sum over the iteration's launches.
//! 3. **Confidence.** The dominant (largest-working-set) profile is run
//!    through the memoized stack-distance engine for the device's cache
//!    shape. Confidence combines how decisively one roofline ceiling
//!    dominates with whether the analytic tier assignment agrees with
//!    the engine's observed steady-state miss ratios; the engine's
//!    memoization state is reported as [`ProfileProvenance`].
//!
//! Results are memoized in a `spec_hash`-keyed cache, so a warm query is
//! a hash lookup plus an `Arc` clone — the fleet's predictive placement
//! policy can afford to consult it on every dispatch decision.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eod_core::{
    model_only_run, JobSpec, Prediction, PredictionSet, ProfileProvenance, RecordedRun,
};
use eod_devsim::model::MemTier;
use eod_devsim::stackdist::{two_pass_counts_traced, CacheEngine, CountsSource, DEFAULT_TRACE_CAP};
use eod_devsim::{
    DeviceId, DeviceModel, HierarchyShape, HistogramCache, KernelProfile, PowerModel,
};
use eod_telemetry::{Counter, Histogram, Registry, LATENCY_BUCKETS};

pub use eod_core::recorded::REFERENCE_DEVICE;

/// Steady-state miss ratio below which a cache level is considered the
/// working set's home tier.
const TIER_MISS_THRESHOLD: f64 = 0.05;

/// Number of devices in the full catalog (paper fifteen + extensions) —
/// the expected length of every [`PredictionSet`]. Always derived from
/// [`DeviceId::all`], never hardcoded.
pub fn catalog_len() -> usize {
    DeviceId::all().count()
}

/// Why a prediction could not be made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The spec names a benchmark the registry does not know.
    UnknownBenchmark(String),
    /// The benchmark does not support the requested problem size.
    UnsupportedSize {
        /// Benchmark name.
        benchmark: String,
        /// The unsupported size label.
        size: String,
    },
    /// Workload setup or replay failed.
    Workload(String),
}

impl fmt::Display for PredictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictError::UnknownBenchmark(name) => write!(f, "unknown benchmark `{name}`"),
            PredictError::UnsupportedSize { benchmark, size } => {
                write!(f, "benchmark `{benchmark}` does not support size `{size}`")
            }
            PredictError::Workload(msg) => write!(f, "workload replay failed: {msg}"),
        }
    }
}

impl std::error::Error for PredictError {}

/// Telemetry for the prediction service, on its own [`Registry`] so it
/// can be appended to any `/metrics` surface.
pub struct PredictorMetrics {
    registry: Registry,
    /// Total prediction requests (cache hits + misses + errors).
    pub requests: Arc<Counter>,
    /// Requests answered from the spec-hash prediction cache.
    pub cache_hits: Arc<Counter>,
    /// Requests that had to run the model sweep.
    pub cache_misses: Arc<Counter>,
    /// Requests that failed (unknown benchmark, unsupported size, …).
    pub errors: Arc<Counter>,
    /// End-to-end prediction latency in seconds.
    pub latency: Arc<Histogram>,
}

impl PredictorMetrics {
    fn new() -> Self {
        let registry = Registry::new();
        let requests = registry.counter(
            "eod_predict_requests_total",
            "Prediction requests received by the predictor service",
        );
        let cache_hits = registry.counter(
            "eod_predict_cache_hits_total",
            "Prediction requests answered from the spec-hash prediction cache",
        );
        let cache_misses = registry.counter(
            "eod_predict_cache_misses_total",
            "Prediction requests that ran the full per-device model sweep",
        );
        let errors = registry.counter(
            "eod_predict_errors_total",
            "Prediction requests that failed (unknown benchmark, unsupported size)",
        );
        let latency = registry.histogram(
            "eod_predict_latency_seconds",
            "End-to-end prediction latency, cache hits included",
            &LATENCY_BUCKETS,
        );
        Self {
            registry,
            requests,
            cache_hits,
            cache_misses,
            errors,
            latency,
        }
    }

    /// Prometheus text exposition of the predictor series.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Default for PredictorMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// The online prediction service: replay-based profile extraction, a
/// full-catalog model sweep, and a `spec_hash`-keyed memo cache.
///
/// Cheap to share: wrap it in an `Arc` and hand clones to the serve
/// layer and the fleet's predictive placement policy.
pub struct Predictor {
    metrics: PredictorMetrics,
    cache: Mutex<HashMap<u64, Arc<PredictionSet>>>,
}

impl Predictor {
    /// A predictor with an empty cache and fresh metrics.
    pub fn new() -> Self {
        Self {
            metrics: PredictorMetrics::new(),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Predict runtime and energy on every catalog device for `spec`.
    ///
    /// Warm calls (same `spec_hash`) return a clone of the cached `Arc`,
    /// so repeated queries are bit-identical by construction.
    pub fn predict(&self, spec: &JobSpec) -> Result<Arc<PredictionSet>, PredictError> {
        let start = Instant::now();
        self.metrics.requests.inc();
        let key = spec.spec_hash();
        if let Some(hit) = self.cache.lock().unwrap().get(&key) {
            let hit = Arc::clone(hit);
            self.metrics.cache_hits.inc();
            self.metrics.latency.observe(start.elapsed().as_secs_f64());
            return Ok(hit);
        }
        self.metrics.cache_misses.inc();
        let set = match self.predict_uncached(spec) {
            Ok(set) => Arc::new(set),
            Err(err) => {
                self.metrics.errors.inc();
                self.metrics.latency.observe(start.elapsed().as_secs_f64());
                return Err(err);
            }
        };
        // Under a concurrent miss on the same key, keep whichever set won
        // the race so every caller sees the same allocation.
        let out = {
            let mut cache = self.cache.lock().unwrap();
            Arc::clone(cache.entry(key).or_insert_with(|| Arc::clone(&set)))
        };
        self.metrics.latency.observe(start.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Modeled runtime in seconds for the device the spec itself names,
    /// or `None` if the spec targets the native backend (which the
    /// catalog model cannot speak for) or prediction fails.
    pub fn runtime_s(&self, spec: &JobSpec) -> Option<f64> {
        if spec.is_native() {
            return None;
        }
        let set = self.predict(spec).ok()?;
        set.for_device(&spec.device)
            .map(|p| p.modeled_runtime_us / 1e6)
    }

    /// The predictor's telemetry.
    pub fn metrics(&self) -> &PredictorMetrics {
        &self.metrics
    }

    /// Prometheus text exposition of the `eod_predict_*` series.
    pub fn metrics_text(&self) -> String {
        self.metrics.render()
    }

    fn predict_uncached(&self, spec: &JobSpec) -> Result<PredictionSet, PredictError> {
        let run = recorded_run(spec)?;
        let dominant = run
            .profiles()
            .max_by_key(|p| p.working_set)
            .ok_or_else(|| {
                PredictError::Workload("iteration produced no kernel profiles".into())
            })?;

        let mut predictions: Vec<Prediction> = DeviceModel::all()
            .iter()
            .map(|model| {
                let dev = model.spec();
                let power = PowerModel::for_device(dev);
                let mut runtime_s = 0.0;
                let mut energy_j = 0.0;
                for profile in run.profiles() {
                    let cost = model.predict(profile);
                    runtime_s += cost.total_s;
                    energy_j += power.kernel_energy(&cost);
                }
                let (provenance, agreement) = cache_evidence(model, dominant);
                let dom = model.predict(dominant);
                let compute = dom.compute_s + dom.serial_s;
                let ceiling = compute.max(dom.memory_s);
                let decisiveness = if ceiling > 0.0 {
                    (compute - dom.memory_s).abs() / ceiling
                } else {
                    0.0
                };
                let confidence = ((0.5 + 0.5 * decisiveness) * agreement).clamp(0.05, 1.0);
                Prediction {
                    device: dev.name.to_string(),
                    class: dev.class.label().to_string(),
                    modeled_runtime_us: runtime_s * 1e6,
                    modeled_energy_j: energy_j,
                    edp_j_s: energy_j * runtime_s,
                    confidence,
                    cache_profile_provenance: provenance,
                }
            })
            .collect();

        predictions.sort_by(|a, b| {
            a.modeled_runtime_us
                .total_cmp(&b.modeled_runtime_us)
                .then_with(|| a.device.cmp(&b.device))
        });

        Ok(PredictionSet {
            spec_key: spec.spec_key(),
            benchmark: spec.benchmark.clone(),
            size: spec.size.label().to_string(),
            predictions,
        })
    }
}

impl Default for Predictor {
    fn default() -> Self {
        Self::new()
    }
}

/// The recorded run of the spec's workload: whichever group executed it
/// first left it in the log; otherwise it is recorded now on the
/// reference device, set up for real and iterated in replay mode so no
/// kernel body runs.
fn recorded_run(spec: &JobSpec) -> Result<Arc<RecordedRun>, PredictError> {
    let bench = eod_dwarfs::registry::benchmark_by_name(&spec.benchmark)
        .ok_or_else(|| PredictError::UnknownBenchmark(spec.benchmark.clone()))?;
    if !bench.supported_sizes().contains(&spec.size) {
        return Err(PredictError::UnsupportedSize {
            benchmark: spec.benchmark.clone(),
            size: spec.size.label().to_string(),
        });
    }
    model_only_run(bench.as_ref(), spec.size, spec.config.seed).map_err(PredictError::Workload)
}

/// Run the dominant profile through the memoized cache engine for this
/// device's hierarchy and report (provenance, tier agreement).
fn cache_evidence(model: &DeviceModel, profile: &KernelProfile) -> (ProfileProvenance, f64) {
    let shape = HierarchyShape::for_spec(model.spec());
    let (counts, source) = two_pass_counts_traced(
        CacheEngine::StackDistance,
        profile.pattern,
        profile.working_set,
        DEFAULT_TRACE_CAP,
        &shape,
        HistogramCache::global(),
    );
    let provenance = match source {
        CountsSource::Computed => ProfileProvenance::Computed,
        CountsSource::Memoized => ProfileProvenance::Memoized,
        CountsSource::Simulated => ProfileProvenance::Simulated,
    };

    let warm = counts.warm();
    let engine_tier = if warm.accesses == 0 {
        MemTier::L1
    } else {
        let accesses = warm.accesses as f64;
        if (warm.l1_misses as f64) / accesses < TIER_MISS_THRESHOLD {
            MemTier::L1
        } else if (warm.l2_misses as f64) / accesses < TIER_MISS_THRESHOLD {
            MemTier::L2
        } else if shape.l3.is_some() && (warm.l3_misses as f64) / accesses < TIER_MISS_THRESHOLD {
            MemTier::L3
        } else {
            MemTier::Dram
        }
    };
    let agreement = tier_agreement(model.mem_tier(profile.working_set), engine_tier);
    (provenance, agreement)
}

fn tier_rank(tier: MemTier) -> i32 {
    match tier {
        MemTier::L1 => 0,
        MemTier::L2 => 1,
        MemTier::L3 => 2,
        MemTier::Dram => 3,
    }
}

/// 1.0 when the analytic tier and the engine tier agree, 0.85 when they
/// are adjacent (a working set near a capacity boundary), 0.7 otherwise.
fn tier_agreement(model_tier: MemTier, engine_tier: MemTier) -> f64 {
    match (tier_rank(model_tier) - tier_rank(engine_tier)).abs() {
        0 => 1.0,
        1 => 0.85,
        _ => 0.7,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eod_core::{ExecConfig, ProblemSize};
    use std::time::Duration;

    fn spec(benchmark: &str, size: ProblemSize) -> JobSpec {
        JobSpec {
            benchmark: benchmark.into(),
            size,
            device: "GTX 1080".into(),
            config: ExecConfig {
                samples: 2,
                min_loop: Duration::from_micros(50),
                max_iters_per_sample: 2,
                verify: false,
                real_execution: false,
                energy_all_devices: false,
                seed: 42,
                timeout: None,
            },
        }
    }

    #[test]
    fn covers_every_catalog_device() {
        let p = Predictor::new();
        let set = p.predict(&spec("kmeans", ProblemSize::Tiny)).unwrap();
        // Width is derived from the catalog, never hardcoded: every device
        // in `DeviceId::all()` — paper fifteen and extensions alike — must
        // appear in the ranking exactly once.
        assert_eq!(set.predictions.len(), catalog_len());
        for id in DeviceId::all() {
            assert_eq!(
                set.predictions
                    .iter()
                    .filter(|pr| pr.device == id.spec().name)
                    .count(),
                1,
                "missing or duplicated {}",
                id.spec().name
            );
        }
        // Ranked ascending by runtime.
        for pair in set.predictions.windows(2) {
            assert!(pair[0].modeled_runtime_us <= pair[1].modeled_runtime_us);
        }
        // Everything is finite and positive.
        for pred in &set.predictions {
            assert!(pred.modeled_runtime_us > 0.0 && pred.modeled_runtime_us.is_finite());
            assert!(pred.modeled_energy_j > 0.0 && pred.modeled_energy_j.is_finite());
            assert!(pred.edp_j_s > 0.0);
            assert!((0.05..=1.0).contains(&pred.confidence));
        }
    }

    #[test]
    fn deterministic_across_calls_and_cache_boundary() {
        let s = spec("srad", ProblemSize::Small);
        // Two fresh predictors: each computes from scratch (cache miss).
        let cold_a = Predictor::new().predict(&s).unwrap();
        let cold_b = Predictor::new().predict(&s).unwrap();
        assert_eq!(*cold_a, *cold_b, "fresh computations must be bit-identical");

        // Same predictor twice: second call crosses the memo-cache
        // boundary and must still be bit-identical (it is the same Arc).
        let p = Predictor::new();
        let first = p.predict(&s).unwrap();
        let second = p.predict(&s).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*first, *cold_a);
    }

    #[test]
    fn cache_hit_and_miss_counters() {
        let p = Predictor::new();
        let s = spec("fft", ProblemSize::Tiny);
        p.predict(&s).unwrap();
        p.predict(&s).unwrap();
        p.predict(&s).unwrap();
        assert_eq!(p.metrics().requests.get(), 3.0);
        assert_eq!(p.metrics().cache_misses.get(), 1.0);
        assert_eq!(p.metrics().cache_hits.get(), 2.0);
        assert_eq!(p.metrics().errors.get(), 0.0);
        let text = p.metrics_text();
        assert!(text.contains("eod_predict_requests_total 3\n"), "{text}");
        assert!(text.contains("eod_predict_cache_hits_total 2\n"), "{text}");
        assert!(
            text.contains("eod_predict_cache_misses_total 1\n"),
            "{text}"
        );
    }

    #[test]
    fn metric_names_are_stable() {
        let p = Predictor::new();
        let text = p.metrics_text();
        for name in [
            "eod_predict_requests_total",
            "eod_predict_cache_hits_total",
            "eod_predict_cache_misses_total",
            "eod_predict_errors_total",
            "eod_predict_latency_seconds",
        ] {
            assert!(text.contains(&format!("# HELP {name} ")), "missing {name}");
            assert!(text.contains(&format!("# TYPE {name} ")), "missing {name}");
        }
    }

    #[test]
    fn dram_bound_large_sizes_rank_bandwidth_rich_devices_first() {
        // srad at large is a DRAM-resident stencil: bandwidth decides.
        let p = Predictor::new();
        let set = p.predict(&spec("srad", ProblemSize::Large)).unwrap();
        let top: Vec<&str> = set
            .predictions
            .iter()
            .take(4)
            .map(|pr| pr.device.as_str())
            .collect();
        // The four highest-bandwidth catalog devices (RTX 3090 936,
        // R9 Fury X 512, GTX 1080 Ti 484, Titan X 480 GB/s) should lead
        // the ranking.
        for name in ["RTX 3090", "R9 Fury X", "GTX 1080 Ti", "Titan X"] {
            assert!(
                top.contains(&name),
                "expected {name} in the top 3, got {top:?}"
            );
        }
        // And every CPU should rank behind every one of those GPUs.
        let fury_rank = set
            .predictions
            .iter()
            .position(|pr| pr.device == "R9 Fury X")
            .unwrap();
        for cpu in ["Xeon E5-2697 v2", "i7-6700K", "i5-3550"] {
            let rank = set
                .predictions
                .iter()
                .position(|pr| pr.device == cpu)
                .unwrap();
            assert!(rank > fury_rank, "{cpu} ranked above R9 Fury X");
        }
    }

    #[test]
    fn unknown_benchmark_is_an_error_and_counted() {
        let p = Predictor::new();
        let err = p
            .predict(&spec("no-such-dwarf", ProblemSize::Tiny))
            .unwrap_err();
        assert_eq!(err, PredictError::UnknownBenchmark("no-such-dwarf".into()));
        assert_eq!(p.metrics().errors.get(), 1.0);
    }

    #[test]
    fn native_specs_have_no_catalog_runtime() {
        let p = Predictor::new();
        let mut s = spec("kmeans", ProblemSize::Tiny);
        s.device = eod_core::spec::NATIVE_DEVICE.into();
        assert_eq!(p.runtime_s(&s), None);
        // A catalog device resolves to the ranked entry's runtime.
        let s = spec("kmeans", ProblemSize::Tiny);
        let set = p.predict(&s).unwrap();
        let expect = set.for_device("GTX 1080").unwrap().modeled_runtime_us / 1e6;
        assert_eq!(p.runtime_s(&s), Some(expect));
    }

    #[test]
    fn provenance_is_reported_by_the_engine_not_inferred_from_global_counters() {
        // csr medium's dominant profile gathers over ~8 MiB: large enough
        // for the analytic arm, so no row may read `simulated`.
        let mut s = spec("csr", ProblemSize::Medium);
        Predictor::new().predict(&s).unwrap();
        // The same workload asked about another device by two predictors
        // at once: whichever thread's lookups interleave, every answer
        // comes from the memo the first prediction filled.
        s.device = "i7-6700K".into();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let p = Predictor::new();
                    start.wait();
                    let set = p.predict(&s).unwrap();
                    assert_eq!(set.predictions.len(), catalog_len());
                    for pred in &set.predictions {
                        assert_eq!(
                            pred.cache_profile_provenance,
                            ProfileProvenance::Memoized,
                            "{}",
                            pred.device
                        );
                    }
                });
            }
        });
    }
}

//! The §4.3 measurement procedure.
//!
//! For one (benchmark, problem size, device) group the paper:
//!
//! 1. sets the application up and transfers inputs (timed as the *host
//!    setup* and *memory transfer* regions);
//! 2. executes the application in a loop until at least two seconds have
//!    elapsed and records the mean kernel execution time — that mean is
//!    **one sample**;
//! 3. repeats for 50 samples (the power-analysis sample size);
//! 4. collects PAPI counters with each timing, and RAPL/NVML energy on the
//!    two instrumented devices.
//!
//! [`Runner`] reproduces this. On simulated devices the loop floor is
//! interpreted in *modeled device time* (that is the clock being sampled),
//! and after the first iteration of a group has been executed for real and
//! verified against the serial reference, the remaining iterations run in
//! replay mode — identical modeled timing, no redundant recomputation.
//! That one real execution is also shared across devices: nothing a
//! simulated group executes depends on its device, so the first group to
//! run a (benchmark, size, seed) records what it asked of its queue, and
//! every later group with that key on any device is the record priced on
//! its own queue ([`eod_core::recorded`]) — same clock advances, same
//! noise draws, no workload constructed. The full figure set regenerates
//! in seconds. `RunnerConfig::paper()` keeps the paper's exact constants;
//! `RunnerConfig::quick()` scales the floor down for tests.

use eod_clrt::prelude::*;
use eod_core::benchmark::Benchmark;
use eod_core::recorded::Source;
use eod_core::sizes::ProblemSize;
use eod_core::spec::ExecConfig;
use eod_devsim::catalog::DeviceId;
use eod_scibench::counters::CounterValues;
use eod_scibench::energy::EnergySample;
use eod_scibench::power;
use eod_scibench::region::{Region, RegionLog, RegionSample};
use eod_scibench::stats::Summary;
use eod_scibench::BoxplotSummary;
use eod_telemetry::TraceSink;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a measurement group could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunnerError {
    /// The group exceeded its wall-clock budget ([`RunnerConfig::timeout`]).
    /// Checked cooperatively between iterations, so a group ends at an
    /// iteration boundary shortly after the limit passes.
    TimedOut {
        /// The configured budget that was exceeded.
        limit: Duration,
    },
    /// The first executed iteration disagreed with the serial reference; a
    /// wrong kernel invalidates the timing, so no result is produced.
    VerificationFailed(String),
    /// Setup, transfer, or execution infrastructure failed.
    Infra(String),
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::TimedOut { limit } => {
                write!(
                    f,
                    "timed out after exceeding {:.3}s budget",
                    limit.as_secs_f64()
                )
            }
            RunnerError::VerificationFailed(m) => write!(f, "verification failed: {m}"),
            RunnerError::Infra(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for RunnerError {}

impl From<RunnerError> for String {
    fn from(e: RunnerError) -> Self {
        e.to_string()
    }
}

/// Measurement configuration.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Samples per group (paper: 50, from the t-test power calculation).
    pub samples: usize,
    /// Loop floor per sample, in the *device clock* (paper: 2 s).
    pub min_loop: Duration,
    /// Cap on loop iterations per sample, so sub-microsecond kernels do not
    /// spin forever against a long floor.
    pub max_iters_per_sample: usize,
    /// Verify the first executed iteration against the serial reference.
    pub verify: bool,
    /// Execute the first iteration for real (required for verification).
    /// Setting this to `false` on a simulated device skips functional
    /// execution entirely and measures the model only — used for groups
    /// whose single real iteration is prohibitively slow on the host
    /// (gem's nucleosome/1KX5 molecules); their kernels are verified at the
    /// smaller scales of the same benchmark. Ignored on the native backend.
    pub real_execution: bool,
    /// Measure modeled energy on *every* simulated device, not only the two
    /// the paper instruments. Off by default (fidelity to §5.2); the
    /// scheduling extension turns it on.
    pub energy_all_devices: bool,
    /// Workload + noise seed.
    pub seed: u64,
    /// Wall-clock budget for one group; `None` (the default presets) means
    /// unbounded. Exceeding it aborts the group with
    /// [`RunnerError::TimedOut`].
    pub timeout: Option<Duration>,
}

impl RunnerConfig {
    /// The paper's exact constants (§4.3).
    pub fn paper() -> Self {
        Self {
            samples: power::paper::SAMPLES_PER_GROUP,
            min_loop: Duration::from_secs(2),
            max_iters_per_sample: 10_000,
            verify: true,
            real_execution: true,
            energy_all_devices: false,
            seed: 42,
            timeout: None,
        }
    }

    /// Scaled-down constants for figure regeneration in minutes instead of
    /// hours: same sample count, shorter loop floor. The *distribution* of
    /// sample means is what the figures show, and it is set by the noise
    /// model, not the floor.
    pub fn quick() -> Self {
        Self {
            min_loop: Duration::from_millis(5),
            max_iters_per_sample: 50,
            ..Self::paper()
        }
    }

    /// Minimal constants for unit/integration tests.
    pub fn smoke() -> Self {
        Self {
            samples: 5,
            min_loop: Duration::from_micros(50),
            max_iters_per_sample: 3,
            verify: true,
            real_execution: true,
            energy_all_devices: false,
            seed: 42,
            timeout: None,
        }
    }

    /// Build from the serializable [`ExecConfig`] a job spec carries.
    pub fn from_exec(exec: &ExecConfig) -> Self {
        Self {
            samples: exec.samples,
            min_loop: exec.min_loop,
            max_iters_per_sample: exec.max_iters_per_sample,
            verify: exec.verify,
            real_execution: exec.real_execution,
            energy_all_devices: exec.energy_all_devices,
            seed: exec.seed,
            timeout: exec.timeout,
        }
    }

    /// The serializable [`ExecConfig`] form of this configuration.
    pub fn to_exec(&self) -> ExecConfig {
        ExecConfig {
            samples: self.samples,
            min_loop: self.min_loop,
            max_iters_per_sample: self.max_iters_per_sample,
            verify: self.verify,
            real_execution: self.real_execution,
            energy_all_devices: self.energy_all_devices,
            seed: self.seed,
            timeout: self.timeout,
        }
    }
}

/// All measurements for one (benchmark, size, device) group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Problem size label.
    pub size: String,
    /// Device name.
    pub device: String,
    /// Accelerator class label (figure colour).
    pub class: String,
    /// Sample means of kernel time, in milliseconds (one per sample).
    pub kernel_ms: Vec<f64>,
    /// Host setup wall time, milliseconds — measured by the group that
    /// executed this workload (this one, or the one whose recorded run
    /// this group was priced from).
    pub setup_ms: f64,
    /// Input transfer time, milliseconds.
    pub transfer_ms: f64,
    /// Kernel launches per iteration.
    pub launches_per_iteration: usize,
    /// Summed PAPI-style counters from the verified iteration (simulated
    /// devices only).
    pub counters: Option<CounterValues>,
    /// Per-sample kernel energy in joules (instrumented devices only).
    pub energy_j: Option<Vec<f64>>,
    /// Device footprint reported by the workload, bytes.
    pub footprint_bytes: u64,
    /// Whether the first iteration's results passed verification.
    pub verified: bool,
    /// LibSciBench-style region journal (host setup, transfers, one kernel
    /// entry per sample) for `lsb.*` export.
    pub regions: RegionLog,
}

impl GroupResult {
    /// Summary statistics of the kernel-time samples.
    pub fn time_summary(&self) -> Summary {
        Summary::of(&self.kernel_ms).expect("groups always have samples")
    }

    /// Mean of the kernel-time samples in milliseconds, or `None` for an
    /// empty sample set — the "actual" the serving layer compares against
    /// predicted runtimes.
    pub fn mean_kernel_ms(&self) -> Option<f64> {
        if self.kernel_ms.is_empty() {
            return None;
        }
        Some(self.kernel_ms.iter().sum::<f64>() / self.kernel_ms.len() as f64)
    }

    /// Boxplot statistics of the kernel-time samples.
    pub fn boxplot(&self) -> BoxplotSummary {
        BoxplotSummary::of(&self.kernel_ms).expect("groups always have samples")
    }

    /// Summary of the energy samples, if measured.
    pub fn energy_summary(&self) -> Option<Summary> {
        self.energy_j.as_deref().and_then(Summary::of)
    }
}

/// Runs measurement groups.
pub struct Runner {
    config: RunnerConfig,
    /// Optional span sink: when attached, every group records host-phase
    /// spans (setup, first iteration, verification, one per sample) and
    /// the command queue records per-command device spans into it.
    trace: Option<Arc<TraceSink>>,
}

impl Runner {
    /// A runner with the given configuration.
    pub fn new(config: RunnerConfig) -> Self {
        Self {
            config,
            trace: None,
        }
    }

    /// Attach a span sink; groups run by this runner record their host
    /// phases and device commands into it.
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The attached span sink, if any.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.trace.as_ref()
    }

    /// The active configuration.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// Run one group: `benchmark` at `size` on `device`.
    ///
    /// Infrastructure failures, verification mismatches (a wrong kernel
    /// invalidates the timing) and wall-clock budget overruns each return
    /// their own [`RunnerError`] variant.
    ///
    /// The device's noise stream is reseeded from the group's identity
    /// (benchmark, size, device, seed) before any launch, so a group's
    /// samples are a pure function of those four values — independent of
    /// what ran on the device before. This is what lets the execution
    /// service cache results and still return exactly what a direct
    /// single-group run produces.
    ///
    /// On a simulated device the group executes only if no group in this
    /// process has executed the same (benchmark, size, seed) under the
    /// same backend and kernel path; otherwise it prices that group's
    /// recorded run on `device` — every modeled field is bit-identical to
    /// a live run's, `setup_ms` is the set-up time the recording measured,
    /// and a recording still in flight is waited for within this group's
    /// own [`RunnerConfig::timeout`]. The native device always executes.
    pub fn run_group(
        &self,
        benchmark: &dyn Benchmark,
        size: ProblemSize,
        device: Device,
    ) -> std::result::Result<GroupResult, RunnerError> {
        device.reseed_noise(group_noise_seed(
            self.config.seed,
            benchmark.name(),
            size.label(),
            device.name(),
        ));
        let deadline = self
            .config
            .timeout
            .map(|limit| (Instant::now() + limit, limit));
        let check_deadline = || match deadline {
            Some((at, limit)) if Instant::now() >= at => Err(RunnerError::TimedOut { limit }),
            _ => Ok(()),
        };
        let trace = self.trace.as_deref();
        // Declared before the phase guards so it drops (and records) last:
        // the group span encloses every phase span on the host track.
        let mut group_span = trace.map(|s| {
            let mut g = s.host_span(format!("group {} {}", benchmark.name(), size.label()));
            g.arg("device", device.name());
            g
        });
        // What the phases below iterate: the live workload, or — when some
        // group has already executed this (benchmark, size, seed) — its
        // recorded run, priced on this device's queue. A recording in
        // flight is waited for, within this group's own budget.
        let model_only = !self.config.real_execution && !device.is_native();
        let verify = self.config.verify && !model_only;
        let Some(mut source) = Source::acquire(
            benchmark,
            size,
            self.config.seed,
            verify,
            &device,
            deadline.map(|(at, _)| at),
        ) else {
            let (_, limit) = deadline.expect("only a passed deadline ends the wait");
            return Err(RunnerError::TimedOut { limit });
        };
        if let Some(g) = group_span.as_mut() {
            g.arg("log", source.origin());
        }
        let ctx = source.context(device.clone());
        let queue = CommandQueue::new(&ctx).with_profiling();
        if let Some(sink) = &self.trace {
            queue.set_trace(Some(Arc::clone(sink)));
        }
        let footprint_bytes = source.footprint_bytes();

        // Host setup + transfers.
        let mut regions = RegionLog::new();
        let setup_events = {
            let mut g = trace.map(|s| s.host_span("setup"));
            let ev = source
                .setup(&queue)
                .map_err(|e| RunnerError::Infra(e.to_string()))?;
            if let Some(g) = g.as_mut() {
                g.arg("transfers", ev.len());
            }
            ev
        };
        check_deadline()?;
        // One reading serves both reports; on a priced group it is the
        // time set-up took when it was recorded.
        let host_setup = source.host_setup();
        let setup_ms = host_setup.as_secs_f64() * 1e3;
        let transfer_ms: f64 = setup_events.iter().map(|e| e.millis()).sum();
        regions.record(Region::HostSetup, host_setup);
        for e in &setup_events {
            regions.record(Region::MemoryTransfer, e.duration());
        }

        // First iteration: executed for real (unless this group is marked
        // model-only on a simulated device); optionally verified.
        if model_only {
            queue.set_replay(true);
        }
        let first = {
            let _g = trace.map(|s| s.host_span("first_iteration"));
            source
                .run_iteration(&queue)
                .map_err(|e| RunnerError::Infra(e.to_string()))?
        };
        check_deadline()?;
        let launches_per_iteration = first.kernel_launches();
        let mut counters_acc = CounterValues::new();
        let mut have_counters = false;
        for e in &first.events {
            if let Some(c) = &e.counters {
                counters_acc.accumulate(c);
                have_counters = true;
            }
        }
        if verify {
            let _g = trace.map(|s| s.host_span("verify"));
            source.verify(&queue).map_err(|e| {
                RunnerError::VerificationFailed(format!(
                    "{} {} on {}: {e}",
                    benchmark.name(),
                    size.label(),
                    device.name()
                ))
            })?;
        }

        // Timing loop in replay mode (no-op on the native backend).
        queue.set_replay(true);
        let power_model = match device.timing() {
            Timing::Modeled(sim)
                if self.config.energy_all_devices
                    || device
                        .sim_id()
                        .is_some_and(|id| id.spec().energy_instrumented()) =>
            {
                Some(sim.power)
            }
            _ => None,
        };
        let mut kernel_ms = Vec::with_capacity(self.config.samples);
        let mut energy_samples: Vec<f64> = Vec::new();
        for sample_idx in 0..self.config.samples {
            let mut sample_span = trace.map(|s| s.host_span(format!("sample {sample_idx}")));
            let mut iters = 0usize;
            let mut total_kernel = Duration::ZERO;
            let mut total_energy = 0.0f64;
            let loop_start_device = queue.clock_seconds();
            let loop_start_wall = Instant::now();
            loop {
                check_deadline()?;
                let out = source
                    .run_iteration(&queue)
                    .map_err(|e| RunnerError::Infra(e.to_string()))?;
                iters += 1;
                total_kernel += out.kernel_time();
                if let Some(pm) = &power_model {
                    total_energy += out
                        .events
                        .iter()
                        .filter_map(|e| e.cost.as_ref())
                        .map(|c| pm.kernel_energy(c))
                        .sum::<f64>();
                }
                // Loop floor on the clock being *measured*: the simulated
                // device clock for simulated devices, wall time natively.
                let elapsed = if device.is_native() {
                    loop_start_wall.elapsed()
                } else {
                    Duration::from_secs_f64(queue.clock_seconds() - loop_start_device)
                };
                if elapsed >= self.config.min_loop || iters >= self.config.max_iters_per_sample {
                    break;
                }
            }
            let mean_kernel = Duration::from_secs_f64(total_kernel.as_secs_f64() / iters as f64);
            if let Some(g) = sample_span.as_mut() {
                g.arg("iters", iters);
                g.arg("mean_kernel_ms", mean_kernel.as_secs_f64() * 1e3);
            }
            kernel_ms.push(mean_kernel.as_secs_f64() * 1e3);
            let energy = power_model.is_some().then(|| {
                let joules = total_energy / iters as f64;
                energy_samples.push(joules);
                EnergySample {
                    joules,
                    duration: mean_kernel,
                }
            });
            regions.record_sample(
                Region::Kernel,
                RegionSample {
                    duration: mean_kernel,
                    counters: None,
                    energy,
                },
            );
        }
        queue.set_replay(false);
        if let Some(g) = group_span.as_mut() {
            g.arg("samples", kernel_ms.len());
        }

        let class = device
            .sim_id()
            .map(|id| id.spec().class.label().to_string())
            .unwrap_or_else(|| "CPU".to_string());
        Ok(GroupResult {
            benchmark: benchmark.name().to_string(),
            size: size.label().to_string(),
            device: device.name().to_string(),
            class,
            kernel_ms,
            setup_ms,
            transfer_ms,
            launches_per_iteration,
            counters: have_counters.then_some(counters_acc),
            energy_j: power_model.is_some().then_some(energy_samples),
            footprint_bytes,
            verified: verify,
            regions,
        })
    }

    /// Run one benchmark × size over a device list, in figure order.
    pub fn run_across_devices(
        &self,
        benchmark: &dyn Benchmark,
        size: ProblemSize,
        devices: &[Device],
    ) -> std::result::Result<Vec<GroupResult>, RunnerError> {
        devices
            .iter()
            .map(|d| self.run_group(benchmark, size, d.clone()))
            .collect()
    }

    /// The fifteen simulated Table 1 devices, seeded per run.
    ///
    /// Deliberately the paper subset, not the whole catalog: figure
    /// regeneration iterates this list, and the committed CSVs must stay
    /// byte-identical as post-paper devices join [`DeviceId::all`].
    pub fn simulated_devices(&self) -> Vec<Device> {
        DeviceId::paper()
            .map(|id| Device::simulated_seeded(id, self.config.seed ^ (id.0 as u64) << 8))
            .collect()
    }
}

/// Noise seed for one measurement group, derived (FNV-1a) from the run
/// seed and the group's identity so every group gets its own reproducible
/// stream no matter which device handle runs it or in what order.
fn group_noise_seed(seed: u64, benchmark: &str, size: &str, device: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&seed.to_le_bytes());
    eat(benchmark.as_bytes());
    eat(&[0xff]);
    eat(size.as_bytes());
    eat(&[0xff]);
    eat(device.as_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use eod_dwarfs::registry;

    #[test]
    fn smoke_group_on_simulated_gpu() {
        let runner = Runner::new(RunnerConfig::smoke());
        let bench = registry::benchmark_by_name("crc").unwrap();
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let g = runner
            .run_group(bench.as_ref(), ProblemSize::Tiny, gtx)
            .unwrap();
        assert_eq!(g.kernel_ms.len(), 5);
        assert!(g.kernel_ms.iter().all(|&t| t > 0.0));
        assert!(g.verified);
        assert!(g.counters.is_some(), "simulated devices synthesize PAPI");
        assert!(g.energy_j.is_some(), "GTX 1080 is NVML-instrumented (§5.2)");
        assert_eq!(g.launches_per_iteration, 1);
        assert_eq!(g.class, "Consumer GPU");
    }

    #[test]
    fn energy_only_on_instrumented_devices() {
        let runner = Runner::new(RunnerConfig::smoke());
        let bench = registry::benchmark_by_name("srad").unwrap();
        let sim = Platform::simulated();
        let gtx = runner
            .run_group(
                bench.as_ref(),
                ProblemSize::Tiny,
                sim.device_by_name("GTX 1080").unwrap(),
            )
            .unwrap();
        assert!(gtx.energy_j.is_some());
        assert!(gtx.energy_j.as_ref().unwrap().iter().all(|&e| e > 0.0));
        let k20 = runner
            .run_group(
                bench.as_ref(),
                ProblemSize::Tiny,
                sim.device_by_name("K20m").unwrap(),
            )
            .unwrap();
        assert!(k20.energy_j.is_none());
    }

    #[test]
    fn native_group_runs_real_kernels() {
        let runner = Runner::new(RunnerConfig::smoke());
        let bench = registry::benchmark_by_name("kmeans").unwrap();
        let g = runner
            .run_group(bench.as_ref(), ProblemSize::Tiny, Device::native())
            .unwrap();
        assert!(g.verified);
        assert!(g.counters.is_none(), "no PAPI synthesis on native");
        assert!(g.time_summary().mean > 0.0);
    }

    #[test]
    fn tiny_timeout_produces_typed_error() {
        let mut cfg = RunnerConfig::smoke();
        // A nanosecond budget trips on the first cooperative check.
        cfg.timeout = Some(Duration::from_nanos(1));
        let runner = Runner::new(cfg);
        let bench = registry::benchmark_by_name("crc").unwrap();
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let err = runner
            .run_group(bench.as_ref(), ProblemSize::Tiny, gtx)
            .unwrap_err();
        assert_eq!(
            err,
            RunnerError::TimedOut {
                limit: Duration::from_nanos(1)
            }
        );
        assert!(err.to_string().contains("timed out"));
    }

    #[test]
    fn group_results_are_order_independent() {
        // Running other groups first on the same device handles must not
        // change a group's samples (the noise stream reseeds per group).
        let runner = Runner::new(RunnerConfig::smoke());
        let crc = registry::benchmark_by_name("crc").unwrap();
        let fft = registry::benchmark_by_name("fft").unwrap();
        let device = Platform::simulated().device_by_name("K40m").unwrap();
        let direct = runner
            .run_group(crc.as_ref(), ProblemSize::Tiny, device.clone())
            .unwrap();
        let _warmup = runner
            .run_group(fft.as_ref(), ProblemSize::Tiny, device.clone())
            .unwrap();
        let after = runner
            .run_group(crc.as_ref(), ProblemSize::Tiny, device)
            .unwrap();
        assert_eq!(direct.kernel_ms, after.kernel_ms);
    }

    #[test]
    fn traced_group_records_host_and_device_spans() {
        use eod_telemetry::Track;
        let sink = Arc::new(TraceSink::new());
        let runner = Runner::new(RunnerConfig::smoke()).with_trace(Arc::clone(&sink));
        let bench = registry::benchmark_by_name("crc").unwrap();
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        runner
            .run_group(bench.as_ref(), ProblemSize::Tiny, gtx)
            .unwrap();
        let spans = sink.drain();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"setup"));
        assert!(names.contains(&"first_iteration"));
        assert!(names.contains(&"verify"));
        assert!(names.iter().any(|n| n.starts_with("sample ")));
        // Device commands recorded onto the device track via the queue.
        assert!(spans
            .iter()
            .any(|s| s.track == Track::Device && s.category == "kernel"));
        // The group span encloses its phases on the host clock.
        let group = spans.iter().find(|s| s.name == "group crc tiny").unwrap();
        let setup = spans.iter().find(|s| s.name == "setup").unwrap();
        assert!(group.start_us <= setup.start_us);
        assert!(group.end_us() >= setup.end_us());
        assert!(group
            .args
            .iter()
            .any(|(k, _)| k == "samples" || k == "device"));
    }

    #[test]
    fn exec_config_round_trips() {
        let cfg = RunnerConfig::quick();
        let back = RunnerConfig::from_exec(&cfg.to_exec());
        assert_eq!(back.samples, cfg.samples);
        assert_eq!(back.min_loop, cfg.min_loop);
        assert_eq!(back.max_iters_per_sample, cfg.max_iters_per_sample);
        assert_eq!(back.verify, cfg.verify);
        assert_eq!(back.real_execution, cfg.real_execution);
        assert_eq!(back.energy_all_devices, cfg.energy_all_devices);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.timeout, cfg.timeout);
    }

    #[test]
    fn summaries_and_boxplots_derive() {
        let runner = Runner::new(RunnerConfig::smoke());
        let bench = registry::benchmark_by_name("fft").unwrap();
        let i7 = Platform::simulated().device_by_name("i7-6700K").unwrap();
        let g = runner
            .run_group(bench.as_ref(), ProblemSize::Tiny, i7)
            .unwrap();
        let s = g.time_summary();
        assert!(s.min <= s.median && s.median <= s.max);
        let b = g.boxplot();
        assert!(b.q1 <= b.median && b.median <= b.q3);
    }
}

//! `eod bench-engine` — dispatch-rate and transfer-rate microbenchmarks.
//!
//! The paper's methodology (via LibSciBench) is to keep harness overhead
//! out of benchmark timings; HPCC-FPGA (arXiv:2004.11059) makes the same
//! point for host-side dispatch overhead in OpenCL comparisons. This module
//! measures the native backend's own overhead so the engine's performance
//! trajectory is recorded in-repo (`BENCH_engine.json`) and regressions are
//! caught by CI:
//!
//! * **small-kernel dispatch rate** — launches/s for a 256-item and a
//!   4096-item saxpy and a 64×64 gemm tile, the regime where fork-join and
//!   per-item index arithmetic dominate;
//! * **large-kernel throughput** — launches/s for a 1 Mi-item saxpy, the
//!   regime where the Rayon path must win;
//! * **transfer bandwidth** — `enqueue_write_buffer`/`enqueue_read_buffer`
//!   of a 4 MiB buffer, in MiB/s.

use eod_clrt::prelude::*;
use serde::{Deserialize, Serialize};
// The prelude's one-parameter `Result` is for runtime errors; restore the
// two-parameter form for this module's string-error API.
use std::result::Result;
use std::time::{Duration, Instant};

/// One measured metric. Higher is always better (rates).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineMetric {
    /// Metric name, stable across versions (the baseline join key).
    pub name: String,
    /// Unit of `value`: `launches_per_s` or `mib_per_s`.
    pub unit: String,
    /// The measured rate.
    pub value: f64,
    /// Iterations executed inside the timing window.
    pub iterations: u64,
    /// Wall time of the timing window in seconds.
    pub elapsed_s: f64,
}

/// A full `bench-engine` run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineReport {
    /// `available_parallelism` of the measuring host: rates from hosts
    /// with different core counts are not comparable.
    pub host_parallelism: usize,
    /// All metrics, in execution order.
    pub metrics: Vec<EngineMetric>,
}

impl EngineReport {
    /// Metric by name.
    pub fn metric(&self, name: &str) -> Option<&EngineMetric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Run `f` repeatedly for at least `budget`, after a short warm-up.
/// Returns (iterations, elapsed seconds).
fn measure(budget: Duration, mut f: impl FnMut()) -> (u64, f64) {
    for _ in 0..3 {
        f();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        // Check the clock in batches so Instant::now() stays off the
        // measured path for fast bodies.
        if iters.is_multiple_of(16) && start.elapsed() >= budget {
            break;
        }
    }
    (iters, start.elapsed().as_secs_f64())
}

fn rate_metric(
    name: &str,
    unit: &str,
    scale: f64,
    budget: Duration,
    f: impl FnMut(),
) -> EngineMetric {
    let (iterations, elapsed_s) = measure(budget, f);
    EngineMetric {
        name: name.to_string(),
        unit: unit.to_string(),
        value: iterations as f64 * scale / elapsed_s,
        iterations,
        elapsed_s,
    }
}

/// Saxpy written the way the dwarfs now use the runtime: one group stages
/// its window with `read_slice`, computes over plain floats (vectorizable),
/// and commits with `write_slice`.
struct SaxpyKernel {
    x: BufView<f32>,
    y: BufView<f32>,
    profile: eod_devsim::profile::KernelProfile,
}

impl Kernel for SaxpyKernel {
    fn name(&self) -> &str {
        "saxpy"
    }

    fn profile(&self) -> eod_devsim::profile::KernelProfile {
        self.profile.clone()
    }

    fn run_group(&self, group: &WorkGroup) {
        // Stage into fixed stack arrays — a heap allocation per group would
        // dwarf the kernel at these sizes. 256 = the largest local size the
        // suite launches.
        let base = group.group_id[0] * group.range.local[0];
        let count = group.range.local[0];
        let mut xs = [0.0f32; 256];
        let mut ys = [0.0f32; 256];
        let (xs, ys) = (&mut xs[..count], &mut ys[..count]);
        // SAFETY: `x` is a launch input no work-item writes, and each
        // group exclusively owns `y[base..base + count]`; the in-order
        // queue serializes transfers against kernel execution.
        unsafe {
            self.x.read_slice(base, xs);
            self.y.read_slice(base, ys);
        }
        for (y, &x) in ys.iter_mut().zip(xs.iter()) {
            *y += 2.0 * x;
        }
        // SAFETY: the group's exclusive span, as above.
        unsafe { self.y.write_slice(base, ys) };
    }
}

fn saxpy_launch_metric(name: &str, n: usize, local: usize, budget: Duration) -> EngineMetric {
    let ctx = Context::new(Device::native());
    let queue = CommandQueue::new(&ctx);
    let x = ctx.create_buffer_from(&vec![3.0f32; n]).expect("alloc x");
    let y = ctx.create_buffer_from(&vec![1.0f32; n]).expect("alloc y");
    let mut profile = eod_devsim::profile::KernelProfile::new("saxpy");
    profile.work_items = n as u64;
    profile.flops = 2.0 * n as f64;
    profile.bytes_read = 8.0 * n as f64;
    profile.bytes_written = 4.0 * n as f64;
    profile.working_set = 12 * n as u64;
    let k = SaxpyKernel {
        x: x.view(),
        y: y.view(),
        profile,
    };
    let range = NdRange::d1(n, local);
    rate_metric(name, "launches_per_s", 1.0, budget, || {
        queue.enqueue_kernel(&k, &range).expect("launch");
    })
}

/// A 64×64 matmul accumulation over a 16-deep K slab, local 16×16 — the
/// gemm-style small 2D launch shape (lud::internal, nw blocks), written
/// with per-group tile staging like the dwarf kernels.
struct GemmTileKernel {
    a: BufView<f32>,
    b: BufView<f32>,
    c: BufView<f32>,
    profile: eod_devsim::profile::KernelProfile,
}

const GEMM_N: usize = 64;
const GEMM_T: usize = 16;

impl Kernel for GemmTileKernel {
    fn name(&self) -> &str {
        "gemm_tile"
    }

    fn profile(&self) -> eod_devsim::profile::KernelProfile {
        self.profile.clone()
    }

    fn run_group(&self, group: &WorkGroup) {
        let row0 = group.group_id[1] * group.range.local[1];
        let col0 = group.group_id[0] * group.range.local[0];
        let mut at = [[0.0f32; GEMM_T]; GEMM_T]; // a[row0+r][0..16]
        let mut bt = [[0.0f32; GEMM_T]; GEMM_T]; // b[k][col0..col0+16]
        let mut ct = [[0.0f32; GEMM_T]; GEMM_T];
        // SAFETY: `a` and `b` are launch inputs no work-item writes, and
        // each group exclusively owns its 16×16 C tile (groups partition
        // C by row/column block); transfers are serialized by the
        // in-order queue.
        for r in 0..GEMM_T {
            unsafe {
                self.a.read_slice((row0 + r) * GEMM_N, &mut at[r]);
                self.b.read_slice(r * GEMM_N + col0, &mut bt[r]);
                self.c.read_slice((row0 + r) * GEMM_N + col0, &mut ct[r]);
            }
        }
        for r in 0..GEMM_T {
            for (kk, bk) in bt.iter().enumerate() {
                let av = at[r][kk];
                for (cv, &bv) in ct[r].iter_mut().zip(bk) {
                    *cv += av * bv;
                }
            }
        }
        for (r, cr) in ct.iter().enumerate() {
            // SAFETY: the group's exclusive C tile, as above.
            unsafe { self.c.write_slice((row0 + r) * GEMM_N + col0, cr) };
        }
    }
}

fn gemm_tile_metric(budget: Duration) -> EngineMetric {
    let ctx = Context::new(Device::native());
    let queue = CommandQueue::new(&ctx);
    let a = ctx
        .create_buffer_from(&vec![0.5f32; GEMM_N * GEMM_N])
        .expect("a");
    let b = ctx
        .create_buffer_from(&vec![0.25f32; GEMM_N * GEMM_N])
        .expect("b");
    let c = ctx
        .create_buffer_from(&vec![0.0f32; GEMM_N * GEMM_N])
        .expect("c");
    let mut profile = eod_devsim::profile::KernelProfile::new("gemm_tile");
    profile.work_items = (GEMM_N * GEMM_N) as u64;
    profile.flops = (GEMM_N * GEMM_N * GEMM_T * 2) as f64;
    profile.bytes_read = (GEMM_N * GEMM_N * 3 * 4) as f64;
    profile.bytes_written = (GEMM_N * GEMM_N * 4) as f64;
    profile.working_set = (GEMM_N * GEMM_N * 3 * 4) as u64;
    let k = GemmTileKernel {
        a: a.view(),
        b: b.view(),
        c: c.view(),
        profile,
    };
    let range = NdRange::d2(GEMM_N, GEMM_N, GEMM_T, GEMM_T);
    rate_metric("gemm_tile_64x64", "launches_per_s", 1.0, budget, || {
        queue.enqueue_kernel(&k, &range).expect("launch");
    })
}

/// Host↔buffer bandwidth for one transfer size. 4 MiB (the acceptance size)
/// is DRAM-bound on most hosts, so the fast path's gain there is capped by
/// memory bandwidth; the 256 KiB variant stays cache-resident and shows the
/// instruction-path speedup directly.
fn transfer_metrics(label: &str, n: usize, budget: Duration) -> (EngineMetric, EngineMetric) {
    let mib = (n * 4) as f64 / (1024.0 * 1024.0);
    let ctx = Context::new(Device::native());
    let queue = CommandQueue::new(&ctx);
    let buf = ctx.create_buffer::<f32>(n).expect("alloc");
    let data = vec![1.0f32; n];
    let write = rate_metric(&format!("write_{label}"), "mib_per_s", mib, budget, || {
        queue.enqueue_write_buffer(&buf, &data).expect("write");
    });
    let mut out = vec![0.0f32; n];
    let read = rate_metric(&format!("read_{label}"), "mib_per_s", mib, budget, || {
        queue.enqueue_read_buffer(&buf, &mut out).expect("read");
    });
    (write, read)
}

/// Like [`measure`] but checks the clock after every iteration — for
/// bodies that take milliseconds, where a batch of 16 would blow far
/// past the budget.
fn measure_every(budget: Duration, mut f: impl FnMut()) -> (u64, f64) {
    f(); // one warm-up (first-touch allocations)
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    (iters, start.elapsed().as_secs_f64())
}

/// Full-catalog cache sweep rate for an 8 MiB workload of the given
/// access pattern — the §4.4-style multi-device evaluation that dominates
/// `verify-cache` and figure cache analysis. `Streaming` has a 3-entry
/// reuse histogram, `Gather` a ≈ 90 k-entry one: the irregular case is
/// where a per-device derivation is expensive.
///
/// Both engines run the same serial per-device loop, so the ratio
/// isolates the algorithm: the exact path re-simulates the two-pass
/// trace per device, the stack-distance path analyzes the trace once and
/// derives each device's counts from the histogram. `fresh` empties the
/// memo cache every sweep (the honest cold-sweep cost, analysis
/// included); without it the memoized steady state — one lookup per
/// device — is measured.
fn cachesim_sweep_metric(
    name: &str,
    engine: eod_devsim::stackdist::CacheEngine,
    pattern: eod_devsim::profile::AccessPattern,
    fresh: bool,
    budget: Duration,
) -> EngineMetric {
    use eod_devsim::catalog::CATALOG;
    use eod_devsim::stackdist::{
        two_pass_counts, HierarchyShape, HistogramCache, DEFAULT_TRACE_CAP,
    };
    let shapes: Vec<HierarchyShape> = CATALOG.iter().map(HierarchyShape::for_spec).collect();
    let ws = 8u64 << 20;
    let cache = HistogramCache::new();
    let (iterations, elapsed_s) = measure_every(budget, || {
        if fresh {
            cache.clear();
        }
        for shape in &shapes {
            let counts = two_pass_counts(engine, pattern, ws, DEFAULT_TRACE_CAP, shape, &cache);
            std::hint::black_box(counts.total.accesses);
        }
    });
    EngineMetric {
        name: name.to_string(),
        unit: "sweeps_per_s".to_string(),
        value: iterations as f64 / elapsed_s,
        iterations,
        elapsed_s,
    }
}

/// Warm-path prediction rate: one cold `predict` fills the memoized
/// profile and prediction caches, then the measured loop prices what a
/// scheduler pays per placement query — a full-catalog ranked
/// `PredictionSet` served from the spec-hash cache.
fn predict_warm_metric(budget: Duration) -> EngineMetric {
    use eod_core::sizes::ProblemSize;
    use eod_core::spec::{ExecConfig, JobSpec};
    let spec = JobSpec {
        benchmark: "srad".into(),
        size: ProblemSize::Small,
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
    };
    let predictor = eod_predict::Predictor::new();
    predictor.predict(&spec).expect("cold predict");
    let (iterations, elapsed_s) = measure(budget, || {
        std::hint::black_box(predictor.predict(&spec).expect("warm predict"));
    });
    EngineMetric {
        name: "predict_warm".to_string(),
        unit: "predictions_per_s".to_string(),
        value: iterations as f64 / elapsed_s,
        iterations,
        elapsed_s,
    }
}

/// Steady-state item throughput for one ported workload through its
/// per-item body (`scalar`, on the reference queue) or the queue's default
/// dispatch (`vectorized`). `items_per_iter` is the number of work-items
/// one `run_iteration` processes; amortizing repeats inside a launch are
/// not counted — both paths repeat identically, and the scalar/vectorized
/// ratio is the point of these rows.
fn workload_items_metric(
    name: &str,
    scalar: bool,
    items_per_iter: f64,
    mut workload: Box<dyn eod_core::benchmark::Workload>,
    budget: Duration,
) -> EngineMetric {
    let ctx = Context::new(Device::native());
    let queue = if scalar {
        CommandQueue::per_item_reference(&ctx)
    } else {
        CommandQueue::new(&ctx)
    };
    workload.setup(&ctx, &queue).expect("setup");
    let (iterations, elapsed_s) = measure_every(budget, || {
        workload.run_iteration(&queue).expect("iteration");
    });
    EngineMetric {
        name: name.to_string(),
        unit: "items_per_s".to_string(),
        value: iterations as f64 * items_per_iter / elapsed_s,
        iterations,
        elapsed_s,
    }
}

/// Per-dwarf scalar-vs-vectorized item throughput for every kernel family
/// ported to `KernelBody::Vectorized`: kmeans (small), srad (medium),
/// gem (2D3V), and the synth STREAM/roofline probes at 4 MiB.
fn kernel_path_metrics(budget: Duration) -> Vec<EngineMetric> {
    use eod_core::sizes::ProblemSize;
    use eod_dwarfs::{gem, kmeans, srad};
    use eod_synth::{roofline::RooflineWorkload, stream::StreamWorkload, SynthFamily, SynthSpec};
    let mut out = Vec::new();
    for (scalar, suffix) in [(true, "scalar"), (false, "vectorized")] {
        let kp = kmeans::KmeansParams::for_size(ProblemSize::Small);
        out.push(workload_items_metric(
            &format!("items_kmeans_{suffix}"),
            scalar,
            kp.points as f64,
            Box::new(kmeans::KmeansWorkload::new(kp, 5)),
            budget,
        ));
        let sp = srad::SradParams::for_size(ProblemSize::Medium);
        out.push(workload_items_metric(
            &format!("items_srad_{suffix}"),
            scalar,
            (sp.cells() * 2) as f64, // two kernels per iteration
            Box::new(srad::SradWorkload::new(sp, 5)),
            budget,
        ));
        let (_, nv) = gem::split_for_footprint(252 * 1024); // 2D3V
        out.push(workload_items_metric(
            &format!("items_gem_{suffix}"),
            scalar,
            nv as f64,
            Box::new(gem::GemWorkload::new("2D3V", 252.0, 5)),
            budget,
        ));
        let sw = StreamWorkload::new(SynthSpec::new(SynthFamily::Stream, 4 << 20), 5);
        let stream_items = (sw.elems() * 4) as f64; // copy+scale+add+triad
        out.push(workload_items_metric(
            &format!("items_stream_{suffix}"),
            scalar,
            stream_items,
            Box::new(sw),
            budget,
        ));
        let rspec = SynthSpec {
            flops_per_elem: 16,
            ..SynthSpec::new(SynthFamily::Roofline, 4 << 20)
        };
        let rw = RooflineWorkload::new(rspec, 5);
        let roofline_items = rw.elems() as f64;
        out.push(workload_items_metric(
            &format!("items_roofline_{suffix}"),
            scalar,
            roofline_items,
            Box::new(rw),
            budget,
        ));
    }
    out
}

/// Run the full suite. `full` lengthens the per-metric timing window from
/// 150 ms to 1 s for lower-variance numbers.
pub fn run(full: bool) -> EngineReport {
    let budget = if full {
        Duration::from_secs(1)
    } else {
        Duration::from_millis(150)
    };
    let mut metrics = vec![
        saxpy_launch_metric("saxpy_256", 256, 64, budget),
        saxpy_launch_metric("saxpy_4096", 4096, 64, budget),
        gemm_tile_metric(budget),
        saxpy_launch_metric("saxpy_1m", 1 << 20, 256, budget),
    ];
    for (label, n) in [("4mib", 1 << 20), ("256kib", 1 << 16)] {
        let (w, r) = transfer_metrics(label, n, budget);
        metrics.push(w);
        metrics.push(r);
    }
    use eod_devsim::profile::AccessPattern::{Gather, Streaming};
    use eod_devsim::stackdist::CacheEngine::{Exact, StackDistance};
    for (name, engine, pattern, fresh) in [
        ("cachesim_sweep_exact_8mib", Exact, Streaming, true),
        (
            "cachesim_sweep_stackdist_8mib",
            StackDistance,
            Streaming,
            true,
        ),
        (
            "cachesim_sweep_stackdist_memoized_8mib",
            StackDistance,
            Streaming,
            false,
        ),
        (
            "cachesim_sweep_stackdist_gather_8mib",
            StackDistance,
            Gather,
            true,
        ),
        (
            "cachesim_sweep_stackdist_memoized_gather_8mib",
            StackDistance,
            Gather,
            false,
        ),
    ] {
        metrics.push(cachesim_sweep_metric(name, engine, pattern, fresh, budget));
    }
    metrics.push(predict_warm_metric(budget));
    metrics.extend(kernel_path_metrics(budget));
    EngineReport {
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        metrics,
    }
}

/// Render a markdown table of the report.
pub fn render(report: &EngineReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("| metric | rate | unit | n | window |\n|---|---:|---|---:|---:|\n");
    for m in &report.metrics {
        let _ = writeln!(
            out,
            "| {} | {:.0} | {} | {} | {:.2} s |",
            m.name, m.value, m.unit, m.iterations, m.elapsed_s
        );
    }
    out
}

/// Compare a fresh report against a checked-in baseline: any shared metric
/// whose rate fell below `1/allowed_slowdown` of the baseline is a failure.
/// Unknown/new metrics are ignored so the baseline can trail the code.
pub fn check_regression(
    new: &EngineReport,
    baseline: &EngineReport,
    allowed_slowdown: f64,
) -> Result<(), String> {
    let mut failures = Vec::new();
    for old in &baseline.metrics {
        let Some(cur) = new.metric(&old.name) else {
            continue;
        };
        if cur.value * allowed_slowdown < old.value {
            failures.push(format!(
                "{}: {:.0} {} vs baseline {:.0} (>{}x regression)",
                old.name, cur.value, cur.unit, old.value, allowed_slowdown
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &str, value: f64) -> EngineMetric {
        EngineMetric {
            name: name.into(),
            unit: "launches_per_s".into(),
            value,
            iterations: 1,
            elapsed_s: 1.0,
        }
    }

    fn report(metrics: Vec<EngineMetric>) -> EngineReport {
        EngineReport {
            host_parallelism: 1,
            metrics,
        }
    }

    #[test]
    fn regression_check_trips_only_past_threshold() {
        let baseline = report(vec![
            fake("a", 1000.0),
            fake("b", 1000.0),
            fake("gone", 5.0),
        ]);
        let ok = report(vec![fake("a", 600.0), fake("b", 2000.0), fake("new", 1.0)]);
        assert!(check_regression(&ok, &baseline, 2.0).is_ok());
        let bad = report(vec![fake("a", 400.0), fake("b", 2000.0)]);
        let err = check_regression(&bad, &baseline, 2.0).unwrap_err();
        assert!(err.contains("a:"), "{err}");
        assert!(!err.contains("b:"), "{err}");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let r = report(vec![fake("x", 123.0)]);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: EngineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.metrics.len(), 1);
        assert_eq!(back.metrics[0].name, "x");
        assert!((back.metrics[0].value - 123.0).abs() < 1e-12);
    }

    #[test]
    fn quick_suite_produces_all_metrics() {
        // A minimal end-to-end run: every metric present and positive.
        let r = run(false);
        for name in [
            "saxpy_256",
            "saxpy_4096",
            "gemm_tile_64x64",
            "saxpy_1m",
            "write_4mib",
            "read_4mib",
            "write_256kib",
            "read_256kib",
            "cachesim_sweep_exact_8mib",
            "cachesim_sweep_stackdist_8mib",
            "cachesim_sweep_stackdist_memoized_8mib",
            "cachesim_sweep_stackdist_gather_8mib",
            "cachesim_sweep_stackdist_memoized_gather_8mib",
            "predict_warm",
            "items_kmeans_scalar",
            "items_kmeans_vectorized",
            "items_srad_scalar",
            "items_srad_vectorized",
            "items_gem_scalar",
            "items_gem_vectorized",
            "items_stream_scalar",
            "items_stream_vectorized",
            "items_roofline_scalar",
            "items_roofline_vectorized",
        ] {
            let m = r.metric(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(m.value > 0.0, "{name} rate must be positive");
            assert!(m.iterations > 0);
        }
    }
}

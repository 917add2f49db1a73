//! `eod` — the Extended OpenDwarfs experiment driver.
//!
//! Every table and figure of the paper regenerates from here:
//!
//! ```text
//! eod table1|table2|table3|sizing|power
//! eod fig1|fig2a..fig2e|fig3a|fig3b|fig4|fig5|figures
//! eod run <benchmark> <size> [-p P -d D]
//! eod cov|autotune|schedule|list
//! eod serve|submit|status|shutdown          (execution service)
//! eod fleet|worker                          (distributed execution)
//! ```
//!
//! Options: `--paper` (full §4.3 constants: 2 s loops × 50 samples),
//! `--quick` (default; same sample count, shorter loop floor),
//! `--samples N`, `--seed S`, `--out DIR` (write CSV/JSON series).

use eod_clrt::prelude::*;
// An explicit import outranks the glob: restore the two-parameter Result.
use eod_core::args::{parse_arguments, DeviceSelector, ParsedArgs};
use eod_core::fleet::WorkerCapabilities;
use eod_core::recorded::{model_only_run, record, Source};
use eod_core::sizes::ProblemSize;
use eod_core::spec::{JobSpec, Priority};
use eod_dwarfs::registry;
use eod_fleet::{
    CompletionSink, Coordinator, FleetConfig, FleetListener, FleetOutcome, Greedy, LocalWire,
    NetFleetListener, PlacementPolicy, Predictive, RoundRobin, TcpWire, Worker, WorkerExit,
};
use eod_harness::figures::{self, Figure};
use eod_harness::{report, schedule, tables};
use eod_harness::{Runner, RunnerConfig};
use eod_predict::Predictor;
use eod_serve::{Client, NetServer, Placement, ServeConfig, Server, Service};
use eod_telemetry::{render_chrome_trace, MetricsServer, TraceSink};
use std::path::PathBuf;
use std::result::Result;
use std::sync::Arc;
use std::time::Duration;

/// Default service endpoint (0xE0D = 3597).
const DEFAULT_ADDR: &str = "127.0.0.1:3597";

/// Default fleet (worker-registration) endpoint — one above the service.
const DEFAULT_FLEET_ADDR: &str = "127.0.0.1:3598";

struct Cli {
    command: String,
    args: Vec<String>,
    config: RunnerConfig,
    out_dir: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

/// Split `argv` (without the program name) into the command, its
/// arguments and the options every command shares.
fn parse_cli(argv: Vec<String>) -> Result<Cli, String> {
    let mut config = RunnerConfig::quick();
    let mut out_dir = None;
    let mut trace_out = None;
    let mut rest = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--paper" => config = RunnerConfig::paper(),
            "--quick" => config = RunnerConfig::quick(),
            "--samples" => {
                i += 1;
                config.samples = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .ok_or("--samples needs a number of at least 1")?;
            }
            "--seed" => {
                i += 1;
                config.seed = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--loop-ms" => {
                i += 1;
                let ms: u64 = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or("--loop-ms needs a number")?;
                config.min_loop = Duration::from_millis(ms);
            }
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(argv.get(i).ok_or("--out needs a directory")?));
            }
            "--trace-out" => {
                i += 1;
                trace_out = Some(PathBuf::from(
                    argv.get(i).ok_or("--trace-out needs a file path")?,
                ));
            }
            _ => rest.push(argv[i].clone()),
        }
        i += 1;
    }
    if rest.is_empty() {
        rest.push("help".to_string());
    }
    let command = rest.remove(0);
    Ok(Cli {
        command,
        args: rest,
        config,
        out_dir,
        trace_out,
    })
}

/// Export collected spans as a Chrome trace-event / Perfetto JSON file.
fn write_trace(sink: &TraceSink, path: &PathBuf) -> Result<(), String> {
    let spans = sink.snapshot();
    std::fs::write(path, render_chrome_trace(&spans))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "wrote {} ({} spans) — open in ui.perfetto.dev",
        path.display(),
        spans.len()
    );
    Ok(())
}

fn write_figure(fig: &Figure, out_dir: &Option<PathBuf>) -> Result<(), String> {
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let groups = fig.all_groups();
        std::fs::write(
            dir.join(format!("{}_samples.csv", fig.id)),
            report::samples_csv(&groups),
        )
        .map_err(|e| e.to_string())?;
        std::fs::write(
            dir.join(format!("{}_summary.csv", fig.id)),
            report::summary_csv(&groups),
        )
        .map_err(|e| e.to_string())?;
        let json = serde_json::to_string_pretty(fig).map_err(|e| e.to_string())?;
        std::fs::write(dir.join(format!("{}.json", fig.id)), json).map_err(|e| e.to_string())?;
        // LibSciBench-format per-group logs: lsb.<bench>.<size>.<device>.r0
        let lsb_dir = dir.join("lsb");
        std::fs::create_dir_all(&lsb_dir).map_err(|e| e.to_string())?;
        for g in &groups {
            let writer = eod_scibench::LsbWriter::new(format!(
                "{}.{}.{}",
                g.benchmark,
                g.size,
                g.device.replace(' ', "_")
            ))
            .with_metadata("class", &g.class)
            .with_metadata("footprint_bytes", g.footprint_bytes.to_string())
            .with_metadata("verified", g.verified.to_string());
            std::fs::write(lsb_dir.join(writer.file_name()), writer.render(&g.regions))
                .map_err(|e| e.to_string())?;
        }
        eprintln!(
            "wrote {}/{{{}_samples.csv,{}_summary.csv,{}.json}}",
            dir.display(),
            fig.id,
            fig.id,
            fig.id
        );
    }
    Ok(())
}

fn show_figure(fig: &Figure, out_dir: &Option<PathBuf>) -> Result<(), String> {
    println!("{}", fig.render_ascii());
    write_figure(fig, out_dir)
}

fn fig5_energy_render(fig: &Figure) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "Fig. 5 — kernel energy, large size (joules)\n\
         | benchmark | i7-6700K (RAPL) | GTX 1080 (NVML) | CPU/GPU |\n|---|---:|---:|---:|\n",
    );
    for p in &fig.panels {
        let energy = |dev: &str| {
            p.groups
                .iter()
                .find(|g| g.device == dev)
                .and_then(|g| g.energy_summary())
                .map(|s| s.mean)
        };
        let (cpu, gpu) = (energy("i7-6700K"), energy("GTX 1080"));
        let ratio = match (cpu, gpu) {
            (Some(c), Some(g)) if g > 0.0 => format!("{:.2}×", c / g),
            _ => "–".into(),
        };
        let f = |v: Option<f64>| v.map(|x| format!("{x:.4}")).unwrap_or("–".into());
        let _ = writeln!(out, "| {} | {} | {} | {} |", p.label, f(cpu), f(gpu), ratio);
    }
    out
}

/// Build a workload directly from a parsed Table 3 argument string —
/// `eod run <benchmark> --args "<table-3 arguments>"`.
fn workload_from_args(
    benchmark: &str,
    args: &str,
    seed: u64,
) -> Result<Box<dyn eod_core::benchmark::Workload>, String> {
    use eod_dwarfs as dw;
    let parsed = parse_arguments(benchmark, args)
        .ok_or_else(|| format!("cannot parse {benchmark} arguments {args:?} (Table 3 grammar)"))?;
    Ok(match parsed {
        ParsedArgs::Kmeans {
            points, features, ..
        } => Box::new(dw::kmeans::KmeansWorkload::new(
            dw::kmeans::KmeansParams {
                points,
                features,
                clusters: eod_core::sizes::ScaleTable::KMEANS_CLUSTERS,
            },
            seed,
        )),
        ParsedArgs::Lud { n } => Box::new(dw::lud::LudWorkload::new(n, seed)),
        ParsedArgs::Csr { n } => Box::new(dw::csr::CsrWorkload::new(
            n,
            eod_core::sizes::ScaleTable::CSR_DENSITY,
            seed,
        )),
        ParsedArgs::Fft { n } => Box::new(dw::fft::FftWorkload::new(n, seed)),
        ParsedArgs::Dwt { levels, w, h } => Box::new(dw::dwt::DwtWorkload::new(
            dw::dwt::DwtParams { w, h, levels },
            seed,
        )),
        ParsedArgs::Srad {
            rows, cols, roi, ..
        } => Box::new(dw::srad::SradWorkload::new(
            dw::srad::SradParams { rows, cols, roi },
            seed,
        )),
        ParsedArgs::Crc { bytes, .. } => Box::new(dw::crc::CrcWorkload::new(bytes, seed)),
        ParsedArgs::Nw { n, penalty } => Box::new(dw::nw::NwWorkload::new(
            dw::nw::NwParams { n, penalty },
            seed,
        )),
        ParsedArgs::Gem { molecule } => {
            use eod_core::sizes::ScaleTable;
            let kib = ScaleTable::GEM_MOLECULES
                .iter()
                .position(|&m| m == molecule)
                .map(|i| ScaleTable::GEM_FOOTPRINT_KIB[i])
                .ok_or_else(|| format!("unknown molecule {molecule} (Table 2 names only)"))?;
            Box::new(dw::gem::GemWorkload::new(&molecule, kib, seed))
        }
        ParsedArgs::Nqueens { n } => Box::new(dw::nqueens::NqueensWorkload::new(n)),
        ParsedArgs::Hmm { states, symbols } => Box::new(dw::hmm::HmmWorkload::new(
            dw::hmm::HmmParams {
                states,
                symbols,
                t: dw::hmm::DEFAULT_T,
            },
            seed,
        )),
    })
}

fn cmd_run(cli: &Cli) -> Result<(), String> {
    let benchmark = cli
        .args
        .first()
        .ok_or("usage: eod run <benchmark> <size|--args \"…\">")?;
    // `--args "<table 3 string>"` overrides the size-based configuration.
    let custom_args = cli
        .args
        .iter()
        .position(|a| a == "--args")
        .and_then(|i| cli.args.get(i + 1))
        .cloned();
    // Remove `--args <value>` before interpreting the rest.
    let mut rest: Vec<String> = Vec::new();
    let mut skip_next = false;
    for a in &cli.args[1..] {
        if skip_next {
            skip_next = false;
            continue;
        }
        if a == "--args" {
            skip_next = true;
            continue;
        }
        rest.push(a.clone());
    }
    // The size is the first remaining word unless that is already the
    // Table 3-style device selector (`-p P -d D [-t T]`).
    let (size_label, selector) = match rest.split_first() {
        Some((first, tail)) if !first.starts_with('-') => (Some(first), tail),
        _ => (None, &rest[..]),
    };
    let size = parse_size(size_label)?;
    let selector = selector.join(" ");
    let device = if selector.is_empty() {
        Platform::simulated()
            .device_by_name("i7-6700K")
            .expect("catalog device")
    } else {
        let sel = DeviceSelector::parse(&selector)
            .ok_or_else(|| format!("bad device selector {selector:?}"))?;
        Platform::select(sel.platform, sel.device).map_err(|e| e.to_string())?
    };
    let bench = registry::benchmark_by_name(benchmark)
        .ok_or_else(|| format!("unknown benchmark {benchmark}"))?;
    let trace = cli.trace_out.as_ref().map(|_| Arc::new(TraceSink::new()));
    let mut runner = Runner::new(cli.config.clone());
    if let Some(sink) = &trace {
        runner = runner.with_trace(Arc::clone(sink));
    }
    let g = if let Some(args) = custom_args {
        // Run the custom workload through a one-off Table-3 configuration:
        // recorded, then priced on a simulated device; live on native.
        let w = workload_from_args(benchmark, &args, cli.config.seed)?;
        let mut source = if device.is_native() {
            Source::live(w)
        } else {
            Source::priced(Arc::new(
                record(w, &device, true, None).map_err(|e| e.to_string())?,
            ))
        };
        let ctx = Context::new(device.clone());
        let queue = CommandQueue::new(&ctx).with_profiling();
        if let Some(sink) = &trace {
            queue.set_trace(Some(Arc::clone(sink)));
        }
        source.setup(&queue).map_err(|e| e.to_string())?;
        let out = source.run_iteration(&queue).map_err(|e| e.to_string())?;
        source
            .verify(&queue)
            .map_err(|e| format!("verification failed: {e}"))?;
        println!(
            "{benchmark} --args {args:?} on {}: verified, {} kernel launches, {:.4} ms kernel time",
            device.name(),
            out.kernel_launches(),
            out.kernel_time().as_secs_f64() * 1e3
        );
        if let (Some(sink), Some(path)) = (&trace, &cli.trace_out) {
            write_trace(sink, path)?;
        }
        return Ok(());
    } else {
        runner.run_group(bench.as_ref(), size, device)?
    };
    let s = g.time_summary();
    println!(
        "{} {} on {} [{}]: verified={} launches/iter={} footprint={} B",
        g.benchmark,
        g.size,
        g.device,
        g.class,
        g.verified,
        g.launches_per_iteration,
        g.footprint_bytes
    );
    println!(
        "kernel time: median {:.4} ms  mean {:.4} ms  CoV {:.3}  (n = {})",
        s.median,
        s.mean,
        s.cov(),
        s.n
    );
    println!(
        "setup {:.3} ms, transfers {:.3} ms",
        g.setup_ms, g.transfer_ms
    );
    if let Some(c) = &g.counters {
        println!("counters:");
        for (e, v) in c.iter() {
            println!("  {:<14} {v}", e.papi_name());
        }
        if let Some(ipc) = c.ipc() {
            println!("  IPC            {ipc:.3}");
        }
    }
    if let Some(es) = g.energy_summary() {
        println!("energy: mean {:.4} J per iteration", es.mean);
    }
    if let (Some(sink), Some(path)) = (&trace, &cli.trace_out) {
        // Lay the LibSciBench region journal onto its own track beside the
        // host/device spans, then export everything.
        g.regions.record_trace(sink);
        write_trace(sink, path)?;
    }
    Ok(())
}

fn cmd_cov(cli: &Cli) -> Result<(), String> {
    // §5.1: CoV is larger on lower-clocked devices. Measure srad tiny on
    // every device and print CoV against clock.
    let runner = Runner::new(cli.config.clone());
    let bench = registry::benchmark_by_name("srad").expect("srad exists");
    println!("| device | clock (MHz) | CoV |\n|---|---:|---:|");
    for device in runner.simulated_devices() {
        let clock = device
            .sim_id()
            .map(|id| id.spec().best_clock_mhz())
            .unwrap_or(0);
        let g = runner.run_group(bench.as_ref(), ProblemSize::Tiny, device)?;
        println!(
            "| {} | {} | {:.4} |",
            g.device,
            clock,
            g.time_summary().cov()
        );
    }
    Ok(())
}

fn cmd_aiwc(cli: &Cli) -> Result<(), String> {
    // Characterize every benchmark's kernels from the profiles of its
    // recorded tiny run — the paper's deferred AIWC analysis.
    use eod_dwarfs::aiwc;
    let mut rows = Vec::new();
    for bench in registry::all_benchmarks() {
        let run = model_only_run(bench.as_ref(), ProblemSize::Tiny, cli.config.seed)?;
        // One row per kernel of the first iteration, deduplicated by
        // kernel name for the table.
        let mut seen = std::collections::BTreeSet::new();
        for p in run.profiles() {
            if seen.insert(p.name.clone()) {
                rows.push(aiwc::characterize(p));
            }
        }
    }
    print!("{}", aiwc::render_table(&rows));
    Ok(())
}

fn cmd_ideal(cli: &Cli) -> Result<(), String> {
    // The §7 'ideal performance' yardstick: roofline attainment of every
    // benchmark kernel on a CPU and a GPU model.
    use eod_devsim::model::DeviceModel;
    use eod_devsim::roofline;
    let sim = Platform::simulated();
    println!("| kernel | device | bound | ideal (ms) | modeled (ms) | attained |");
    println!("|---|---|---|---:|---:|---:|");
    for name in ["i7-6700K", "GTX 1080"] {
        let device = sim.device_by_name(name).expect("catalog device");
        let id = device.sim_id().expect("simulated");
        let model = DeviceModel::new(id);
        for bench in registry::all_benchmarks() {
            let run = model_only_run(bench.as_ref(), ProblemSize::Tiny, cli.config.seed)?;
            let Some(profile) = run.profiles().next() else {
                continue;
            };
            let ideal = roofline::ideal_time(id.spec(), profile);
            let cost = model.predict(profile);
            println!(
                "| {} | {} | {} | {:.5} | {:.5} | {:.1} % |",
                profile.name,
                name,
                if ideal.compute_bound {
                    "compute"
                } else {
                    "memory"
                },
                ideal.ideal_s * 1e3,
                cost.total_s * 1e3,
                roofline::attained_fraction(id.spec(), profile, cost.total_s) * 100.0
            );
        }
    }
    Ok(())
}

fn cmd_ablation() -> Result<(), String> {
    // Quantify each model term's contribution to the paper's headline
    // shapes by removing terms one at a time.
    use eod_devsim::model::{DeviceModel, ModelAblation};
    use eod_devsim::profile::{AccessPattern, KernelProfile};
    let mut crc = KernelProfile::new("crc-large");
    crc.int_ops = 4_194_304.0 * 6.0;
    crc.bytes_read = 4_194_304.0;
    crc.working_set = 4_194_304;
    crc.work_items = 64;
    crc.serial_fraction = 0.85;
    let mut nw = KernelProfile::new("nw-large");
    nw.int_ops = 4096.0 * 4096.0 * 6.0;
    nw.bytes_read = 4096.0 * 4096.0 * 16.0;
    nw.working_set = 2 * 4097 * 4097 * 4;
    nw.work_items = 256;
    nw.kernel_launches = 511;
    nw.pattern = AccessPattern::Strided;
    let mut srad = KernelProfile::new("srad-large");
    srad.flops = 2048.0 * 1024.0 * 35.0;
    srad.bytes_read = 2048.0 * 1024.0 * 24.0;
    srad.bytes_written = 2048.0 * 1024.0 * 8.0;
    srad.working_set = 2048 * 1024 * 24;
    srad.work_items = 2048 * 1024;

    let i7 = DeviceModel::new(eod_devsim::catalog::DeviceId::by_name("i7-6700K").unwrap());
    let gtx = DeviceModel::new(eod_devsim::catalog::DeviceId::by_name("GTX 1080").unwrap());
    let r9 = DeviceModel::new(eod_devsim::catalog::DeviceId::by_name("R9 290X").unwrap());

    println!(
        "CPU/GPU and AMD ratios under single-term ablation (ratio >1 ⇒ first device slower):\n"
    );
    println!("| ablated term | crc i7/GTX | nw R9/GTX | srad i7/GTX |");
    println!("|---|---:|---:|---:|");
    let mut configs: Vec<(String, ModelAblation)> =
        vec![("(full model)".into(), ModelAblation::full())];
    for &t in ModelAblation::terms() {
        configs.push((
            format!("− {t}"),
            ModelAblation::without(t).expect("known term"),
        ));
    }
    configs.push(("bare roofline".into(), ModelAblation::bare_roofline()));
    for (label, ab) in configs {
        let r_crc = i7.predict_ablated(&crc, ab).total_s / gtx.predict_ablated(&crc, ab).total_s;
        let r_nw = r9.predict_ablated(&nw, ab).total_s / gtx.predict_ablated(&nw, ab).total_s;
        let r_srad = i7.predict_ablated(&srad, ab).total_s / gtx.predict_ablated(&srad, ab).total_s;
        println!("| {label} | {r_crc:.3} | {r_nw:.3} | {r_srad:.3} |");
    }
    println!("\ncrc needs BOTH the serial chain and the occupancy wall removed (the bare");
    println!("roofline row) before the GPU wins it; nw's AMD gap follows launch overhead;");
    println!("srad's GPU advantage is pure bandwidth and survives every ablation.");
    Ok(())
}

fn cmd_autotune() -> Result<(), String> {
    use eod_harness::autotune;
    let ctx = Context::new(Device::native());
    let queue = CommandQueue::new(&ctx).with_profiling();
    let n = 1 << 20;
    let x = ctx
        .create_buffer_from(&vec![1.0f32; n])
        .map_err(|e| e.to_string())?;
    let y = ctx
        .create_buffer_from(&vec![2.0f32; n])
        .map_err(|e| e.to_string())?;
    let k = ClosureKernel::new("saxpy", n as u64, {
        let (x, y) = (x.view(), y.view());
        move |item: &WorkItem| {
            let i = item.global_id(0);
            y.set(i, y.get(i) + 2.0 * x.get(i));
        }
    });
    let candidates = autotune::standard_candidates();
    let r = autotune::sweep(&candidates, 5, |local| {
        queue
            .enqueue_kernel(&k, &NdRange::d1(n, local))
            .expect("valid range")
            .duration()
    });
    println!("auto-tuning saxpy ({n} items) on the native backend:");
    for (local, t) in &r.measurements {
        let marker = if *local == r.best { "  ← best" } else { "" };
        println!(
            "  local {local:>4}: {:>10.1} µs{marker}",
            t.as_secs_f64() * 1e6
        );
    }
    println!("speedup over local={}: {:.2}×", candidates[0], r.speedup());
    Ok(())
}

fn cmd_bench_engine(cli: &Cli) -> Result<(), String> {
    use eod_bench::engine;
    let full = has_flag(&cli.args, "--full");
    let report = engine::run(full);
    print!("{}", engine::render(&report));
    let json_path = flag_value(&cli.args, "--json").unwrap_or_else(|| "BENCH_engine.json".into());
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(&json_path, json + "\n").map_err(|e| format!("write {json_path}: {e}"))?;
    eprintln!("wrote {json_path}");
    if let Some(baseline_path) = flag_value(&cli.args, "--baseline") {
        let text = std::fs::read_to_string(&baseline_path)
            .map_err(|e| format!("read baseline {baseline_path}: {e}"))?;
        let baseline: engine::EngineReport =
            serde_json::from_str(&text).map_err(|e| format!("parse {baseline_path}: {e}"))?;
        engine::check_regression(&report, &baseline, 2.0)
            .map_err(|e| format!("dispatch-rate regression vs {baseline_path}: {e}"))?;
        println!("baseline check vs {baseline_path}: ok (no metric regressed more than 2x)");
    }
    Ok(())
}

fn cmd_schedule(cli: &Cli) -> Result<(), String> {
    let mut cfg = cli.config.clone();
    cfg.energy_all_devices = true;
    let runner = Runner::new(cfg);
    let devices = figures::figure_devices(&runner, false);
    let mut groups = Vec::new();
    for name in ["kmeans", "csr", "fft", "dwt", "srad", "crc", "nw"] {
        let bench = registry::benchmark_by_name(name).expect("registered");
        groups.extend(runner.run_across_devices(bench.as_ref(), ProblemSize::Small, &devices)?);
    }
    let matrix = schedule::Matrix::from_groups(&groups)?;
    for policy in [
        schedule::Policy::FastestDevice,
        schedule::Policy::LowestEnergy,
        schedule::Policy::EnergyUnderDeadline { slowdown: 1.5 },
    ] {
        let s = schedule::schedule(&matrix, policy)?;
        println!("{}", schedule::render(&s));
    }
    Ok(())
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{flag} needs a number")),
    }
}

fn serve_addr(args: &[String]) -> String {
    flag_value(args, "--addr").unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

/// Which TCP front end serves the protocol.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Transport {
    /// One epoll event loop multiplexing every connection (default).
    Reactor,
    /// Thread per connection; the original transport, kept as fallback.
    Blocking,
}

impl Transport {
    fn label(self) -> &'static str {
        match self {
            Transport::Reactor => "reactor",
            Transport::Blocking => "blocking",
        }
    }
}

fn parse_transport(args: &[String]) -> Result<Transport, String> {
    match flag_value(args, "--transport").as_deref() {
        None | Some("reactor") => Ok(Transport::Reactor),
        Some("blocking") => Ok(Transport::Blocking),
        Some(other) => Err(format!(
            "--transport must be `reactor` or `blocking`, not {other:?}"
        )),
    }
}

/// Reactor tuning from the command line: `--shards N` (0 = auto,
/// `min(cores, 8)`) and `--handler-threads N` per shard.
fn parse_net_config(args: &[String]) -> Result<eod_net::NetConfig, String> {
    let mut config = eod_net::NetConfig::default();
    if let Some(s) = parse_flag(args, "--shards")? {
        config.shards = s;
    }
    if let Some(h) = parse_flag(args, "--handler-threads")? {
        config.handler_threads = h;
    }
    Ok(config)
}

/// The human-readable accept-sharding mode for announce lines.
fn accept_mode(shards: usize, reuseport: bool) -> String {
    if shards == 1 {
        "1 shard".to_string()
    } else if reuseport {
        format!("{shards} shards via SO_REUSEPORT")
    } else {
        format!("{shards} shards via round-robin accept")
    }
}

fn cmd_serve(cli: &Cli) -> Result<(), String> {
    let addr = serve_addr(&cli.args);
    let mut cfg = ServeConfig {
        runner: cli.config.clone(),
        ..ServeConfig::default()
    };
    if let Some(w) = parse_flag(&cli.args, "--workers")? {
        cfg.workers = w;
    }
    if let Some(q) = parse_flag(&cli.args, "--queue-cap")? {
        cfg.queue_capacity = q;
    }
    if let Some(c) = parse_flag(&cli.args, "--cache-cap")? {
        cfg.cache_capacity = c;
    }
    let (workers, queue_cap, cache_cap) = (cfg.workers, cfg.queue_capacity, cfg.cache_capacity);
    let transport = parse_transport(&cli.args)?;
    let service = Service::start(cfg);
    match transport {
        Transport::Reactor => {
            // Thousands of concurrent connections need more than the
            // usual soft fd limit; best-effort — the reactor's own
            // connection cap still applies.
            let _ = eod_net::raise_nofile_limit(65_536);
            let net_config = parse_net_config(&cli.args)?;
            let net = NetServer::start(Arc::clone(&service), &addr, net_config)
                .map_err(|e| format!("bind {addr}: {e}"))?;
            let shard_metrics = net.shard_metrics();
            let metrics_server = match flag_value(&cli.args, "--metrics-addr") {
                Some(maddr) => {
                    let svc = Arc::clone(&service);
                    let ms = MetricsServer::serve(&maddr, move || {
                        let mut text = svc.metrics_text();
                        text.push_str(&eod_net::render_sharded(&shard_metrics));
                        text
                    })
                    .map_err(|e| format!("bind metrics {maddr}: {e}"))?;
                    println!("metrics on http://{}/metrics", ms.local_addr());
                    Some(ms)
                }
                None => None,
            };
            println!(
                "eod-serve listening on {} (reactor, {}, {workers} workers, queue \u{2264} {queue_cap}, cache \u{2264} {cache_cap})",
                net.local_addr(),
                accept_mode(net.shard_count(), net.reuseport())
            );
            let outcome = net.wait().map_err(|e| e.to_string());
            if let Some(ms) = metrics_server {
                ms.stop();
            }
            outcome
        }
        Transport::Blocking => {
            let metrics_server = match flag_value(&cli.args, "--metrics-addr") {
                Some(maddr) => {
                    let svc = Arc::clone(&service);
                    let ms = MetricsServer::serve(&maddr, move || svc.metrics_text())
                        .map_err(|e| format!("bind metrics {maddr}: {e}"))?;
                    println!("metrics on http://{}/metrics", ms.local_addr());
                    Some(ms)
                }
                None => None,
            };
            let server = Server::bind(service, &addr).map_err(|e| format!("bind {addr}: {e}"))?;
            println!(
                "eod-serve listening on {} (blocking, {workers} workers, queue \u{2264} {queue_cap}, cache \u{2264} {cache_cap})",
                server.local_addr()
            );
            let outcome = server.run().map_err(|e| e.to_string());
            if let Some(ms) = metrics_server {
                ms.stop();
            }
            outcome
        }
    }
}

/// A child `eod serve` process spawned for benchmarking, with its
/// stdout-announced service and metrics addresses.
struct ChildServer {
    child: std::process::Child,
    addr: String,
    metrics_addr: Option<String>,
    /// The full "eod-serve listening on …" line, which names the accept
    /// mode (shard count, SO_REUSEPORT vs round-robin).
    announce: String,
}

impl ChildServer {
    /// Spawn `eod serve` on the given transport with ephemeral ports and
    /// parse the announced addresses from its stdout. `shards` picks the
    /// reactor's event-loop count (0 = auto; ignored by blocking).
    fn spawn(transport: Transport, workers: usize, shards: usize) -> Result<ChildServer, String> {
        use std::io::BufRead as _;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = std::process::Command::new(exe)
            .args([
                "serve",
                "--transport",
                transport.label(),
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--shards",
                &shards.to_string(),
                "--samples",
                "5",
                "--loop-ms",
                "1",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let mut addr = None;
        let mut metrics_addr = None;
        let mut announce = String::new();
        while addr.is_none() {
            let line = match lines.next() {
                Some(Ok(l)) => l,
                _ => {
                    let _ = child.kill();
                    return Err("server exited before announcing its address".into());
                }
            };
            if let Some(rest) = line.strip_prefix("metrics on http://") {
                metrics_addr = rest.strip_suffix("/metrics").map(str::to_string);
            } else if let Some(rest) = line.strip_prefix("eod-serve listening on ") {
                addr = rest.split_whitespace().next().map(str::to_string);
                announce = line.clone();
            }
        }
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
        Ok(ChildServer {
            child,
            addr: addr.unwrap(),
            metrics_addr,
            announce,
        })
    }

    /// Whether the child's reactor is accept-sharding via `SO_REUSEPORT`
    /// (parsed from its announce line).
    fn reuseport(&self) -> bool {
        self.announce.contains("SO_REUSEPORT")
    }

    /// Plain-HTTP scrape of the child's `/metrics`.
    fn scrape_metrics(&self) -> Result<String, String> {
        use std::io::{Read as _, Write as _};
        let maddr = self
            .metrics_addr
            .as_deref()
            .ok_or("child has no metrics endpoint")?;
        let mut s = std::net::TcpStream::connect(maddr).map_err(|e| e.to_string())?;
        s.write_all(b"GET /metrics HTTP/1.0\r\nConnection: close\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut body = String::new();
        s.read_to_string(&mut body).map_err(|e| e.to_string())?;
        Ok(body)
    }

    /// Protocol shutdown, then reap the process.
    fn shutdown(mut self) -> Result<(), String> {
        Client::connect(&self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown child: {e}"))?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server child exited with {status}"))
        }
    }
}

/// One point on the shard-scaling curve.
#[derive(serde::Serialize)]
struct ShardPoint {
    shards: usize,
    reuseport: bool,
    report: eod_serve::bench::LoadReport,
}

/// The closed-loop (paced) latency measurement.
#[derive(serde::Serialize)]
struct ClosedLoopPoint {
    shards: usize,
    target_rate: f64,
    report: eod_serve::bench::LoadReport,
}

#[derive(serde::Serialize)]
struct BenchServeReport {
    benchmark: &'static str,
    pipeline: usize,
    requests_per_conn: usize,
    host_parallelism: usize,
    load_threads: usize,
    /// Open-loop saturation throughput at each shard count.
    shard_scaling: Vec<ShardPoint>,
    /// Latency at sub-saturation load (token-bucket paced).
    closed_loop: Option<ClosedLoopPoint>,
    /// The thread-per-connection oracle at a modest connection count.
    blocking: eod_serve::bench::LoadReport,
}

fn cmd_bench_serve(cli: &Cli) -> Result<(), String> {
    use eod_serve::bench::{run_load, LoadOptions};

    let smoke = has_flag(&cli.args, "--smoke");
    let connections: usize =
        parse_flag(&cli.args, "--connections")?.unwrap_or(if smoke { 500 } else { 10_000 });
    let pipeline: usize = parse_flag(&cli.args, "--pipeline")?.unwrap_or(4).max(1);
    let requests_per_conn: usize = parse_flag(&cli.args, "--requests-per-conn")?
        .unwrap_or(if smoke { 8 } else { 10 })
        .max(1);
    // The blocking transport burns a thread per connection, so its
    // comparison point runs at a modest connection count.
    let blocking_connections: usize = parse_flag(&cli.args, "--blocking-connections")?
        .unwrap_or(connections.min(if smoke { 64 } else { 256 }));
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Enough generator threads that the client can't mask server
    // scaling, but no more than the host can actually run.
    let load_threads: usize = parse_flag(&cli.args, "--load-threads")?
        .unwrap_or(nproc.min(4))
        .max(1);
    let shards_override: Option<usize> = parse_flag(&cli.args, "--shards")?;
    let target_rate: Option<f64> = parse_flag(&cli.args, "--target-rate")?;
    let json_out = flag_value(&cli.args, "--json")
        .or_else(|| (!smoke).then(|| "BENCH_serve.json".to_string()));

    // One spec for every request: the priming submit executes it once,
    // after which the run measures transport + cache-hit service time.
    let bench_spec = JobSpec {
        benchmark: "crc".into(),
        size: ProblemSize::Tiny,
        device: "GTX 1080".into(),
        config: RunnerConfig::smoke().to_exec(),
    };
    let opts = |conns: usize, framed: bool, rate: Option<f64>, reqs: usize| LoadOptions {
        connections: conns,
        pipeline,
        requests_per_conn: reqs,
        spec: bench_spec.clone(),
        deadline: Duration::from_secs(if smoke { 120 } else { 600 }),
        // The blocking transport has no framing envelope; bare pipelined
        // lines correlate by FIFO order instead.
        framed,
        load_threads,
        target_rate: rate,
    };
    let print_report = |report: &eod_serve::bench::LoadReport| {
        eprintln!(
            "  {:>9.0} submit/s  p50 {:>7.0} \u{00b5}s  p99 {:>8.0} \u{00b5}s  p999 {:>8.0} \u{00b5}s  max {:>8.0} \u{00b5}s  ({} responses, {} dropped, {:.2} s)",
            report.submits_per_s,
            report.p50_us,
            report.p99_us,
            report.p999_us,
            report.max_us,
            report.responses,
            report.dropped,
            report.wall_s,
        );
    };
    let prime = |server: &ChildServer| -> Result<(), String> {
        Client::connect(&server.addr)
            .and_then(|mut c| c.submit_wait(&bench_spec, Priority::Normal))
            .map_err(|e| format!("prime cache: {e}"))
            .map(|_| ())
    };

    if smoke {
        // The smoke exercises the sharded path by default so CI gates
        // multi-loop correctness, not just the single-reactor shape.
        let shards = shards_override.unwrap_or(2);
        let server = ChildServer::spawn(Transport::Reactor, 2, shards)?;
        prime(&server)?;
        eprintln!(
            "bench-serve smoke: reactor, {shards} shards, {connections} connections \u{00d7} {requests_per_conn} requests, pipeline {pipeline}, {load_threads} load threads"
        );
        let report = run_load(
            &server.addr,
            &opts(connections, true, None, requests_per_conn),
        )?;
        print_report(&report);
        // Gate 1: zero drops, zero protocol errors, every id answered.
        if report.dropped != 0 || report.errors != 0 || report.responses != report.requests {
            return Err(format!(
                "smoke gate failed: {} of {} requests answered, {} dropped, {} errors",
                report.responses, report.requests, report.dropped, report.errors
            ));
        }
        // Gate 2: the aggregated reactor surface and the per-shard
        // series both show up on the metrics scrape.
        let scraped = server.scrape_metrics()?;
        let mut required = vec![
            "eod_net_connections".to_string(),
            "eod_net_accepts_total".to_string(),
            "eod_net_pipeline_depth".to_string(),
            "eod_admission_rejections_total".to_string(),
        ];
        for s in 0..shards {
            required.push(format!("eod_net_shard_accepts_total{{shard=\"{s}\"}}"));
        }
        for metric in &required {
            if !scraped.contains(metric.as_str()) {
                return Err(format!("metrics scrape is missing {metric}"));
            }
        }
        // Gate 3: figure batches are byte-identical across transports.
        let reactor_fig = Client::connect(&server.addr)
            .and_then(|mut c| c.figure("fig2a"))
            .map_err(|e| format!("reactor figure: {e}"))?;
        server.shutdown()?;
        let blocking_server = ChildServer::spawn(Transport::Blocking, 2, 0)?;
        let blocking_fig = Client::connect(&blocking_server.addr)
            .and_then(|mut c| c.figure("fig2a"))
            .map_err(|e| format!("blocking figure: {e}"))?;
        prime(&blocking_server)?;
        let blocking_report = run_load(
            &blocking_server.addr,
            &opts(blocking_connections, false, None, requests_per_conn),
        )?;
        blocking_server.shutdown()?;
        if blocking_fig.rendered != reactor_fig.rendered {
            return Err("figure output differs between transports".into());
        }
        if blocking_report.dropped != 0 || blocking_report.errors != 0 {
            return Err(format!(
                "blocking transport dropped {} / errored {}",
                blocking_report.dropped, blocking_report.errors
            ));
        }
        println!(
            "bench-serve smoke OK: {shards} shards, {} connections, {} responses, 0 dropped; per-shard metrics present; figures byte-identical across transports",
            connections, report.responses
        );
        return Ok(());
    }

    // Full run: the shard-scaling curve (open loop, saturation), then a
    // closed-loop latency point, then the blocking oracle.
    let curve: Vec<usize> = match shards_override {
        Some(s) => vec![s],
        None => vec![1, 2, 4, 8],
    };
    let mut shard_scaling: Vec<ShardPoint> = Vec::with_capacity(curve.len());
    for &shards in &curve {
        let server = ChildServer::spawn(Transport::Reactor, 2, shards)?;
        prime(&server)?;
        eprintln!(
            "bench-serve: reactor, {}, {connections} connections \u{00d7} {requests_per_conn} requests, pipeline {pipeline}, {load_threads} load threads",
            accept_mode(shards, server.reuseport()),
        );
        let report = run_load(
            &server.addr,
            &opts(connections, true, None, requests_per_conn),
        )?;
        print_report(&report);
        let reuseport = server.reuseport();
        server.shutdown()?;
        if report.dropped != 0 {
            return Err(format!("{shards}-shard run dropped {}", report.dropped));
        }
        shard_scaling.push(ShardPoint {
            shards,
            reuseport,
            report,
        });
    }

    // Closed loop: pace to half the best open-loop throughput (unless
    // --target-rate says otherwise) so latency measures service time,
    // not queue depth. Runs on the best-scaling shard count.
    let best = shard_scaling
        .iter()
        .max_by(|a, b| a.report.submits_per_s.total_cmp(&b.report.submits_per_s))
        .expect("non-empty curve");
    let closed_shards = best.shards;
    let rate = target_rate
        .unwrap_or(best.report.submits_per_s / 2.0)
        .max(1.0);
    let closed_conns = connections.min(1_000);
    // Size the run to ~5 s of paced traffic.
    let closed_reqs = (((rate * 5.0) as usize) / closed_conns.max(1)).max(1);
    let closed_loop = {
        let server = ChildServer::spawn(Transport::Reactor, 2, closed_shards)?;
        prime(&server)?;
        eprintln!(
            "bench-serve: closed loop, {closed_shards} shards, {closed_conns} connections \u{00d7} {closed_reqs} requests paced to {rate:.0}/s"
        );
        let report = run_load(
            &server.addr,
            &opts(closed_conns, true, Some(rate), closed_reqs),
        )?;
        print_report(&report);
        server.shutdown()?;
        if report.dropped != 0 {
            return Err(format!("closed-loop run dropped {}", report.dropped));
        }
        ClosedLoopPoint {
            shards: closed_shards,
            target_rate: rate,
            report,
        }
    };

    let blocking_report = {
        let server = ChildServer::spawn(Transport::Blocking, 2, 0)?;
        prime(&server)?;
        eprintln!(
            "bench-serve: blocking transport, {blocking_connections} connections \u{00d7} {requests_per_conn} requests, pipeline {pipeline}"
        );
        let report = run_load(
            &server.addr,
            &opts(blocking_connections, false, None, requests_per_conn),
        )?;
        print_report(&report);
        server.shutdown()?;
        report
    };
    if blocking_report.dropped != 0 {
        return Err(format!("blocking run dropped {}", blocking_report.dropped));
    }

    if let Some(path) = json_out {
        let doc = BenchServeReport {
            benchmark: "bench-serve",
            pipeline,
            requests_per_conn,
            host_parallelism: nproc,
            load_threads,
            shard_scaling,
            closed_loop: Some(closed_loop),
            blocking: blocking_report,
        };
        let json = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(&path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn cmd_fleet(cli: &Cli) -> Result<(), String> {
    let addr = serve_addr(&cli.args);
    let fleet_addr =
        flag_value(&cli.args, "--fleet-addr").unwrap_or_else(|| DEFAULT_FLEET_ADDR.to_string());
    let mut cfg = ServeConfig {
        runner: cli.config.clone(),
        ..ServeConfig::default()
    };
    if let Some(q) = parse_flag(&cli.args, "--queue-cap")? {
        cfg.queue_capacity = q;
    }
    if let Some(c) = parse_flag(&cli.args, "--cache-cap")? {
        cfg.cache_capacity = c;
    }
    let (queue_cap, cache_cap) = (cfg.queue_capacity, cfg.cache_capacity);
    let placement = parse_placement(&cli.args)?.unwrap_or_default();
    let transport = parse_transport(&cli.args)?;
    let net_config = parse_net_config(&cli.args)?;
    let (service, coord) = Service::start_fleet_placed(cfg, FleetConfig::default(), placement);

    // The worker-registration listener, on the chosen transport. Both
    // shapes hand every inbound connection to `Coordinator::attach` as
    // an `Arc<dyn Wire>`; only the accept/read machinery differs.
    enum FleetAccept {
        Reactor(Arc<NetFleetListener>),
        Blocking(Arc<FleetListener>),
    }
    impl FleetAccept {
        fn local_addr(&self) -> std::net::SocketAddr {
            match self {
                FleetAccept::Reactor(l) => l.local_addr(),
                FleetAccept::Blocking(l) => l.local_addr(),
            }
        }
        fn stop(&self) {
            match self {
                FleetAccept::Reactor(l) => l.stop(),
                FleetAccept::Blocking(l) => l.stop(),
            }
        }
    }
    let listener = {
        let coord = Arc::clone(&coord);
        let on_connect = move |wire| Coordinator::attach(&coord, wire);
        match transport {
            Transport::Reactor => FleetAccept::Reactor(
                NetFleetListener::start_with(&fleet_addr, net_config.clone(), on_connect)
                    .map_err(|e| format!("bind fleet {fleet_addr}: {e}"))?,
            ),
            Transport::Blocking => FleetAccept::Blocking(
                FleetListener::start(&fleet_addr, on_connect)
                    .map_err(|e| format!("bind fleet {fleet_addr}: {e}"))?,
            ),
        }
    };
    let metrics_server = match flag_value(&cli.args, "--metrics-addr") {
        Some(maddr) => {
            let svc = Arc::clone(&service);
            let ms = MetricsServer::serve(&maddr, move || svc.metrics_text())
                .map_err(|e| format!("bind metrics {maddr}: {e}"))?;
            println!("metrics on http://{}/metrics", ms.local_addr());
            Some(ms)
        }
        None => None,
    };
    // The client-facing port on the same transport.
    let (client_addr, wait): (
        std::net::SocketAddr,
        Box<dyn FnOnce() -> Result<(), String>>,
    ) = match transport {
        Transport::Reactor => {
            let _ = eod_net::raise_nofile_limit(65_536);
            let net = NetServer::start(Arc::clone(&service), &addr, net_config.clone())
                .map_err(|e| format!("bind {addr}: {e}"))?;
            (
                net.local_addr(),
                Box::new(move || net.wait().map_err(|e| e.to_string())),
            )
        }
        Transport::Blocking => {
            let server = Server::bind(Arc::clone(&service), &addr)
                .map_err(|e| format!("bind {addr}: {e}"))?;
            (
                server.local_addr(),
                Box::new(move || server.run().map_err(|e| e.to_string())),
            )
        }
    };
    println!(
        "eod fleet coordinator: clients on {client_addr}, workers on {} ({}, queue \u{2264} {queue_cap}, cache \u{2264} {cache_cap}, placement {})",
        listener.local_addr(),
        transport.label(),
        placement.label()
    );
    println!(
        "start workers with: eod worker --connect {}",
        listener.local_addr()
    );
    // The wait returns after a client `Shutdown`; the service's own
    // shutdown drains the coordinator, so only the listener remains.
    let outcome = wait();
    listener.stop();
    if let Some(ms) = metrics_server {
        ms.stop();
    }
    outcome
}

fn cmd_worker(cli: &Cli) -> Result<(), String> {
    let addr = flag_value(&cli.args, "--connect").unwrap_or_else(|| DEFAULT_FLEET_ADDR.to_string());
    let slots: u32 = parse_flag(&cli.args, "--slots")?.unwrap_or(1).max(1);
    let devices: Vec<String> = flag_value(&cli.args, "--devices")
        .map(|s| {
            s.split(',')
                .map(|d| d.trim().to_string())
                .filter(|d| !d.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let name =
        flag_value(&cli.args, "--name").unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let caps = WorkerCapabilities {
        name: name.clone(),
        slots,
        devices: devices.clone(),
    };
    // The coordinator may still be binding its socket: ride out refusals
    // for up to 10 s, like `Client::connect` does for the service port.
    let wire = TcpWire::connect(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    println!(
        "{name}: registered with {addr} ({slots} slot{}{})",
        if slots == 1 { "" } else { "s" },
        if devices.is_empty() {
            String::from(", any device")
        } else {
            format!(", devices {}", devices.join(","))
        }
    );
    let exit = Worker::new(caps)
        .run(Arc::new(wire))
        .map_err(|e| format!("worker: {e}"))?;
    println!(
        "{name}: {}",
        match exit {
            WorkerExit::Drained => "drained, bye",
            WorkerExit::Killed => "killed",
            WorkerExit::Disconnected => "coordinator went away",
        }
    );
    Ok(())
}

/// Median of the `kernel_ms` samples in a stored `GroupResult` JSON.
fn median_kernel_ms(json: &str) -> Option<f64> {
    let v: serde::Value = serde_json::from_str(json).ok()?;
    let serde::Value::Seq(samples) = v.get_field("kernel_ms") else {
        return None;
    };
    let mut xs: Vec<f64> = samples
        .iter()
        .filter_map(|s| match s {
            serde::Value::F64(f) => Some(*f),
            serde::Value::I64(i) => Some(*i as f64),
            serde::Value::U64(u) => Some(*u as f64),
            _ => None,
        })
        .collect();
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    Some(if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    })
}

/// A command's optional size label: missing means `tiny`; present but
/// unknown is an error naming the valid sizes.
fn parse_size(label: Option<&String>) -> Result<ProblemSize, String> {
    let Some(label) = label else {
        return Ok(ProblemSize::Tiny);
    };
    ProblemSize::parse(label).ok_or_else(|| {
        let valid: Vec<&str> = ProblemSize::all().iter().map(|s| s.label()).collect();
        format!("unknown size {label:?} (valid: {})", valid.join(", "))
    })
}

fn cmd_submit(cli: &Cli) -> Result<(), String> {
    let addr = serve_addr(&cli.args);
    if let Some(fig) = flag_value(&cli.args, "--fig") {
        let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
        let out = client.figure(&fig).map_err(|e| e.to_string())?;
        // Match the direct figure commands' trailing newline exactly.
        println!("{}", out.rendered);
        eprintln!(
            "batch: {} jobs, {} cache hits, {} misses",
            out.jobs, out.cache_hits, out.cache_misses
        );
        return Ok(());
    }
    let value_flags = ["--addr", "--device", "--timeout-ms"];
    let bool_flags = ["--high", "--no-wait"];
    let mut positional = Vec::new();
    let mut i = 0;
    while i < cli.args.len() {
        let a = cli.args[i].as_str();
        if value_flags.contains(&a) {
            i += 2;
        } else if bool_flags.contains(&a) {
            i += 1;
        } else {
            positional.push(cli.args[i].clone());
            i += 1;
        }
    }
    let benchmark = positional.first().ok_or(
        "usage: eod submit <benchmark> [size] [--device NAME] [--high] [--timeout-ms T] \
         [--no-wait] [--addr HOST:PORT]  |  eod submit --fig <figN>",
    )?;
    let size = parse_size(positional.get(1))?;
    let device = flag_value(&cli.args, "--device").unwrap_or_else(|| "i7-6700K".to_string());
    let mut exec = cli.config.to_exec();
    if let Some(ms) = parse_flag::<u64>(&cli.args, "--timeout-ms")? {
        exec.timeout = Some(Duration::from_millis(ms));
    }
    let spec = JobSpec {
        benchmark: benchmark.clone(),
        size,
        device,
        config: exec,
    };
    let priority = if has_flag(&cli.args, "--high") {
        Priority::High
    } else {
        Priority::Normal
    };
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    if has_flag(&cli.args, "--no-wait") {
        let (job, key, state, cached) =
            client.submit(&spec, priority).map_err(|e| e.to_string())?;
        println!(
            "job {job} [{key}] {state}{}",
            if cached { " (cache hit)" } else { "" }
        );
        return Ok(());
    }
    let outcome = client
        .submit_wait(&spec, priority)
        .map_err(|e| e.to_string())?;
    println!(
        "job {} [{}]: {}",
        outcome.job,
        outcome.key,
        outcome.transitions.join(" → ")
    );
    if outcome.state == "done" {
        let median = outcome
            .group
            .as_deref()
            .and_then(median_kernel_ms)
            .map(|m| format!(", median {m:.4} ms"))
            .unwrap_or_default();
        println!(
            "{} {} on {}: done{}{median}",
            spec.benchmark,
            spec.size.label(),
            spec.device,
            if outcome.cached { " (cache hit)" } else { "" }
        );
        Ok(())
    } else {
        Err(format!(
            "job {} {}: {}",
            outcome.job,
            outcome.state,
            outcome.error.unwrap_or_default()
        ))
    }
}

fn parse_placement(args: &[String]) -> Result<Option<Placement>, String> {
    flag_value(args, "--placement")
        .map(|s| {
            Placement::parse(&s)
                .ok_or_else(|| format!("unknown placement {s:?} (round-robin|greedy|predictive)"))
        })
        .transpose()
}

/// `eod predict <benchmark> [size]` — rank the device catalog for one
/// spec by modeled runtime. Local by default; `--addr` asks a running
/// server instead (same ranking, served from its prediction cache).
fn cmd_predict(cli: &Cli) -> Result<(), String> {
    let value_flags = ["--addr", "--device"];
    let mut positional = Vec::new();
    let mut i = 0;
    while i < cli.args.len() {
        if value_flags.contains(&cli.args[i].as_str()) {
            i += 2;
        } else {
            positional.push(cli.args[i].clone());
            i += 1;
        }
    }
    let benchmark = positional
        .first()
        .ok_or("usage: eod predict <benchmark> [size] [--device NAME] [--addr HOST:PORT]")?;
    let size = parse_size(positional.get(1))?;
    let device = flag_value(&cli.args, "--device").unwrap_or_else(|| "i7-6700K".to_string());
    let spec = JobSpec {
        benchmark: benchmark.clone(),
        size,
        device,
        config: cli.config.to_exec(),
    };
    let set = match flag_value(&cli.args, "--addr") {
        Some(addr) => {
            let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
            client.predict(&spec).map_err(|e| e.to_string())?
        }
        None => {
            let predictor = Predictor::new();
            (*predictor.predict(&spec).map_err(|e| e.to_string())?).clone()
        }
    };
    println!(
        "predictions for {} {} [{}] — {} devices, ascending modeled runtime:",
        set.benchmark,
        set.size,
        set.spec_key,
        set.predictions.len()
    );
    println!(
        "| rank | device | class | runtime (µs) | energy (J) | EDP (J·s) | confidence | profile |"
    );
    println!("|---:|---|---|---:|---:|---:|---:|---|");
    for (rank, p) in set.predictions.iter().enumerate() {
        println!(
            "| {} | {} | {} | {:.2} | {:.6} | {:.3e} | {:.2} | {} |",
            rank + 1,
            p.device,
            p.class,
            p.modeled_runtime_us,
            p.modeled_energy_j,
            p.edp_j_s,
            p.confidence,
            p.cache_profile_provenance.label()
        );
    }
    if let Some(best) = set.best() {
        println!(
            "\nbest: {} ({:.2} µs modeled, EDP {:.3e} J·s)",
            best.device, best.modeled_runtime_us, best.edp_j_s
        );
    }
    Ok(())
}

/// FNV-1a 64 over the measurement content of each result, in job-id
/// order — a placement-independent content address for a whole batch.
///
/// Wall-clock incidentals (`setup_ms`, region timestamps) vary run to
/// run, so the digest covers only the deterministic simulated
/// measurements: identity, verification, footprint, and the exact bit
/// patterns of the `kernel_ms` samples.
fn batch_digest(results: &std::collections::BTreeMap<u64, String>) -> Result<u64, String> {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x100000001b3);
    };
    for (job, json) in results {
        let v: serde::Value =
            serde_json::from_str(json).map_err(|e| format!("job {job} result: {e}"))?;
        mix(&job.to_le_bytes());
        for field in ["benchmark", "size", "device", "class"] {
            match v.get_field(field) {
                serde::Value::Str(s) => mix(s.as_bytes()),
                _ => return Err(format!("job {job} result lacks field {field}")),
            }
        }
        let serde::Value::Bool(verified) = v.get_field("verified") else {
            return Err(format!("job {job} result lacks field verified"));
        };
        mix(&[u8::from(*verified)]);
        for field in ["footprint_bytes", "launches_per_iteration"] {
            match v.get_field(field) {
                serde::Value::U64(n) => mix(&n.to_le_bytes()),
                serde::Value::I64(n) => mix(&n.to_le_bytes()),
                _ => return Err(format!("job {job} result lacks field {field}")),
            }
        }
        let serde::Value::Seq(samples) = v.get_field("kernel_ms") else {
            return Err(format!("job {job} result lacks field kernel_ms"));
        };
        for s in samples {
            let ms = match s {
                serde::Value::F64(f) => *f,
                serde::Value::I64(i) => *i as f64,
                serde::Value::U64(u) => *u as f64,
                _ => return Err(format!("job {job} kernel_ms holds a non-number")),
            };
            mix(&ms.to_bits().to_le_bytes());
        }
    }
    Ok(h)
}

/// `eod schedbench` — the scheduler ablation harness: run a fixed mixed
/// dwarf batch through an in-process LocalWire fleet under a chosen
/// placement policy, report who ran what, the makespan, and a
/// placement-independent digest of the result bytes.
fn cmd_schedbench(cli: &Cli) -> Result<(), String> {
    use std::collections::BTreeMap;
    use std::sync::mpsc;

    let placement = parse_placement(&cli.args)?.unwrap_or(Placement::Predictive);
    let digest_only = has_flag(&cli.args, "--digest-only");
    let predictor = Arc::new(Predictor::new());
    let policy: Arc<dyn PlacementPolicy> = match placement {
        Placement::RoundRobin => Arc::new(RoundRobin::new()),
        Placement::Greedy => Arc::new(Greedy::new()),
        Placement::Predictive => Arc::new(Predictive::new(Arc::clone(&predictor))),
    };

    // The batch: mixed dwarfs, smoke-sized, fixed order. Two jobs target
    // "R9 290X", which only the generalist worker can serve; two jobs are
    // deliberately long (small size). Round-robin's rotation hands an
    // early flexible job to the generalist while a pinned specialist sits
    // idle, so the R9 jobs serialize behind it; predictive placement's
    // flexibility penalty keeps the generalist free for them. Specs are
    // fixed — results are a pure function of the spec, so the digest must
    // not depend on the placement policy.
    let exec = RunnerConfig::smoke().to_exec();
    let mut specs = Vec::new();
    for (benchmark, size, device) in [
        ("srad", ProblemSize::Tiny, "GTX 1080"),
        ("nw", ProblemSize::Medium, "i7-6700K"),
        ("srad", ProblemSize::Medium, "R9 290X"),
        ("crc", ProblemSize::Tiny, "i7-6700K"),
        ("fft", ProblemSize::Tiny, "GTX 1080"),
        ("dwt", ProblemSize::Tiny, "i7-6700K"),
        ("kmeans", ProblemSize::Tiny, "GTX 1080"),
        ("csr", ProblemSize::Small, "R9 290X"),
    ] {
        specs.push(JobSpec {
            benchmark: benchmark.into(),
            size,
            device: device.into(),
            config: exec.clone(),
        });
    }

    let (tx, rx) = mpsc::channel();
    let sink: CompletionSink = Box::new(move |job, outcome, attempts| {
        let _ = tx.send((job, outcome, attempts.to_vec()));
    });
    let coord = Coordinator::start_with_policy(FleetConfig::default(), sink, policy);

    // A deliberately lopsided fleet: two specialists pinned to one device
    // each, plus one generalist that can serve anything. Placement
    // quality shows up as how well the generalist is kept free for
    // overflow instead of being grabbed by jobs a specialist could run.
    let caps = |name: &str, devices: Vec<String>| WorkerCapabilities {
        name: name.into(),
        slots: 1,
        devices,
    };
    let mut handles = Vec::new();
    for (name, devices) in [
        ("cpu-0", vec!["i7-6700K".to_string()]),
        ("gpu-0", vec!["GTX 1080".to_string()]),
        ("any-0", Vec::new()),
    ] {
        let worker = Worker::new(caps(name, devices));
        let (coord_end, worker_end) = LocalWire::pair();
        Coordinator::attach(&coord, coord_end);
        handles.push(std::thread::spawn(move || worker.run(worker_end)));
    }
    // Let all three registrations land before the first submit — the
    // batch must see the full fleet or placement degenerates to
    // first-registered-wins for every policy.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while coord.live_workers() < 3 {
        if std::time::Instant::now() >= deadline {
            return Err("schedbench workers failed to register within 10 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Warm the prediction cache outside the timed region: a long-lived
    // coordinator serves placements from the memoized profiles, so the
    // ablation times steady-state scheduling, not first-contact model
    // extraction (which `eod bench-engine` prices separately).
    if placement == Placement::Predictive {
        for spec in &specs {
            let _ = predictor.predict(spec);
        }
    }

    let started = std::time::Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        coord.submit(i as u64 + 1, spec.clone());
    }
    let mut results: BTreeMap<u64, String> = BTreeMap::new();
    let mut workers: BTreeMap<u64, String> = BTreeMap::new();
    while results.len() < specs.len() {
        let (job, outcome, attempts) = rx
            .recv_timeout(Duration::from_secs(300))
            .map_err(|_| "schedbench batch timed out after 300 s".to_string())?;
        match outcome {
            FleetOutcome::Done { group } => {
                results.insert(job, group);
                if let Some(w) = attempts
                    .iter()
                    .rev()
                    .find(|a| a.outcome == eod_core::fleet::AttemptOutcome::Completed)
                {
                    workers.insert(job, w.worker.clone());
                }
            }
            FleetOutcome::Failed { error, .. } => {
                return Err(format!("schedbench job {job} failed: {error}"));
            }
        }
    }
    let makespan = started.elapsed();
    coord.shutdown(Duration::from_secs(5));
    for h in handles {
        let _ = h.join();
    }

    let digest = batch_digest(&results)?;
    if digest_only {
        println!("results digest: {digest:016x}");
        return Ok(());
    }
    println!(
        "scheduler ablation batch — placement {}:",
        placement.label()
    );
    println!("| job | benchmark | size | device | worker |");
    println!("|---:|---|---|---|---|");
    for (i, spec) in specs.iter().enumerate() {
        let job = i as u64 + 1;
        println!(
            "| {} | {} | {} | {} | {} |",
            job,
            spec.benchmark,
            spec.size.label(),
            spec.device,
            workers.get(&job).map(String::as_str).unwrap_or("?")
        );
    }
    println!("\nmakespan: {:.1} ms", makespan.as_secs_f64() * 1e3);
    println!("results digest: {digest:016x}");
    Ok(())
}

fn cmd_status(cli: &Cli) -> Result<(), String> {
    let addr = serve_addr(&cli.args);
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    if let Some(id) = cli.args.iter().find_map(|a| a.parse::<u64>().ok()) {
        let o = client.status(id).map_err(|e| e.to_string())?;
        println!(
            "job {} [{}] {}{}{}",
            o.job,
            o.key,
            o.state,
            if o.cached { " (cache hit)" } else { "" },
            o.error.map(|e| format!(": {e}")).unwrap_or_default()
        );
        if !o.attempts.is_empty() {
            println!("attempts:");
            for a in &o.attempts {
                println!("  {}", a.render());
            }
        }
        return Ok(());
    }
    let jobs = client.list().map_err(|e| e.to_string())?;
    let (cache, queued, workers) = client.stats().map_err(|e| e.to_string())?;
    let ms = |v: Option<f64>| v.map(|x| format!("{x:.3}")).unwrap_or_else(|| "–".into());
    println!("| job | key | benchmark | size | device | state | cached | worker | predicted (ms) | actual (ms) |");
    println!("|---:|---|---|---|---|---|---|---|---:|---:|");
    for j in jobs {
        println!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            j.job,
            j.key,
            j.benchmark,
            j.size,
            j.device,
            j.state,
            j.cached,
            j.worker.as_deref().unwrap_or("–"),
            ms(j.predicted_ms),
            ms(j.actual_ms)
        );
    }
    println!(
        "\ncache: {} hits, {} misses, {} evictions, {}/{} entries; queued {}; workers {}",
        cache.hits, cache.misses, cache.evictions, cache.entries, cache.capacity, queued, workers
    );
    Ok(())
}

fn cmd_shutdown(cli: &Cli) -> Result<(), String> {
    let addr = serve_addr(&cli.args);
    let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("server at {addr} stopping");
    Ok(())
}

/// `eod cachesweep <benchmark> <size>` — one workload's steady-state cache
/// behaviour across the whole Table 1 catalog, evaluated in parallel by
/// the stack-distance cache engine; `--trace-out` captures one devsim-track
/// span per device evaluation.
fn cmd_cachesweep(cli: &Cli) -> Result<(), String> {
    let benchmark = cli
        .args
        .first()
        .ok_or("usage: eod cachesweep <benchmark> <size>")?;
    let size = match cli.args.get(1) {
        Some(s) => ProblemSize::parse(s).ok_or_else(|| format!("unknown size {s}"))?,
        None => ProblemSize::Medium,
    };
    let sink = TraceSink::new();
    let engine = eod_devsim::stackdist::CacheEngine::StackDistance;
    print!(
        "{}",
        eod_harness::cachesim::sweep_report(benchmark, size, cli.config.seed, engine, Some(&sink))?
    );
    if let Some(path) = &cli.trace_out {
        write_trace(&sink, path)?;
    }
    Ok(())
}

/// Parse a human byte size: plain bytes, or a `KiB`/`MiB`/`GiB`/`KB`/`MB`/
/// `GB` suffix (the decimal forms are treated as their binary neighbours,
/// as cache capacities always are).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = if let Some(p) = s.strip_suffix("GiB").or_else(|| s.strip_suffix("GB")) {
        (p, 1u64 << 30)
    } else if let Some(p) = s.strip_suffix("MiB").or_else(|| s.strip_suffix("MB")) {
        (p, 1u64 << 20)
    } else if let Some(p) = s.strip_suffix("KiB").or_else(|| s.strip_suffix("KB")) {
        (p, 1u64 << 10)
    } else if let Some(p) = s.strip_suffix("B") {
        (p, 1)
    } else {
        (s, 1)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad byte size {s:?}"))?;
    Ok((v * mult as f64).round() as u64)
}

fn cmd_sweep(cli: &Cli) -> Result<(), String> {
    use eod_harness::sweep::{run_sweep, SweepConfig};
    let family_label =
        flag_value(&cli.args, "--family").ok_or("usage: eod sweep --family stream|gups|latency|roofline [--footprint 8KiB..64MiB] [--points 24] [--log|--linear] [--device D] [--stride S] [--fpe F] [--check-cliffs]")?;
    let family = eod_synth::SynthFamily::parse(&family_label)
        .ok_or_else(|| format!("unknown family {family_label:?} (stream gups latency roofline)"))?;
    let mut config = SweepConfig::new(family);
    config.runner = cli.config.clone();
    if let Some(range) = flag_value(&cli.args, "--footprint") {
        let (lo, hi) = range
            .split_once("..")
            .ok_or_else(|| format!("--footprint wants MIN..MAX, got {range:?}"))?;
        config.min_bytes = parse_bytes(lo)?;
        config.max_bytes = parse_bytes(hi)?;
        if config.min_bytes == 0 || config.max_bytes < config.min_bytes {
            return Err(format!("bad footprint range {range:?}"));
        }
    }
    if let Some(points) = parse_flag::<usize>(&cli.args, "--points")? {
        if points < 2 {
            return Err("--points must be at least 2".into());
        }
        config.points = points;
    }
    if has_flag(&cli.args, "--linear") {
        config.log_scale = false;
    }
    // `--log` is the default; accept it anyway for symmetry.
    if has_flag(&cli.args, "--log") {
        config.log_scale = true;
    }
    if let Some(device) = flag_value(&cli.args, "--device") {
        config.device = device;
    }
    if let Some(stride) = parse_flag::<u64>(&cli.args, "--stride")? {
        config.stride = stride.max(1);
    }
    if let Some(fpe) = parse_flag::<u32>(&cli.args, "--fpe")? {
        config.flops_per_elem = fpe.max(1);
    }
    let result = run_sweep(&config).map_err(|e| e.to_string())?;
    print!("{}", result.render_ascii());
    println!("csv digest: {:016x}", result.digest());
    if let Some(dir) = &cli.out_dir {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("sweep_{}.csv", config.family));
        std::fs::write(&path, result.csv()).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    match result.check_cliffs() {
        Ok(()) => println!("cache cliffs: within one grid point of every modeled capacity"),
        Err(e) if has_flag(&cli.args, "--check-cliffs") => {
            return Err(format!("cliff check failed: {e}"))
        }
        Err(e) => println!("cache cliffs: {e}"),
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let cli = parse_cli(std::env::args().skip(1).collect())?;
    let runner = Runner::new(cli.config.clone());
    match cli.command.as_str() {
        "list" => {
            println!("benchmarks (the paper's eleven):");
            for b in registry::all_benchmarks() {
                let sizes: Vec<_> = b.supported_sizes().iter().map(|s| s.label()).collect();
                println!(
                    "  {:<8} {:<28} sizes: {}",
                    b.name(),
                    b.dwarf().name(),
                    sizes.join(",")
                );
            }
            println!("extensions:");
            for b in registry::extension_benchmarks() {
                let sizes: Vec<_> = b.supported_sizes().iter().map(|s| s.label()).collect();
                println!(
                    "  {:<8} {:<28} sizes: {}",
                    b.name(),
                    b.dwarf().name(),
                    sizes.join(",")
                );
            }
            println!("synthetic families (continuously parameterized; name = synth:<family>:fp=<bytes>:stride=<elems>:fpe=<n>):");
            for (name, desc) in registry::synthetic_families() {
                println!("  {name:<8} {desc}");
            }
            println!("\nplatforms:");
            for (p, platform) in Platform::all().iter().enumerate() {
                println!("  -p {p}: {}", platform.name());
                for (d, dev) in platform.devices().iter().enumerate() {
                    println!("    -d {d}: {}", dev.name());
                }
            }
        }
        "table1" => print!("{}", tables::table1()),
        "table2" => print!("{}", tables::table2()),
        "table3" => print!("{}", tables::table3()),
        "sizing" => print!("{}", tables::sizing_report()),
        "cachesim" => print!("{}", eod_harness::cachesim::report(cli.config.seed)?),
        "cachesweep" => cmd_cachesweep(&cli)?,
        "sweep" => cmd_sweep(&cli)?,
        "power" => print!("{}", tables::power_report()),
        "fig1" => show_figure(&figures::fig1(&runner)?, &cli.out_dir)?,
        "fig2a" | "fig2b" | "fig2c" | "fig2d" | "fig2e" => {
            let sub = cli.command.chars().last().expect("suffix");
            show_figure(&figures::fig2(&runner, sub)?, &cli.out_dir)?;
        }
        "fig3a" | "fig3b" => {
            let sub = cli.command.chars().last().expect("suffix");
            show_figure(&figures::fig3(&runner, sub)?, &cli.out_dir)?;
        }
        "fig4" => show_figure(&figures::fig4(&runner)?, &cli.out_dir)?,
        "fig5" => {
            let fig = figures::fig5(&runner)?;
            println!("{}", fig5_energy_render(&fig));
            write_figure(&fig, &cli.out_dir)?;
        }
        "figures" => {
            for fig in figures::all_figures(cli.config.clone())? {
                if fig.id == "fig5" {
                    println!("{}", fig5_energy_render(&fig));
                } else {
                    println!("{}", fig.render_ascii());
                }
                write_figure(&fig, &cli.out_dir)?;
            }
        }
        "run" => cmd_run(&cli)?,
        "cov" => cmd_cov(&cli)?,
        "aiwc" => cmd_aiwc(&cli)?,
        "ablation" => cmd_ablation()?,
        "ideal" => cmd_ideal(&cli)?,
        "autotune" => cmd_autotune()?,
        "bench-engine" => cmd_bench_engine(&cli)?,
        "schedule" => cmd_schedule(&cli)?,
        "serve" => cmd_serve(&cli)?,
        "bench-serve" => cmd_bench_serve(&cli)?,
        "fleet" => cmd_fleet(&cli)?,
        "worker" => cmd_worker(&cli)?,
        "submit" => cmd_submit(&cli)?,
        "predict" => cmd_predict(&cli)?,
        "schedbench" => cmd_schedbench(&cli)?,
        "status" => cmd_status(&cli)?,
        "shutdown" => cmd_shutdown(&cli)?,
        _ => {
            println!(
                "usage: eod <command> [--paper|--quick] [--samples N] [--seed S] [--loop-ms M] [--out DIR] [--trace-out FILE]\n\
                 commands: list table1 table2 table3 sizing power\n\
                 \u{20}         fig1 fig2a..fig2e fig3a fig3b fig4 fig5 figures\n\
                 \u{20}         run <benchmark> <size> [-p P -d D [-t T]] [--trace-out trace.json]\n\
                 \u{20}         cov cachesim cachesweep <benchmark> <size> aiwc ideal ablation autotune schedule\n\
                 \u{20}         sweep --family stream|gups|latency|roofline [--footprint 8KiB..64MiB] [--points 24]\n\
                 \u{20}               [--log|--linear] [--device D] [--stride S] [--fpe F] [--check-cliffs]\n\
                 \u{20}         bench-engine [--full] [--json FILE] [--baseline FILE]\n\
                 \u{20}         serve [--addr A --workers N --queue-cap N --cache-cap N --metrics-addr M --transport reactor|blocking]\n\
                 \u{20}               [--shards N (0=auto) --handler-threads N]\n\
                 \u{20}         bench-serve [--connections N --pipeline D --requests-per-conn R --smoke --json FILE]\n\
                 \u{20}               [--shards N --load-threads N --target-rate R/s]\n\
                 \u{20}         fleet [--addr A --fleet-addr F --queue-cap N --cache-cap N --metrics-addr M --placement P --transport T]\n\
                 \u{20}               [--shards N --handler-threads N]\n\
                 \u{20}         worker [--connect F --slots N --devices D1,D2 --name W]\n\
                 \u{20}         submit <benchmark> [size] [--device D --high --timeout-ms T --no-wait]\n\
                 \u{20}         submit --fig <figN>   status [job]   shutdown   [--addr HOST:PORT]\n\
                 \u{20}         predict <benchmark> [size] [--device D --addr HOST:PORT]\n\
                 \u{20}         schedbench [--placement round-robin|greedy|predictive] [--digest-only]"
            );
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn samples_must_be_a_positive_number() {
        for bad in [
            &["run", "crc", "tiny", "--samples", "0"][..],
            &["--samples", "ten"],
            &["fig1", "--samples"],
        ] {
            let err = parse(bad).err().unwrap_or_else(|| panic!("{bad:?} parsed"));
            assert!(err.contains("--samples"), "{bad:?}: {err}");
        }
        let cli = parse(&["run", "crc", "tiny", "--samples", "3"]).unwrap();
        assert_eq!((cli.command.as_str(), cli.config.samples), ("run", 3));
        assert_eq!(cli.args, ["crc", "tiny"]);
    }

    /// Each command must refuse `huge` before doing any work (no server
    /// listens on the `--addr` given).
    fn assert_rejects_unknown_size(command: fn(&Cli) -> Result<(), String>, args: &[&str]) {
        let err = command(&parse(args).unwrap()).unwrap_err();
        assert_eq!(
            err, r#"unknown size "huge" (valid: tiny, small, medium, large)"#,
            "{args:?}"
        );
    }

    #[test]
    fn run_rejects_an_unknown_size() {
        assert_rejects_unknown_size(cmd_run, &["run", "srad", "huge"]);
        assert_rejects_unknown_size(
            cmd_run,
            &["run", "srad", "huge", "-p", "1", "-d", "0", "-t", "0"],
        );
    }

    #[test]
    fn submit_rejects_an_unknown_size() {
        assert_rejects_unknown_size(
            cmd_submit,
            &["submit", "srad", "huge", "--addr", "127.0.0.1:1"],
        );
    }

    #[test]
    fn predict_rejects_an_unknown_size() {
        assert_rejects_unknown_size(cmd_predict, &["predict", "srad", "huge"]);
    }

    #[test]
    fn a_missing_size_defaults_to_tiny() {
        assert_eq!(parse_size(None), Ok(ProblemSize::Tiny));
        assert_eq!(
            parse_size(Some(&"large".to_string())),
            Ok(ProblemSize::Large)
        );
    }
}

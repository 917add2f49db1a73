//! `eod-benchmark` — this repository's end-to-end benchmark.
//!
//! ```text
//! eod-benchmark run    [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--json FILE]
//! eod-benchmark repeat --runs N [--seed S] [--seconds N] [--smoke] [--json FILE]
//! ```
//!
//! `run --workload W` measures one workload in this process and prints, as
//! the last line of standard output, the result object the PR driver
//! reads. Without `--workload`, `run` measures all five, each in a fresh
//! child process (so process-wide caches, the job board and `VmHWM` start
//! cold per workload), and prints the derived plane-overhead rows.
//! See `benchmark/README.md`.

mod jobs;
mod plane;
mod probes;
mod report;
mod stats;
mod suite;
mod sys;
mod trace;
mod workload;
mod workloads;

use report::WorkloadReport;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workload::{end_to_end, probe_setup_s, Ctx, Workload, READY_LINE};
use workloads::figures::{FiguresDirect, FiguresServe};
use workloads::fleet_tiny::FleetTiny;
use workloads::native_kernels::NativeKernels;
use workloads::serve_cached::ServeCached;

/// The five workloads, in report order (why each exists: its module's
/// documentation, `BENCHMARK.json` and the README).
pub const WORKLOADS: [&str; 5] = [
    "figures_direct",
    "figures_serve",
    "native_kernels",
    "serve_cached",
    "fleet_tiny",
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    json: Option<PathBuf>,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        command: argv.next().ok_or("missing command: run | repeat")?,
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        smoke: false,
        json: None,
        runs: 5,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--json" => args.json = Some(PathBuf::from(value("a file")?)),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` as the driver passes it; bare `--trace` means 1.
            "--trace" => {
                args.traced = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of: {}",
                WORKLOADS.join(" ")
            ));
        }
    }
    Ok(args)
}

impl Args {
    fn ctx(&self) -> Ctx {
        Ctx {
            seed: self.seed,
            seconds: self.seconds,
            t: sys::parallelism(),
            smoke: self.smoke,
        }
    }
}

/// Measure workload `W` in this process: untraced for the end-to-end
/// metrics, or traced for the trace file, the layer shares and the
/// per-layer ledger. End-to-end metrics are never taken from a traced run.
fn measure<W: Workload>(name: &str, ctx: &Ctx, traced: bool) -> WorkloadReport {
    let tracer = traced.then(Tracer::default);
    let env = W::setup(ctx);
    let outcome = W::measure(ctx, env, tracer.as_ref());
    let pass_peak_rss_mib = sys::peak_rss_mib();
    let correct = outcome.failed == 0 && outcome.failures.is_empty();
    let mut report = WorkloadReport {
        workload: name.to_string(),
        host: sys::Host::probe(),
        seed: ctx.seed,
        t: ctx.t,
        traced,
        smoke: ctx.smoke,
        config: outcome.config.clone(),
        correct,
        ops_attempted: outcome.attempted,
        ops_failed: outcome.failed,
        failures: outcome.failures.clone(),
        end_to_end: Vec::new(),
        diagnostics: outcome.diagnostics.clone(),
        per_layer: Vec::new(),
        layer_share: Vec::new(),
    };
    match &tracer {
        None => {
            report.end_to_end = end_to_end(&outcome, &probe_setup_s(name, ctx), pass_peak_rss_mib)
        }
        Some(tracer) => {
            let path = sys::out_dir().join(format!("trace-{name}.json"));
            std::fs::write(
                &path,
                tracer.render_chrome(&format!("eod-benchmark {name}")),
            )
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            eprintln!("trace: {} spans -> {}", tracer.span_count(), path.display());
            report.layer_share = suite::layer_shares(tracer);
            report.per_layer = probes::ledger(ctx, pass_peak_rss_mib);
        }
    }
    report
}

/// What to do with a workload once its name is resolved to a type.
enum Action {
    /// Measure it (untraced or traced) and report.
    Measure { traced: bool },
    /// Be a set-up probe child: set up, say so, tear down.
    SetupProbe,
}

fn act<W: Workload>(name: &str, ctx: &Ctx, action: Action) -> Option<WorkloadReport> {
    match action {
        Action::Measure { traced } => Some(measure::<W>(name, ctx, traced)),
        Action::SetupProbe => {
            let env = W::setup(ctx);
            println!("{READY_LINE}");
            W::discard(env);
            None
        }
    }
}

fn act_named(name: &str, ctx: &Ctx, action: Action) -> Option<WorkloadReport> {
    match name {
        "figures_direct" => act::<FiguresDirect>(name, ctx, action),
        "figures_serve" => act::<FiguresServe>(name, ctx, action),
        "native_kernels" => act::<NativeKernels>(name, ctx, action),
        "serve_cached" => act::<ServeCached>(name, ctx, action),
        "fleet_tiny" => act::<FleetTiny>(name, ctx, action),
        other => unreachable!("workload names are validated at parse time: {other}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eod-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = args.ctx();
    let ok = match (args.command.as_str(), args.workload.as_deref()) {
        ("run", Some(name)) => {
            let traced = args.traced;
            let report = act_named(name, &ctx, Action::Measure { traced })
                .expect("measuring yields a report");
            report.print_table();
            suite::write_report(&report, args.json.as_deref());
            println!("{}", report.driver_line());
            report.correct
        }
        ("run", None) => suite::run_all(&args),
        ("repeat", None) => suite::repeat(&args),
        ("setup-probe", Some(name)) => act_named(name, &ctx, Action::SetupProbe).is_none(),
        (other, _) => {
            eprintln!("eod-benchmark: unknown command {other:?} (run | repeat)");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! One recorded execution per (benchmark, size, seed), priced per device:
//! the property the log rests on — every replay iteration enqueues the
//! same command list — and the edges of the store it lives in.
//!
//! Each test uses seeds no other test in the workspace does, so the first
//! group it runs is the one that records.

use eod_clrt::prelude::*;
use eod_core::benchmark::{Benchmark, Workload};
use eod_core::dwarf::Dwarf;
use eod_core::recorded::{record, RunLog};
use eod_core::sizes::ProblemSize;
use eod_dwarfs::registry;
use eod_harness::{GroupResult, Runner, RunnerConfig, RunnerError};
use eod_scibench::region::Region;
use eod_synth::{SynthBenchmark, SynthFamily, SynthSpec};
use eod_telemetry::{ArgValue, TraceSink, Track};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The paper's eleven, the extension set, and one tiny point per
/// synthetic family.
fn every_benchmark() -> Vec<Box<dyn Benchmark>> {
    let synth = SynthFamily::all().map(|family| {
        Box::new(SynthBenchmark::new(SynthSpec::new(family, 16 << 10))) as Box<dyn Benchmark>
    });
    registry::all_benchmarks()
        .into_iter()
        .chain(registry::extension_benchmarks())
        .chain(synth)
        .collect()
}

fn device(name: &str) -> Device {
    Platform::simulated().device_by_name(name).unwrap()
}

/// One traced group: its result, the `log` argument of its group span
/// (`hit`, `recorded` or `live`), and its host-track span names.
struct Traced {
    result: std::result::Result<GroupResult, RunnerError>,
    log: String,
    spans: Vec<String>,
}

fn traced_group(config: &RunnerConfig, benchmark: &dyn Benchmark, device: Device) -> Traced {
    traced_group_in(Runner::new(config.clone()), benchmark, device)
}

fn traced_group_in(runner: Runner, benchmark: &dyn Benchmark, device: Device) -> Traced {
    let sink = Arc::new(TraceSink::new());
    let result =
        runner
            .with_trace(Arc::clone(&sink))
            .run_group(benchmark, ProblemSize::Tiny, device);
    let spans = sink.drain();
    let log = spans
        .iter()
        .find(|s| s.name.starts_with("group "))
        .expect("every group records its span, failed ones too")
        .args
        .iter()
        .find_map(|(k, v)| match v {
            ArgValue::Str(v) if k == "log" => Some(v.clone()),
            _ => None,
        })
        .expect("the group span says where its commands came from");
    let spans = spans
        .into_iter()
        .filter(|s| s.track == Track::Host)
        .map(|s| s.name)
        .collect();
    Traced { result, log, spans }
}

/// Everything modeled in a result: what must not depend on whether the
/// group executed or was priced from the log.
fn assert_same_measurement(a: &GroupResult, b: &GroupResult, what: &str) {
    assert_eq!(a.kernel_ms, b.kernel_ms, "{what}: kernel_ms");
    assert_eq!(a.energy_j, b.energy_j, "{what}: energy_j");
    assert_eq!(a.counters, b.counters, "{what}: counters");
    assert_eq!(
        a.transfer_ms.to_bits(),
        b.transfer_ms.to_bits(),
        "{what}: transfer_ms"
    );
    assert_eq!(
        a.launches_per_iteration, b.launches_per_iteration,
        "{what}: launches"
    );
    assert_eq!(a.footprint_bytes, b.footprint_bytes, "{what}: footprint");
    assert_eq!(a.verified, b.verified, "{what}: verified");
    for &region in Region::all() {
        if region != Region::HostSetup {
            assert_eq!(
                a.regions.samples(region),
                b.regions.samples(region),
                "{what}: region {}",
                region.label()
            );
        }
    }
    assert_eq!(a.regions.count(Region::HostSetup), 1, "{what}");
    assert_eq!(b.regions.count(Region::HostSetup), 1, "{what}");
}

#[test]
fn replay_iterations_enqueue_identical_command_lists() {
    for bench in every_benchmark() {
        let ctx = Context::recording(device("GTX 1080"));
        let queue = CommandQueue::new(&ctx).with_profiling();
        let mut workload = bench.workload(ProblemSize::Tiny, 0x5EED_0001);
        workload.setup(&ctx, &queue).unwrap();
        workload.run_iteration(&queue).unwrap();
        queue.set_replay(true);
        ctx.take_recorded();
        let mut lists = Vec::new();
        for _ in 2..=5 {
            let out = workload.run_iteration(&queue).unwrap();
            let commands = ctx.take_recorded();
            assert!(!commands.is_empty(), "{}", bench.name());
            // What the iteration returned is what it enqueued, in order.
            assert_eq!(out.events.len(), commands.len(), "{}", bench.name());
            for (event, command) in out.events.iter().zip(&commands) {
                match command {
                    Command::Kernel { name, profile } => {
                        assert_eq!((&event.name, event.kind), (name, CommandKind::Kernel));
                        assert_eq!(event.profile.as_ref(), Some(profile));
                    }
                    Command::Write { .. } => assert_eq!(event.kind, CommandKind::WriteBuffer),
                    Command::Read { .. } => assert_eq!(event.kind, CommandKind::ReadBuffer),
                    other => panic!("{}: {other:?} inside an iteration", bench.name()),
                }
            }
            lists.push(commands);
        }
        for later in &lists[1..] {
            assert_eq!(&lists[0], later, "{}", bench.name());
        }
    }
}

#[test]
fn a_priced_group_equals_the_group_that_recorded_it() {
    let mut config = RunnerConfig::smoke();
    for (d, name) in ["i7-6700K", "GTX 1080", "Xeon Phi 7210"].iter().enumerate() {
        // A seed per device, so each device records its own run.
        config.seed = 0x5EED_0100 + d as u64;
        for bench in every_benchmark() {
            let what = format!("{} tiny on {name}", bench.name());
            let recorded = traced_group(&config, bench.as_ref(), device(name));
            assert_eq!(recorded.log, "recorded", "{what}");
            let priced = traced_group(&config, bench.as_ref(), device(name));
            assert_eq!(priced.log, "hit", "{what}");
            // The leader prices its run exactly as a hit does, after one
            // `record` span.
            let mut leader = recorded.spans.clone();
            let at = leader.iter().position(|s| s == "record");
            leader.remove(at.unwrap_or_else(|| panic!("{what}: no record span")));
            assert_eq!(leader, priced.spans, "{what}");
            for phase in ["setup", "first_iteration", "verify", "sample 0"] {
                assert!(priced.spans.iter().any(|s| s == phase), "{what}: {phase}");
            }
            let (recorded, priced) = (recorded.result.unwrap(), priced.result.unwrap());
            assert!(priced.verified, "{what}");
            assert_same_measurement(&recorded, &priced, &what);
            // A hit reports the set-up time the recording measured.
            assert_eq!(
                recorded.setup_ms.to_bits(),
                priced.setup_ms.to_bits(),
                "{what}"
            );
            let region = recorded.regions.samples(Region::HostSetup)[0].duration;
            assert_eq!(
                (region.as_secs_f64() * 1e3).to_bits(),
                recorded.setup_ms.to_bits(),
                "{what}: setup_ms and the HostSetup region are one reading"
            );
        }
    }
}

/// Delegates to a registry benchmark and counts the workloads it builds.
struct Counting {
    inner: Box<dyn Benchmark>,
    built: AtomicUsize,
}

impl Counting {
    fn new(name: &str) -> Self {
        Self {
            inner: registry::benchmark_by_name(name).unwrap(),
            built: AtomicUsize::new(0),
        }
    }

    fn built(&self) -> usize {
        self.built.load(Ordering::SeqCst)
    }
}

impl Benchmark for Counting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn dwarf(&self) -> Dwarf {
        self.inner.dwarf()
    }
    fn workload(&self, size: ProblemSize, seed: u64) -> Box<dyn Workload> {
        self.built.fetch_add(1, Ordering::SeqCst);
        self.inner.workload(size, seed)
    }
}

#[test]
fn concurrent_requesters_of_one_key_set_the_workload_up_once() {
    let bench = Counting::new("srad");
    let mut config = RunnerConfig::smoke();
    config.seed = 0x5EED_0200;
    let devices = [
        "i7-6700K",
        "GTX 1080",
        "Xeon Phi 7210",
        "K20m",
        "R9 290X",
        "GTX 1080",
    ];
    let start = Barrier::new(devices.len());
    let concurrent: Vec<GroupResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = devices
            .iter()
            .map(|name| {
                let (bench, config, start) = (&bench, &config, &start);
                scope.spawn(move || {
                    start.wait();
                    Runner::new(config.clone())
                        .run_group(bench, ProblemSize::Tiny, device(name))
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(bench.built(), 1, "one recording served every requester");
    // Whoever led, each device's result is what that device gets alone.
    for (name, together) in devices.iter().zip(&concurrent) {
        let alone = Runner::new(config.clone())
            .run_group(&bench, ProblemSize::Tiny, device(name))
            .unwrap();
        assert_same_measurement(together, &alone, name);
    }
    assert_eq!(bench.built(), 1);
}

#[test]
fn a_timed_out_recording_stores_nothing() {
    let bench = Counting::new("crc");
    let mut config = RunnerConfig::smoke();
    config.seed = 0x5EED_0300;
    config.timeout = Some(Duration::from_nanos(1));
    let timed_out = traced_group(&config, &bench, device("GTX 1080"));
    assert_eq!(
        timed_out.result.unwrap_err(),
        RunnerError::TimedOut {
            limit: Duration::from_nanos(1)
        }
    );
    assert_eq!(timed_out.log, "recorded", "the first requester leads");
    // Nothing was stored: the next request leads again, and succeeds.
    config.timeout = None;
    let next = traced_group(&config, &bench, device("GTX 1080"));
    assert_eq!(next.log, "recorded");
    assert!(next.result.unwrap().verified);
    assert_eq!(bench.built(), 2);
    assert_eq!(traced_group(&config, &bench, device("K20m")).log, "hit");
    assert_eq!(bench.built(), 2);
}

#[test]
fn a_group_priced_from_another_device_equals_one_recorded_on_it() {
    let bench = Counting::new("srad");
    let mut config = RunnerConfig::smoke();
    config.seed = 0x5EED_0400;
    // Recorded on the i7, priced on the Xeon Phi.
    assert_eq!(
        traced_group(&config, &bench, device("i7-6700K")).log,
        "recorded"
    );
    let priced = traced_group(&config, &bench, device("Xeon Phi 7210"));
    assert_eq!(priced.log, "hit");
    // The reference: the same group recorded on the Xeon Phi itself, which
    // a fresh run log makes it do.
    let fresh: &'static RunLog = Box::leak(Box::new(RunLog::with_budget(1 << 20)));
    let own = traced_group_in(
        Runner::new(config.clone()).with_run_log(fresh),
        &bench,
        device("Xeon Phi 7210"),
    );
    assert_eq!(own.log, "recorded");
    assert_eq!(bench.built(), 2, "executed once per log");
    assert_same_measurement(
        &priced.result.unwrap(),
        &own.result.unwrap(),
        "srad tiny on Xeon Phi",
    );
}

#[test]
fn a_model_only_tape_equals_a_verified_tape() {
    // What gem medium/large and the predictor rest on: a run recorded
    // without executing its first iteration asks the same of a device as
    // one that executed and verified it.
    let registry_small = registry::all_benchmarks()
        .into_iter()
        .map(|bench| (bench, ProblemSize::Small));
    let cases = every_benchmark()
        .into_iter()
        .map(|bench| (bench, ProblemSize::Tiny))
        .chain(registry_small);
    for (bench, size) in cases {
        let tape = |verified: bool| {
            let workload = bench.workload(size, 0x5EED_0800);
            record(workload, &device("GTX 1080"), verified, None).unwrap()
        };
        let (verified, model_only) = (tape(true), tape(false));
        let what = format!("{} {}", bench.name(), size.label());
        assert!(verified.verified && !model_only.verified, "{what}");
        assert!(model_only.verify.is_empty(), "{what}");
        assert_eq!(verified.setup, model_only.setup, "{what}: setup");
        assert_eq!(verified.first, model_only.first, "{what}: first");
        assert_eq!(verified.replay, model_only.replay, "{what}: replay");
    }
}

#[test]
fn the_per_item_reference_enqueues_the_same_commands() {
    // What a recorded run holds does not depend on which body a kernel
    // executed, which is why the run key does not name one.
    for bench in every_benchmark() {
        let tape = |per_item: bool| -> Vec<Command> {
            let ctx = Context::recording(device("GTX 1080"));
            let queue = if per_item {
                CommandQueue::per_item_reference(&ctx)
            } else {
                CommandQueue::new(&ctx)
            };
            let mut workload = bench.workload(ProblemSize::Tiny, 0x5EED_0700);
            workload.setup(&ctx, &queue).unwrap();
            workload.run_iteration(&queue).unwrap();
            workload.verify(&queue).unwrap();
            queue.set_replay(true);
            workload.run_iteration(&queue).unwrap();
            ctx.finish_recording()
        };
        assert_eq!(tape(true), tape(false), "{}", bench.name());
    }
}

#[test]
fn native_groups_are_never_logged() {
    let bench = Counting::new("kmeans");
    let mut config = RunnerConfig::smoke();
    config.seed = 0x5EED_0500;
    for _ in 0..2 {
        let group = traced_group(&config, &bench, Device::native());
        assert_eq!(group.log, "live");
        assert!(group.result.unwrap().verified);
    }
    assert_eq!(bench.built(), 2);
}

#[test]
fn model_only_requests_are_served_by_a_verified_run() {
    let bench = Counting::new("fft");
    let mut config = RunnerConfig::smoke();
    config.seed = 0x5EED_0600;
    // Model-only first: recorded without executing or verifying.
    config.real_execution = false;
    let model_only = traced_group(&config, &bench, device("K40m"));
    assert_eq!(model_only.log, "recorded");
    assert!(!model_only.spans.iter().any(|s| s == "verify"));
    let model_only = model_only.result.unwrap();
    assert!(!model_only.verified);
    // A verified request is not answered by it…
    config.real_execution = true;
    let verified = traced_group(&config, &bench, device("K40m"));
    assert_eq!(verified.log, "recorded");
    assert!(verified.result.unwrap().verified);
    assert_eq!(bench.built(), 2);
    // …but model-only requests are answered by either, identically.
    config.real_execution = false;
    let again = traced_group(&config, &bench, device("K40m"));
    assert_eq!(again.log, "hit");
    let again = again.result.unwrap();
    assert!(!again.verified);
    assert_same_measurement(&model_only, &again, "fft tiny model-only");
    assert_eq!(bench.built(), 2);
}

//! The job lists the workloads run, and the correctness gates over their
//! results: byte-equality of assembled figure CSVs against `results/`,
//! and FNV digests of simulated statistics against `benchmark/expected/`.

use crate::stats::{shuffle, Fnv1a};
use crate::sys::repo_root;
use eod_core::sizes::ProblemSize;
use eod_core::spec::{ExecConfig, JobSpec, NATIVE_DEVICE};
use eod_harness::figures::{figure_plan, group_spec, FigurePlan};
use eod_harness::report::{samples_csv, summary_csv};
use eod_harness::{GroupResult, RunnerConfig};
use eod_scibench::counters::HwCounter;
use std::fs;
use std::path::Path;
use std::time::Duration;

/// Figures whose plans make up the regular part of `B_sim`.
const FIGURES: [&str; 5] = ["fig1", "fig2a", "fig3a", "fig3b", "fig4"];

/// Devices of the irregular slice: csr's gather pattern is where launch
/// pricing (stack-distance counters per replayed launch) dominates wall
/// time, which the regular figures alone would leave outside the budget.
const SLICE_DEVICES: [&str; 6] = [
    "Xeon E5-2697 v2",
    "i7-6700K",
    "GTX 1080",
    "K20m",
    "R9 290X",
    "RX 480",
];

/// Benchmarks and devices of the `fleet_tiny` job stream.
pub const FLEET_BENCHMARKS: [&str; 5] = ["crc", "srad", "kmeans", "csr", "nw"];
/// One device per accelerator class the catalog distinguishes.
pub const FLEET_DEVICES: [&str; 5] = ["Xeon E5-2697 v2", "i7-6700K", "GTX 1080", "K20m", "R9 290X"];

/// The configuration the committed `results/*.csv` were generated with.
pub fn figure_config() -> RunnerConfig {
    RunnerConfig {
        samples: 30,
        ..RunnerConfig::quick()
    }
}

fn slice_config() -> RunnerConfig {
    RunnerConfig {
        samples: 3,
        max_iters_per_sample: 5,
        ..RunnerConfig::quick()
    }
}

/// `B_sim`: the figure plans plus the irregular slice, as one canonical
/// job list with a seeded execution order.
pub struct SimBatch {
    plans: Vec<FigurePlan>,
    /// Canonical order: every plan's specs in plan order, then the slice.
    pub specs: Vec<JobSpec>,
    /// Index of the first slice job in `specs`.
    slice_start: usize,
    /// Execution order: indices into `specs`, shuffled by the seed.
    pub order: Vec<usize>,
}

impl SimBatch {
    /// Build the batch for `callers` concurrent callers. `smoke` keeps the
    /// code path and shrinks the list to fig1 plus the two cheapest slice
    /// jobs.
    pub fn new(seed: u64, callers: usize, smoke: bool) -> Self {
        let figures: &[&str] = if smoke { &FIGURES[..1] } else { &FIGURES };
        let plans: Vec<FigurePlan> = figures
            .iter()
            .map(|id| figure_plan(id, &figure_config()).expect("known figure id"))
            .collect();
        let mut specs: Vec<JobSpec> = plans.iter().flat_map(|p| p.specs().cloned()).collect();
        let slice_start = specs.len();
        let (sizes, devices): (&[ProblemSize], &[&str]) = if smoke {
            (&[ProblemSize::Medium], &SLICE_DEVICES[..2])
        } else {
            (&[ProblemSize::Medium, ProblemSize::Large], &SLICE_DEVICES)
        };
        for &size in sizes {
            for device in devices {
                specs.push(group_spec("csr", size, device, &slice_config()));
            }
        }
        let mut order: Vec<usize> = (0..specs.len()).collect();
        shuffle(&mut order, seed);
        // The largest-footprint jobs (nw large: 134 MB of device buffers
        // each) lead the order, one per caller, so the peak-memory overlap
        // happens in every run; left to the shuffle, `peak_rss_mib` is a
        // coin flip on whether two of them ever run at the same time.
        let mut lead = Vec::with_capacity(order.len());
        order.retain(|&i| {
            let leads = lead.len() < callers
                && specs[i].benchmark == "nw"
                && specs[i].size == ProblemSize::Large;
            if leads {
                lead.push(i);
            }
            !leads
        });
        lead.extend(order);
        let order = lead;
        SimBatch {
            plans,
            specs,
            slice_start,
            order,
        }
    }

    /// One-line description for the JSON report.
    pub fn describe(&self) -> String {
        format!(
            "{} figure jobs ({}; quick, samples 30) + {} irregular-slice jobs (csr; samples 3, max_iters 5)",
            self.slice_start,
            self.plans
                .iter()
                .map(|p| p.id.as_str())
                .collect::<Vec<_>>()
                .join(" "),
            self.specs.len() - self.slice_start
        )
    }

    /// The correctness gate: `results` holds one result per spec in
    /// canonical order. Returns every mismatch found (empty = pass).
    pub fn check(&self, results: Vec<GroupResult>) -> Vec<String> {
        assert_eq!(results.len(), self.specs.len());
        let mut failures = Vec::new();
        let expected = ExpectedDigests::load("irregular_slice");
        for (spec, result) in self.specs.iter().zip(&results).skip(self.slice_start) {
            failures.extend(expected.check(spec, result));
        }
        let mut remaining = results.into_iter();
        let results_dir = repo_root().join("results");
        for plan in &self.plans {
            let groups: Vec<GroupResult> = remaining.by_ref().take(plan.job_count()).collect();
            let figure = match plan.assemble(groups) {
                Ok(f) => f,
                Err(e) => {
                    failures.push(e);
                    continue;
                }
            };
            let groups = figure.all_groups();
            for (kind, got) in [
                ("summary", summary_csv(&groups)),
                ("samples", samples_csv(&groups)),
            ] {
                let path = results_dir.join(format!("{}_{kind}.csv", plan.id));
                match fs::read_to_string(&path) {
                    Ok(want) if want == got => {}
                    Ok(_) => failures.push(format!(
                        "{}: assembled {kind} CSV differs from {}",
                        plan.id,
                        path.display()
                    )),
                    Err(e) => failures.push(format!("{}: {e}", path.display())),
                }
            }
        }
        failures
    }
}

/// Digest of the statistics a simulated job must reproduce exactly.
pub fn result_digest(r: &GroupResult) -> u64 {
    let mut h = Fnv1a::default();
    for &ms in &r.kernel_ms {
        h.write_f64(ms);
    }
    h.write(&[0xff]);
    for &j in r.energy_j.iter().flatten() {
        h.write_f64(j);
    }
    h.write(&[0xff]);
    if let Some(counters) = &r.counters {
        for &event in HwCounter::all() {
            h.write(&counters.get(event).unwrap_or(u64::MAX).to_le_bytes());
        }
    }
    h.write(&(r.launches_per_iteration as u64).to_le_bytes());
    h.write(&r.footprint_bytes.to_le_bytes());
    h.finish()
}

fn label(spec: &JobSpec) -> String {
    format!("{}/{}/{}", spec.benchmark, spec.size.label(), spec.device)
}

/// One `benchmark/expected/<name>.digest` file: `<16 hex digits> <label>`
/// per line, pinned at the PR that defined the benchmark. A simulator
/// speed-up must leave every line identical; a deliberate model change
/// re-pins the lines it moves and says so.
pub struct ExpectedDigests {
    file: String,
    lines: Vec<(String, u64)>,
}

impl ExpectedDigests {
    /// Load `benchmark/expected/<name>.digest`.
    pub fn load(name: &str) -> Self {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{name}.digest"));
        let text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let lines = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (hex, label) = l
                    .split_once(' ')
                    .unwrap_or_else(|| panic!("{}: malformed line {l:?}", path.display()));
                let digest = u64::from_str_radix(hex, 16)
                    .unwrap_or_else(|_| panic!("{}: malformed digest {hex:?}", path.display()));
                (label.trim().to_string(), digest)
            })
            .collect();
        ExpectedDigests {
            file: format!("expected/{name}.digest"),
            lines,
        }
    }

    /// Compare one job's result against its pinned line.
    pub fn check(&self, spec: &JobSpec, result: &GroupResult) -> Option<String> {
        let label = label(spec);
        let got = result_digest(result);
        match self.lines.iter().find(|(l, _)| *l == label) {
            Some((_, want)) if *want == got => None,
            Some((_, want)) => Some(format!(
                "{label}: digest {got:016x} differs from {want:016x} pinned in {}",
                self.file
            )),
            None => Some(format!(
                "{label}: no line in {} (got {got:016x})",
                self.file
            )),
        }
    }
}

/// The 25 (benchmark, size) pairs of `native_kernels`: each of the eight
/// four-size dwarfs at its two largest sizes whose single iteration stays
/// under 25 ms on the reference host (260 jobs of 11 iterations must fit
/// the run), a third, smaller size for five of them, gem at tiny, and
/// three synthetic probes with stated array sizes.
///
/// Twenty-five, not twenty: every pair contributes the same number of
/// jobs, so job durations form one cluster per pair, and with twenty
/// clusters the nearest-rank p50 and p95 both fall exactly *between* two
/// clusters — where one slow job moves the reading by the gap between
/// them (20–35 %). With twenty-five, both ranks fall inside a cluster.
pub const NATIVE_PAIRS: [(&str, ProblemSize); 25] = [
    ("kmeans", ProblemSize::Small),
    ("kmeans", ProblemSize::Medium),
    ("kmeans", ProblemSize::Large),
    ("lud", ProblemSize::Tiny),
    ("lud", ProblemSize::Small),
    ("csr", ProblemSize::Small),
    ("csr", ProblemSize::Medium),
    ("csr", ProblemSize::Large),
    ("fft", ProblemSize::Tiny),
    ("fft", ProblemSize::Small),
    ("dwt", ProblemSize::Tiny),
    ("dwt", ProblemSize::Small),
    ("dwt", ProblemSize::Medium),
    ("srad", ProblemSize::Small),
    ("srad", ProblemSize::Medium),
    ("srad", ProblemSize::Large),
    ("crc", ProblemSize::Small),
    ("crc", ProblemSize::Medium),
    ("crc", ProblemSize::Large),
    ("nw", ProblemSize::Small),
    ("nw", ProblemSize::Medium),
    ("gem", ProblemSize::Tiny),
    (SYNTH_STREAM, ProblemSize::Tiny),
    (SYNTH_GUPS, ProblemSize::Tiny),
    (SYNTH_ROOFLINE, ProblemSize::Tiny),
];

/// Total footprint of the two bandwidth probes, bytes (32 MiB; every
/// report states the host's LLC size beside it).
pub const SYNTH_BANDWIDTH_FOOTPRINT: u64 = 32 << 20;
/// STREAM over three arrays totalling 32 MiB.
pub const SYNTH_STREAM: &str = "synth:stream:fp=33554432:stride=1:fpe=1";
/// GUPS over a 32 MiB table.
pub const SYNTH_GUPS: &str = "synth:gups:fp=33554432:stride=1:fpe=1";
/// Roofline at 64 FMAs per element over 4 MiB (compute-bound).
pub const SYNTH_ROOFLINE: &str = "synth:roofline:fp=4194304:stride=1:fpe=64";

/// Per-job configuration of `native_kernels`: five samples of at most
/// two iterations with the loop floor disabled (on `native` the floor is
/// wall time; with it a faster kernel would only add iterations), so a
/// job is exactly 11 real iterations.
pub fn native_config(seed: u64) -> ExecConfig {
    ExecConfig {
        samples: 5,
        min_loop: Duration::from_secs(3600),
        max_iters_per_sample: 2,
        verify: true,
        real_execution: true,
        energy_all_devices: false,
        seed,
        timeout: None,
    }
}

/// The spec of one `native_kernels` job.
pub fn native_spec(pair: (&str, ProblemSize), seed: u64) -> JobSpec {
    JobSpec {
        benchmark: pair.0.to_string(),
        size: pair.1,
        device: NATIVE_DEVICE.to_string(),
        config: native_config(seed),
    }
}

/// Metric-name-safe label of a native pair (`synth:…` encodings carry
/// characters metric names may not).
pub fn native_label(pair: (&str, ProblemSize)) -> String {
    match pair.0.strip_prefix("synth:") {
        Some(rest) => format!("synth.kernel_ms.{}", rest.split(':').next().unwrap_or(rest)),
        None => format!("dwarfs.kernel_ms.{}.{}", pair.0, pair.1.label()),
    }
}

/// A smoke-configuration spec (five samples, microsecond loop floor).
pub fn smoke_spec(benchmark: &str, size: ProblemSize, device: &str, seed: u64) -> JobSpec {
    JobSpec {
        benchmark: benchmark.to_string(),
        size,
        device: device.to_string(),
        config: ExecConfig {
            seed,
            ..RunnerConfig::smoke().to_exec()
        },
    }
}

/// The one spec `serve_cached` primes and resubmits (and the recorded
/// input of the ledger's codec, admit and request probes).
pub fn primed_spec() -> JobSpec {
    smoke_spec("crc", ProblemSize::Tiny, "GTX 1080", 42)
}

/// Job `i` of the `fleet_tiny` stream under workload seed `seed`: the 25
/// (benchmark, device) combinations in rotation, each with a noise seed
/// no earlier job used, so every submit is a cache miss.
pub fn fleet_spec(seed: u64, i: u64) -> JobSpec {
    let combo = (i % 25) as usize;
    smoke_spec(
        FLEET_BENCHMARKS[combo / 5],
        ProblemSize::Tiny,
        FLEET_DEVICES[combo % 5],
        seed.wrapping_mul(1_000_000).wrapping_add(i),
    )
}

/// The seed-independent canonical set `fleet_tiny` primes the service
/// with and checks against `expected/fleet_canonical.digest`: the same 25
/// combinations at noise seeds 0..25.
pub fn fleet_canonical() -> Vec<JobSpec> {
    (0..25).map(|i| fleet_spec(0, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_order_is_a_seeded_permutation_of_the_canonical_list() {
        let a = SimBatch::new(3, 2, false);
        let b = SimBatch::new(3, 2, false);
        let c = SimBatch::new(4, 2, false);
        assert_eq!(a.specs.len(), 282);
        assert_eq!(a.slice_start, 270);
        assert_eq!(a.order, b.order);
        assert_ne!(a.order, c.order);
        assert_eq!(
            a.specs, c.specs,
            "the seed orders the list, it does not change it"
        );
        let mut sorted = a.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..282).collect::<Vec<_>>());
        for batch in [&a, &c] {
            for &i in &batch.order[..2] {
                assert_eq!(
                    (batch.specs[i].benchmark.as_str(), batch.specs[i].size),
                    ("nw", ProblemSize::Large)
                );
            }
        }
    }

    #[test]
    fn fleet_jobs_never_repeat_a_spec() {
        let keys: std::collections::HashSet<String> =
            (0..1000).map(|i| fleet_spec(7, i).spec_key()).collect();
        assert_eq!(keys.len(), 1000);
        assert_ne!(fleet_spec(7, 0).spec_key(), fleet_spec(8, 0).spec_key());
        assert_eq!(fleet_canonical().len(), 25);
    }

    #[test]
    fn native_labels_are_metric_names() {
        for pair in NATIVE_PAIRS {
            let l = native_label(pair);
            assert!(l.len() <= 64);
            assert!(l
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert_eq!(native_label(NATIVE_PAIRS[22]), "synth.kernel_ms.stream");
    }
}

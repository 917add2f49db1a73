//! Trace-driven verification of the §4.4 problem sizes.
//!
//! The paper: "Caching performance was measured using PAPI counters … cache
//! miss results … were used to verify the selection of suitable problem
//! sizes for each benchmark." We have no PAPI, but we have two cache
//! engines: for each benchmark × size this module synthesizes a memory
//! trace shaped by the workload's own kernel profile (its working set and
//! access pattern), evaluates its two-pass (cold + steady-state) behaviour
//! on a hierarchy — via the exact set-associative simulator or the
//! reuse-distance analytic engine ([`eod_devsim::stackdist`]) — and checks
//! that the *innermost level that absorbs the traffic* is the level §4.4
//! designed the size for.
//!
//! Beyond the single-device Skylake verification the module offers
//! [`device_sweep`]: the same profile evaluated across the *entire* Table 1
//! catalog in parallel. With the stack-distance engine the trace is
//! analyzed once (memoized in [`HistogramCache::global`]) and each device
//! only pays the cheap per-geometry derivation — the speedup measured by
//! `eod bench-engine`.

use eod_core::recorded::model_only_run;
use eod_core::sizes::ProblemSize;
use eod_devsim::cache::HierarchyCounts;
use eod_devsim::catalog::{DeviceId, CATALOG};
use eod_devsim::profile::KernelProfile;
use eod_devsim::stackdist::{
    default_engine, two_pass_counts, CacheEngine, HierarchyShape, HistogramCache, TracePass,
    DEFAULT_TRACE_CAP,
};
use eod_telemetry::span::{Span, Track};
use eod_telemetry::TraceSink;
use serde::Serialize;
use std::sync::Mutex;

/// Steady-state miss ratios of one benchmark × size on the Skylake
/// hierarchy.
#[derive(Debug, Clone, Serialize)]
pub struct CacheVerification {
    /// Benchmark name.
    pub benchmark: String,
    /// Problem size label.
    pub size: String,
    /// Working set in bytes (max over the iteration's kernels).
    pub working_set: u64,
    /// L1 miss ratio on the second (warm) pass.
    pub l1_miss_ratio: f64,
    /// L2 miss ratio on the warm pass (misses / L2 accesses).
    pub l2_miss_ratio: f64,
    /// L3 miss ratio on the warm pass.
    pub l3_miss_ratio: f64,
    /// The innermost level whose warm miss ratio is below 5 % (1, 2, 3) or
    /// 4 when even L3 thrashes (DRAM resident).
    pub resolved_level: u8,
}

/// The Skylake i7-6700K hierarchy the §4.4 verification runs against.
fn skylake() -> HierarchyShape {
    HierarchyShape::for_spec(
        DeviceId::by_name("i7-6700K")
            .expect("catalog device")
            .spec(),
    )
}

/// Synthesize a one-pass address trace over the profile's working set in
/// its dominant pattern, as a lazy iterator — nothing is materialized.
/// Trace length is capped so `large` stays tractable — the cap preserves
/// the capacity relationship that decides hit/miss behaviour because it
/// samples the *same* footprint.
pub fn synthesize_pass(profile: &KernelProfile, cap_bytes: u64) -> TracePass {
    TracePass::new(profile.pattern, profile.working_set, cap_bytes)
}

/// The dominant (largest working set) kernel profile of one iteration of
/// `benchmark × size`, read from the group's recorded run — recorded
/// without executing a kernel if no group has run it yet.
fn dominant_profile(
    benchmark: &str,
    size: ProblemSize,
    seed: u64,
) -> Result<KernelProfile, String> {
    let bench = eod_dwarfs::registry::benchmark_by_name(benchmark)
        .ok_or_else(|| format!("unknown benchmark {benchmark}"))?;
    let run = model_only_run(bench.as_ref(), size, seed)?;
    let dominant = run
        .profiles()
        .max_by(|a, b| a.working_set.cmp(&b.working_set))
        .ok_or_else(|| "no kernel events".to_string())?;
    Ok(dominant.clone())
}

/// Warm-pass miss ratios in the §4.4 vocabulary plus the resolved level.
fn resolve(warm: &HierarchyCounts) -> (f64, f64, f64, u8) {
    let accesses = (warm.accesses as f64).max(1.0);
    let l1m = warm.l1_misses as f64;
    let l2m = warm.l2_misses as f64;
    let l3m = warm.l3_misses as f64;
    let (r1, r2, r3) = (l1m / accesses, l2m / l1m.max(1.0), l3m / l2m.max(1.0));
    let level = if r1 < 0.05 {
        1
    } else if r2 < 0.05 {
        2
    } else if r3 < 0.05 {
        3
    } else {
        4
    };
    (r1, r2, r3, level)
}

/// Run the two-pass verification for one benchmark × size with the
/// session's default cache engine.
pub fn verify_group(
    benchmark: &str,
    size: ProblemSize,
    seed: u64,
) -> Result<CacheVerification, String> {
    verify_group_with(benchmark, size, seed, default_engine())
}

/// [`verify_group`] with an explicit engine choice.
pub fn verify_group_with(
    benchmark: &str,
    size: ProblemSize,
    seed: u64,
    engine: CacheEngine,
) -> Result<CacheVerification, String> {
    let profile = dominant_profile(benchmark, size, seed)?;
    let counts = two_pass_counts(
        engine,
        profile.pattern,
        profile.working_set,
        DEFAULT_TRACE_CAP,
        &skylake(),
        HistogramCache::global(),
    );
    let (r1, r2, r3, resolved_level) = resolve(&counts.warm());
    Ok(CacheVerification {
        benchmark: benchmark.to_string(),
        size: size.label().to_string(),
        working_set: profile.working_set,
        l1_miss_ratio: r1,
        l2_miss_ratio: r2,
        l3_miss_ratio: r3,
        resolved_level,
    })
}

/// One device's steady-state cache behaviour for a fixed workload profile.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceCacheRow {
    /// Device name from the Table 1 catalog.
    pub device: String,
    /// L1 miss ratio on the warm pass.
    pub l1_miss_ratio: f64,
    /// L2 miss ratio (misses / L2 accesses).
    pub l2_miss_ratio: f64,
    /// L3 miss ratio (1.0 past the last level on L3-less devices).
    pub l3_miss_ratio: f64,
    /// TLB miss ratio over all warm accesses.
    pub tlb_miss_ratio: f64,
    /// Innermost level absorbing the traffic (1–3, or 4 for DRAM).
    pub resolved_level: u8,
}

/// A full-catalog cache sweep of one benchmark × size.
#[derive(Debug, Clone, Serialize)]
pub struct DeviceSweep {
    /// Benchmark name.
    pub benchmark: String,
    /// Problem size label.
    pub size: String,
    /// Working set in bytes.
    pub working_set: u64,
    /// Engine the sweep ran with (`"exact"` or `"stackdist"`).
    pub engine: String,
    /// One row per catalog device, in catalog order.
    pub rows: Vec<DeviceCacheRow>,
}

/// Evaluate one benchmark × size across every catalog device in parallel.
///
/// Devices are independent, so the per-device evaluations run on the
/// rayon pool; with [`CacheEngine::StackDistance`] they share one memoized
/// trace analysis and only pay the per-geometry derivation. When `sink`
/// is given, each device evaluation records a [`Track::Devsim`] span.
pub fn device_sweep(
    benchmark: &str,
    size: ProblemSize,
    seed: u64,
    engine: CacheEngine,
    sink: Option<&TraceSink>,
) -> Result<DeviceSweep, String> {
    use rayon::prelude::*;
    let profile = dominant_profile(benchmark, size, seed)?;
    let cache = HistogramCache::global();
    let slots: Vec<Mutex<Option<DeviceCacheRow>>> =
        CATALOG.iter().map(|_| Mutex::new(None)).collect();
    (0..CATALOG.len()).into_par_iter().for_each(|i| {
        let spec = &CATALOG[i];
        let start_us = sink.map(|s| s.now_us());
        let shape = HierarchyShape::for_spec(spec);
        let warm = two_pass_counts(
            engine,
            profile.pattern,
            profile.working_set,
            DEFAULT_TRACE_CAP,
            &shape,
            cache,
        )
        .warm();
        let (r1, r2, r3, resolved_level) = resolve(&warm);
        let tlb = warm.tlb_misses as f64 / (warm.accesses as f64).max(1.0);
        if let (Some(s), Some(start)) = (sink, start_us) {
            s.record(
                Span::new(
                    format!("cachesweep {}", spec.name),
                    "devsim",
                    Track::Devsim,
                    start,
                    s.now_us() - start,
                )
                .with_arg("engine", engine.label())
                .with_arg("benchmark", benchmark)
                .with_arg("working_set", profile.working_set)
                .with_arg("resolved_level", u64::from(resolved_level)),
            );
        }
        *slots[i].lock().unwrap() = Some(DeviceCacheRow {
            device: spec.name.to_string(),
            l1_miss_ratio: r1,
            l2_miss_ratio: r2,
            l3_miss_ratio: r3,
            tlb_miss_ratio: tlb,
            resolved_level,
        });
    });
    let rows = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("sweep slot filled"))
        .collect();
    Ok(DeviceSweep {
        benchmark: benchmark.to_string(),
        size: size.label().to_string(),
        working_set: profile.working_set,
        engine: engine.label().to_string(),
        rows,
    })
}

/// Markdown table for one [`device_sweep`].
pub fn sweep_report(
    benchmark: &str,
    size: ProblemSize,
    seed: u64,
    engine: CacheEngine,
    sink: Option<&TraceSink>,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let sweep = device_sweep(benchmark, size, seed, engine, sink)?;
    let mut out = format!(
        "### {} {} — {:.1} KiB working set ({} engine)\n\n\
         | device | L1 miss | L2 miss | L3 miss | TLB miss | resolves to |\n\
         |---|---:|---:|---:|---:|---|\n",
        sweep.benchmark,
        sweep.size,
        sweep.working_set as f64 / 1024.0,
        sweep.engine,
    );
    for row in &sweep.rows {
        let level = match row.resolved_level {
            1 => "L1",
            2 => "L2",
            3 => "L3",
            _ => "DRAM",
        };
        let _ = writeln!(
            out,
            "| {} | {:.3} | {:.3} | {:.3} | {:.4} | {} |",
            row.device,
            row.l1_miss_ratio,
            row.l2_miss_ratio,
            row.l3_miss_ratio,
            row.tlb_miss_ratio,
            level
        );
    }
    Ok(out)
}

/// Markdown report over all benchmarks and sizes with the default engine.
pub fn report(seed: u64) -> Result<String, String> {
    report_with(seed, default_engine())
}

/// [`report`] with an explicit engine choice.
pub fn report_with(seed: u64, engine: CacheEngine) -> Result<String, String> {
    use std::fmt::Write as _;
    let mut out = String::from(
        "| benchmark | size | working set | L1 miss | L2 miss | L3 miss | resolves to |\n\
         |---|---|---:|---:|---:|---:|---|\n",
    );
    for bench in eod_dwarfs::registry::all_benchmarks() {
        for &size in &bench.supported_sizes() {
            // gem medium/large profiles exist without execution (replay);
            // still skip nothing — profiles are analytic.
            let v = verify_group_with(bench.name(), size, seed, engine)?;
            let level = match v.resolved_level {
                1 => "L1",
                2 => "L2",
                3 => "L3",
                _ => "DRAM",
            };
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} KiB | {:.3} | {:.3} | {:.3} | {} |",
                v.benchmark,
                v.size,
                v.working_set as f64 / 1024.0,
                v.l1_miss_ratio,
                v.l2_miss_ratio,
                v.l3_miss_ratio,
                level
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eod_devsim::profile::AccessPattern;

    #[test]
    fn tiny_sizes_resolve_to_l1() {
        // §4.4: tiny working sets must be absorbed by the 32 KiB L1.
        for b in ["kmeans", "srad", "crc", "nw", "lud"] {
            let v = verify_group(b, ProblemSize::Tiny, 3).unwrap();
            assert_eq!(v.resolved_level, 1, "{b}: {v:?}");
        }
    }

    #[test]
    fn fft_small_resolves_to_l2() {
        let v = verify_group("fft", ProblemSize::Small, 3).unwrap();
        assert!(v.resolved_level <= 2, "{v:?}");
        assert!(v.l1_miss_ratio > 0.05, "small must spill L1: {v:?}");
    }

    #[test]
    fn large_sizes_thrash_l3() {
        for b in ["fft", "srad", "lud"] {
            let v = verify_group(b, ProblemSize::Large, 3).unwrap();
            assert_eq!(v.resolved_level, 4, "{b} large must be DRAM: {v:?}");
        }
    }

    #[test]
    fn medium_stays_within_l3() {
        for b in ["srad", "lud", "fft"] {
            let v = verify_group(b, ProblemSize::Medium, 3).unwrap();
            assert!(v.resolved_level <= 3, "{b} medium must fit L3: {v:?}");
            assert!(v.resolved_level >= 2, "{b} medium must spill L1: {v:?}");
        }
    }

    #[test]
    fn engines_agree_on_skylake_resolution() {
        for (b, size) in [
            ("kmeans", ProblemSize::Tiny),
            ("fft", ProblemSize::Small),
            ("fft", ProblemSize::Medium),
            ("lud", ProblemSize::Large),
        ] {
            let exact = verify_group_with(b, size, 3, CacheEngine::Exact).unwrap();
            let sd = verify_group_with(b, size, 3, CacheEngine::StackDistance).unwrap();
            assert_eq!(
                exact.resolved_level, sd.resolved_level,
                "{b} {size:?}: exact {exact:?} vs stackdist {sd:?}"
            );
        }
    }

    #[test]
    fn device_sweep_covers_catalog_and_engines_agree() {
        let sink = TraceSink::new();
        let sd = device_sweep(
            "fft",
            ProblemSize::Medium,
            3,
            CacheEngine::StackDistance,
            Some(&sink),
        )
        .unwrap();
        assert_eq!(sd.rows.len(), CATALOG.len());
        // Each device evaluation recorded one devsim-track span.
        let spans = sink.drain();
        assert_eq!(spans.len(), CATALOG.len());
        assert!(spans.iter().all(|s| s.track == Track::Devsim));
        let exact = device_sweep("fft", ProblemSize::Medium, 3, CacheEngine::Exact, None).unwrap();
        for (a, b) in exact.rows.iter().zip(&sd.rows) {
            assert_eq!(a.device, b.device, "catalog order is stable");
            assert_eq!(
                a.resolved_level, b.resolved_level,
                "{}: exact {a:?} vs stackdist {b:?}",
                a.device
            );
        }
    }

    #[test]
    fn synthesized_traces_have_expected_shapes() {
        let mut p = KernelProfile::new("x");
        p.working_set = 128 * 1024;
        p.pattern = AccessPattern::Streaming;
        let t: Vec<u64> = synthesize_pass(&p, 1 << 30).collect();
        assert_eq!(t.len(), 2048);
        assert!(t.windows(2).all(|w| w[1] == w[0] + 64), "unit stride");
        p.pattern = AccessPattern::Random;
        let r: Vec<u64> = synthesize_pass(&p, 1 << 30).collect();
        assert_eq!(r.len(), 2048);
        assert!(r.iter().all(|&a| a < 128 * 1024));
        assert!(r.windows(2).any(|w| w[1] != w[0] + 64), "not sequential");
    }

    #[test]
    fn strided_pass_touches_every_line_exactly_once() {
        // The old `(i * 4096) % (lines * 64)` walk revisited the same
        // footprint/4096-th of the lines; the column walk must cover all.
        let mut p = KernelProfile::new("x");
        p.pattern = AccessPattern::Strided;
        for ws in [4096u64, 128 * 1024, 130 * 64, 1 << 20] {
            p.working_set = ws;
            let mut t: Vec<u64> = synthesize_pass(&p, 1 << 30).collect();
            t.sort_unstable();
            let expect: Vec<u64> = (0..ws / 64).map(|i| i * 64).collect();
            assert_eq!(t, expect, "ws={ws}");
        }
    }
}

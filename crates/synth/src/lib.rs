//! eod-synth — continuously parameterized synthetic workload generators.
//!
//! The paper's eleven dwarfs sample the application space at four discrete
//! problem sizes; this crate fills the axes *between* those samples with
//! four classic micro-benchmark families whose parameters vary
//! continuously:
//!
//! * [`stream`] — STREAM-style bandwidth (copy / scale / add / triad over
//!   three arrays), with an element-stride knob;
//! * [`gups`] — RandomAccess/GUPS: XOR updates at splitmix64-generated
//!   table indices (giga-updates per second);
//! * [`latency`] — a serial pointer chase around a Sattolo single-cycle
//!   permutation (nanoseconds per dependent load);
//! * [`roofline`] — a tunable arithmetic-intensity kernel (`fpe` FMAs per
//!   element) that walks a device's roofline from memory- to compute-bound.
//!
//! Each family implements the suite's [`Benchmark`]/`Workload` traits
//! against the `eod_clrt` API, so synthetic jobs flow through the harness,
//! server, fleet, predictor and cache engine unchanged. A parameter point
//! is identified by its canonical [`SynthSpec`] name encoding
//! (`synth:<family>:fp=<bytes>:stride=<elems>:fpe=<n>`); because the name
//! participates in `JobSpec::spec_hash`, distinct parameter points key
//! distinct cache entries for free.

use eod_core::benchmark::{Benchmark, Workload};
use eod_core::dwarf::Dwarf;
use eod_core::sizes::ProblemSize;
use std::fmt;

pub mod gups;
pub mod latency;
pub mod roofline;
pub mod stream;

/// Name prefix that routes a benchmark lookup to this crate.
pub const NAME_PREFIX: &str = "synth:";

/// Work-group size every synthetic kernel launches with (the OpenDwarfs
/// codes use 64–256; the suite's own kernels cap at 64).
pub const LOCAL_SIZE: usize = 64;

// ---------------------------------------------------------------------------
// Shared deterministic helpers
// ---------------------------------------------------------------------------

/// splitmix64 — the index/value generator the GUPS and pointer-chase
/// families share. Passes BigCrush; one add + three xor-shift-multiplies,
/// cheap enough to inline in a kernel body.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Round `global` up to a multiple of `local` (host-side launch idiom;
/// kernels bounds-guard).
pub fn round_up(global: usize, local: usize) -> usize {
    assert!(local > 0);
    global.div_ceil(local) * local
}

/// Largest power of two ≤ `n` (and ≥ 1).
pub fn floor_pow2(n: u64) -> u64 {
    if n < 2 {
        1
    } else {
        1 << (63 - n.leading_zeros())
    }
}

/// Sattolo's algorithm: a uniformly random *cyclic* permutation of
/// `0..n` — `next[i]` is the successor of node `i`, and following `next`
/// from any start visits every node exactly once before returning.
pub fn sattolo_cycle(n: usize, seed: u64) -> Vec<u64> {
    assert!(n >= 1);
    let mut next: Vec<u64> = (0..n as u64).collect();
    let mut s = seed ^ 0x5851_F42D_4C95_7F2D;
    let mut i = n - 1;
    while i > 0 {
        // j uniform in [0, i) — never i itself, which is what forces a
        // single cycle instead of a general permutation.
        let j = (splitmix64(&mut s) % i as u64) as usize;
        next.swap(i, j);
        i -= 1;
    }
    next
}

// ---------------------------------------------------------------------------
// The parameter space
// ---------------------------------------------------------------------------

/// The four synthetic families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthFamily {
    /// STREAM copy/scale/add/triad over three arrays.
    Stream,
    /// RandomAccess XOR updates (GUPS).
    Gups,
    /// Serial pointer chase (load-to-use latency).
    Latency,
    /// Tunable FLOPs-per-byte roofline kernel.
    Roofline,
}

impl SynthFamily {
    /// Every family, in reporting order.
    pub fn all() -> [SynthFamily; 4] {
        [
            SynthFamily::Stream,
            SynthFamily::Gups,
            SynthFamily::Latency,
            SynthFamily::Roofline,
        ]
    }

    /// Lowercase label used in the name encoding and CLI.
    pub fn label(self) -> &'static str {
        match self {
            SynthFamily::Stream => "stream",
            SynthFamily::Gups => "gups",
            SynthFamily::Latency => "latency",
            SynthFamily::Roofline => "roofline",
        }
    }

    /// Parse a lowercase label.
    pub fn parse(s: &str) -> Option<SynthFamily> {
        SynthFamily::all().into_iter().find(|f| f.label() == s)
    }

    /// The Berkeley dwarf the family's access/compute pattern most
    /// resembles (synthetic kernels are *probes*, not applications; the
    /// mapping is by memory behaviour).
    pub fn dwarf(self) -> Dwarf {
        match self {
            SynthFamily::Stream => Dwarf::StructuredGrids,
            SynthFamily::Gups => Dwarf::MapReduce,
            SynthFamily::Latency => Dwarf::GraphTraversal,
            SynthFamily::Roofline => Dwarf::DenseLinearAlgebra,
        }
    }

    /// The sweep metric's unit label.
    pub fn metric(self) -> &'static str {
        match self {
            SynthFamily::Stream => "GB/s",
            SynthFamily::Gups => "GUPS",
            SynthFamily::Latency => "ns/hop",
            SynthFamily::Roofline => "GFLOP/s",
        }
    }
}

impl fmt::Display for SynthFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One point in the continuous parameter space.
///
/// `footprint_bytes` is the *requested* total device footprint; families
/// round it to their natural granularity (STREAM to a work-group of
/// elements per array, GUPS/latency down to a power of two so index
/// masking works). `stride` is the element stride for STREAM (1 =
/// contiguous); `flops_per_elem` is the roofline intensity knob (FMAs per
/// element). Knobs a family does not use are carried anyway so the
/// encoding stays injective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SynthSpec {
    /// Which generator family.
    pub family: SynthFamily,
    /// Requested total device footprint in bytes.
    pub footprint_bytes: u64,
    /// Element stride (STREAM); must be ≥ 1.
    pub stride: u64,
    /// FMAs per element (roofline); must be ≥ 1.
    pub flops_per_elem: u32,
}

impl SynthSpec {
    /// A spec with the family defaults: unit stride, one FMA per element.
    pub fn new(family: SynthFamily, footprint_bytes: u64) -> Self {
        Self {
            family,
            footprint_bytes,
            stride: 1,
            flops_per_elem: 1,
        }
    }

    /// Canonical benchmark-name encoding. Bijective with [`SynthSpec::parse`]:
    /// every field appears, in fixed order, in decimal.
    pub fn encode(&self) -> String {
        format!(
            "{}{}:fp={}:stride={}:fpe={}",
            NAME_PREFIX, self.family, self.footprint_bytes, self.stride, self.flops_per_elem
        )
    }

    /// Parse an encoding; `None` for anything malformed or non-synthetic.
    ///
    /// Trailing knobs may be omitted (`synth:stream:fp=1048576`) and
    /// default to 1 — handy at the `eod submit` prompt. Note the
    /// shorthand and the canonical form are *different benchmark
    /// strings*, so they key distinct cache entries even though they
    /// describe the same parameter point; sweep and CI always use
    /// [`SynthSpec::encode`]'s canonical form.
    pub fn parse(name: &str) -> Option<SynthSpec> {
        let rest = name.strip_prefix(NAME_PREFIX)?;
        let mut parts = rest.split(':');
        let family = SynthFamily::parse(parts.next()?)?;
        let fp = parts.next()?.strip_prefix("fp=")?.parse::<u64>().ok()?;
        let stride = match parts.next() {
            Some(p) => p.strip_prefix("stride=")?.parse::<u64>().ok()?,
            None => 1,
        };
        let fpe = match parts.next() {
            Some(p) => p.strip_prefix("fpe=")?.parse::<u32>().ok()?,
            None => 1,
        };
        if parts.next().is_some() || fp == 0 || stride == 0 || fpe == 0 {
            return None;
        }
        Some(SynthSpec {
            family,
            footprint_bytes: fp,
            stride,
            flops_per_elem: fpe,
        })
    }
}

// ---------------------------------------------------------------------------
// Benchmark bridge
// ---------------------------------------------------------------------------

/// A [`SynthSpec`] wearing the suite's [`Benchmark`] trait.
///
/// `ProblemSize` is accepted (all four) but ignored: the footprint in the
/// spec governs, which is the whole point of a continuous generator. The
/// canonical encoding is the benchmark name, so downstream spec hashing,
/// caching and reporting distinguish parameter points without changes.
pub struct SynthBenchmark {
    spec: SynthSpec,
    name: String,
}

impl SynthBenchmark {
    /// Wrap a spec.
    pub fn new(spec: SynthSpec) -> Self {
        let name = spec.encode();
        Self { spec, name }
    }

    /// The wrapped parameter point.
    pub fn spec(&self) -> SynthSpec {
        self.spec
    }
}

impl Benchmark for SynthBenchmark {
    fn name(&self) -> &str {
        &self.name
    }

    fn dwarf(&self) -> Dwarf {
        self.spec.family.dwarf()
    }

    fn supported_sizes(&self) -> Vec<ProblemSize> {
        ProblemSize::all().to_vec()
    }

    fn workload(&self, _size: ProblemSize, seed: u64) -> Box<dyn Workload> {
        match self.spec.family {
            SynthFamily::Stream => Box::new(stream::StreamWorkload::new(self.spec, seed)),
            SynthFamily::Gups => Box::new(gups::GupsWorkload::new(self.spec, seed)),
            SynthFamily::Latency => Box::new(latency::LatencyWorkload::new(self.spec, seed)),
            SynthFamily::Roofline => Box::new(roofline::RooflineWorkload::new(self.spec, seed)),
        }
    }
}

/// Resolve a `synth:…` name to a benchmark; `None` if the name is not a
/// well-formed synthetic encoding. The dwarf registry chains this behind
/// the paper's eleven and the extensions.
pub fn benchmark_for_name(name: &str) -> Option<Box<dyn Benchmark>> {
    SynthSpec::parse(name).map(|s| Box::new(SynthBenchmark::new(s)) as Box<dyn Benchmark>)
}

/// One-line descriptions for `eod list`-style surfaces.
pub fn family_listing() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "stream",
            "STREAM copy/scale/add/triad bandwidth (GB/s); knob: stride",
        ),
        (
            "gups",
            "RandomAccess XOR updates at splitmix64 indices (GUPS)",
        ),
        (
            "latency",
            "serial pointer chase over a Sattolo cycle (ns/hop)",
        ),
        (
            "roofline",
            "tunable FLOPs-per-byte FMA kernel (GFLOP/s); knob: fpe",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use eod_core::spec::{ExecConfig, JobSpec};
    use proptest::prelude::*;

    fn job(name: &str) -> JobSpec {
        JobSpec {
            benchmark: name.to_string(),
            size: ProblemSize::Small,
            device: "i7-6700K".to_string(),
            config: ExecConfig {
                samples: 3,
                min_loop: std::time::Duration::from_millis(1),
                max_iters_per_sample: 2,
                verify: false,
                real_execution: true,
                energy_all_devices: false,
                seed: 1,
                timeout: None,
            },
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        for family in SynthFamily::all() {
            let spec = SynthSpec {
                family,
                footprint_bytes: 123_456,
                stride: 7,
                flops_per_elem: 9,
            };
            assert_eq!(SynthSpec::parse(&spec.encode()), Some(spec));
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "stream",
            "synth:stream",
            "synth:stream:fp=0:stride=1:fpe=1",
            "synth:stream:fp=64:stride=0:fpe=1",
            "synth:stream:fp=64:stride=1:fpe=0",
            "synth:stream:fp=64:stride=1:fpe=1:extra=2",
            "synth:linpack:fp=64:stride=1:fpe=1",
            "synth:stream:fp=sixty:stride=1:fpe=1",
            "kmeans",
        ] {
            assert_eq!(SynthSpec::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn parse_accepts_shorthand_with_default_knobs() {
        let got = SynthSpec::parse("synth:gups:fp=65536").unwrap();
        assert_eq!(got, SynthSpec::new(SynthFamily::Gups, 65536));
        let got = SynthSpec::parse("synth:stream:fp=64:stride=4").unwrap();
        assert_eq!(got.stride, 4);
        assert_eq!(got.flops_per_elem, 1);
    }

    #[test]
    fn spec_hash_distinguishes_stride_and_intensity() {
        // Satellite requirement: two specs differing only in stride (or
        // only in intensity) must key distinct cache entries.
        let base = SynthSpec::new(SynthFamily::Stream, 1 << 20);
        let strided = SynthSpec { stride: 2, ..base };
        let hot = SynthSpec {
            flops_per_elem: 8,
            ..base
        };
        let h0 = job(&base.encode()).spec_hash();
        let h1 = job(&strided.encode()).spec_hash();
        let h2 = job(&hot.encode()).spec_hash();
        assert_ne!(h0, h1, "stride must change the spec hash");
        assert_ne!(h0, h2, "intensity must change the spec hash");
        assert_ne!(h1, h2);
    }

    #[test]
    fn spec_hash_distinguishes_footprint_points() {
        let a = job(&SynthSpec::new(SynthFamily::Gups, 1 << 16).encode()).spec_hash();
        let b = job(&SynthSpec::new(SynthFamily::Gups, (1 << 16) + 8).encode()).spec_hash();
        assert_ne!(a, b);
    }

    #[test]
    fn registry_bridge_resolves_and_rejects() {
        let name = SynthSpec::new(SynthFamily::Latency, 4096).encode();
        let b = benchmark_for_name(&name).expect("well-formed synth name resolves");
        assert_eq!(b.name(), name);
        assert_eq!(b.dwarf(), Dwarf::GraphTraversal);
        assert_eq!(b.supported_sizes().len(), 4);
        assert!(benchmark_for_name("crc").is_none());
        assert!(benchmark_for_name("synth:bogus:fp=1:stride=1:fpe=1").is_none());
    }

    #[test]
    fn sattolo_is_a_single_cycle() {
        for n in [1usize, 2, 3, 64, 1000] {
            let next = sattolo_cycle(n, 42);
            let mut seen = vec![false; n];
            let mut pos = 0u64;
            for _ in 0..n {
                assert!(!seen[pos as usize], "node revisited before cycle end");
                seen[pos as usize] = true;
                pos = next[pos as usize];
            }
            assert_eq!(pos, 0, "n = {n}: walk must close after exactly n hops");
            assert!(seen.iter().all(|&s| s), "n = {n}: every node visited");
        }
    }

    #[test]
    fn sattolo_is_deterministic_and_seed_sensitive() {
        assert_eq!(sattolo_cycle(128, 7), sattolo_cycle(128, 7));
        assert_ne!(sattolo_cycle(128, 7), sattolo_cycle(128, 8));
    }

    #[test]
    fn splitmix_indices_are_uniform_chi_square() {
        // Satellite requirement: chi-square sanity bound on the GUPS index
        // stream. 1024 buckets over 100k draws; df = 1023, so the statistic
        // has mean 1023 and σ ≈ 45 — 1250 is a ≥ 5σ acceptance bound, safe
        // for a fixed seed.
        const BUCKETS: usize = 1024;
        const DRAWS: usize = 100_000;
        let mut counts = [0u32; BUCKETS];
        let mut s = 0xDEAD_BEEFu64;
        for _ in 0..DRAWS {
            counts[(splitmix64(&mut s) & (BUCKETS as u64 - 1)) as usize] += 1;
        }
        let expected = DRAWS as f64 / BUCKETS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(
            chi2 < 1250.0,
            "chi-square {chi2:.1} too extreme for uniform"
        );
        assert!(chi2 > 800.0, "chi-square {chi2:.1} suspiciously regular");
    }

    #[test]
    fn floor_pow2_bounds() {
        assert_eq!(floor_pow2(0), 1);
        assert_eq!(floor_pow2(1), 1);
        assert_eq!(floor_pow2(2), 2);
        assert_eq!(floor_pow2(3), 2);
        assert_eq!(floor_pow2(1 << 20), 1 << 20);
        assert_eq!(floor_pow2((1 << 20) + 1), 1 << 20);
    }

    proptest! {
        #[test]
        fn encode_parse_round_trips_everywhere(
            fam in 0usize..4,
            fp in 1u64..=1 << 40,
            stride in 1u64..=4096,
            fpe in 1u32..=512,
        ) {
            let spec = SynthSpec {
                family: SynthFamily::all()[fam],
                footprint_bytes: fp,
                stride,
                flops_per_elem: fpe,
            };
            prop_assert_eq!(SynthSpec::parse(&spec.encode()), Some(spec));
        }

        #[test]
        fn distinct_specs_encode_distinctly(
            fp_a in 1u64..=1 << 30, fp_b in 1u64..=1 << 30,
            stride_a in 1u64..=256, stride_b in 1u64..=256,
        ) {
            let a = SynthSpec { family: SynthFamily::Stream, footprint_bytes: fp_a, stride: stride_a, flops_per_elem: 1 };
            let b = SynthSpec { family: SynthFamily::Stream, footprint_bytes: fp_b, stride: stride_b, flops_per_elem: 1 };
            prop_assert_eq!(a == b, a.encode() == b.encode());
        }
    }
}

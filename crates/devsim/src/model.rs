//! The roofline-with-overheads device timing model.
//!
//! [`DeviceModel::predict`] maps an architecture-independent
//! [`KernelProfile`] onto one catalog device and returns a [`KernelCost`]
//! breakdown. The model is a classic roofline (compute ceiling vs. memory
//! ceiling, overlapped) extended with the four effects the paper's analysis
//! leans on:
//!
//! 1. **Serial-dependence** — operations on a dependent chain run at the
//!    device's *serial-lane* speed, an Amdahl term that is why the
//!    combinational-logic crc dwarf "performs best on CPU-type
//!    architectures" (§5.1);
//! 2. **Cache-capacity tiers** — memory traffic is served at the bandwidth
//!    of the innermost cache level that holds the working set, which is what
//!    creates the i5-3550's cliff "when moving from small to medium problem
//!    sizes" and the modern GPUs' advantage at `large` "possibly due to
//!    their greater second-level cache size";
//! 3. **Access-pattern efficiency** — attainable bandwidth shrinks for
//!    strided/gather/random patterns, more sharply on GPUs (coalescing);
//! 4. **Launch overhead** — every kernel launch pays a per-device cost,
//!    which dominates `tiny` problems on discrete GPUs and, combined with
//!    AMD's higher launch latency of this driver generation, reproduces the
//!    widening AMD gap in nw (Fig. 3b).

use crate::catalog::{AcceleratorClass, DeviceId, DeviceSpec};
use crate::profile::KernelProfile;
use crate::stackdist::{
    two_pass_counts, CacheEngine, HierarchyShape, HistogramCache, DEFAULT_TRACE_CAP,
};
use eod_scibench::counters::{CounterValues, HwCounter};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Which ceiling a kernel hit on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// Parallel ALU throughput.
    Compute,
    /// Memory bandwidth (at whichever cache tier applies).
    Memory,
    /// Serial-dependence (Amdahl) limited.
    Serial,
    /// Kernel-launch overhead limited.
    Launch,
}

/// Cost breakdown for one kernel invocation on one device. All times in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelCost {
    /// Kernel-launch overhead (all launches).
    pub launch_s: f64,
    /// Parallel compute time.
    pub compute_s: f64,
    /// Serial-chain compute time.
    pub serial_s: f64,
    /// Memory time at the effective bandwidth tier.
    pub memory_s: f64,
    /// Total modeled wall time.
    pub total_s: f64,
    /// Dominant ceiling.
    pub bound: Bound,
    /// Device utilization in [0, 1] — drives the power model.
    pub utilization: f64,
}

impl KernelCost {
    /// Total as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_secs_f64(self.total_s)
    }
}

/// The memory tier a working set resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemTier {
    /// Fits in L1 data cache.
    L1,
    /// Fits in L2.
    L2,
    /// Fits in L3.
    L3,
    /// Spills to device global memory / DRAM.
    Dram,
}

/// Which model terms are active — the ablation surface.
///
/// Each flag removes one mechanism the paper's analysis leans on; the
/// `ablation_model` bench and `eod ablation` target quantify how much of
/// each published shape (CPUs winning crc, AMD degrading on nw, the
/// i5-3550 medium cliff) every term contributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelAblation {
    /// Per-launch driver/dispatch overhead.
    pub launch_overhead: bool,
    /// Amdahl serial-chain term (crc's mechanism).
    pub serial_chain: bool,
    /// SIMT branch-divergence penalty.
    pub divergence: bool,
    /// Cache-capacity bandwidth tiers (the i5 cliff's mechanism); off means
    /// every access runs at DRAM bandwidth.
    pub cache_tiers: bool,
    /// Access-pattern bandwidth efficiency (gather/random penalties).
    pub pattern_efficiency: bool,
    /// Occupancy scaling with exposed parallelism.
    pub occupancy: bool,
}

impl ModelAblation {
    /// The full model.
    pub fn full() -> Self {
        Self {
            launch_overhead: true,
            serial_chain: true,
            divergence: true,
            cache_tiers: true,
            pattern_efficiency: true,
            occupancy: true,
        }
    }

    /// The bare roofline (every refinement off).
    pub fn bare_roofline() -> Self {
        Self {
            launch_overhead: false,
            serial_chain: false,
            divergence: false,
            cache_tiers: false,
            pattern_efficiency: false,
            occupancy: false,
        }
    }

    /// The full model with one named term removed (for ablation sweeps).
    pub fn without(term: &str) -> Option<Self> {
        let mut a = Self::full();
        match term {
            "launch_overhead" => a.launch_overhead = false,
            "serial_chain" => a.serial_chain = false,
            "divergence" => a.divergence = false,
            "cache_tiers" => a.cache_tiers = false,
            "pattern_efficiency" => a.pattern_efficiency = false,
            "occupancy" => a.occupancy = false,
            _ => return None,
        }
        Some(a)
    }

    /// Names of all ablatable terms.
    pub fn terms() -> &'static [&'static str] {
        &[
            "launch_overhead",
            "serial_chain",
            "divergence",
            "cache_tiers",
            "pattern_efficiency",
            "occupancy",
        ]
    }
}

/// A catalog device plus derived modeling constants.
#[derive(Debug, Clone)]
pub struct DeviceModel {
    id: DeviceId,
    spec: &'static DeviceSpec,
}

impl DeviceModel {
    /// Model for a catalog device.
    pub fn new(id: DeviceId) -> Self {
        Self {
            id,
            spec: id.spec(),
        }
    }

    /// Models for all fifteen devices in figure order.
    pub fn all() -> Vec<DeviceModel> {
        DeviceId::all().map(DeviceModel::new).collect()
    }

    /// The device this models.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The underlying Table 1 entry.
    pub fn spec(&self) -> &'static DeviceSpec {
        self.spec
    }

    /// Effective peak compute in FLOP/s after the driver-maturity factor.
    pub fn effective_peak_flops(&self) -> f64 {
        self.spec.peak_sp_gflops * 1e9 * self.spec.compute_efficiency
    }

    /// Number of serial-lane-equivalents the device offers — the
    /// parallelism required to reach effective peak.
    pub fn lanes(&self) -> f64 {
        self.effective_peak_flops() / (self.spec.serial_lane_gflops * 1e9)
    }

    /// Work-items needed to saturate the device. GPUs and the MIC need
    /// heavy oversubscription to hide memory latency; CPUs saturate at a
    /// small multiple of their core count.
    pub fn saturation_work_items(&self) -> f64 {
        let oversub = match self.spec.class {
            AcceleratorClass::Cpu => 1.0,
            AcceleratorClass::Mic => 4.0,
            _ => 4.0,
        };
        self.lanes() * oversub
    }

    /// Which tier a working set of `bytes` resolves to on this device.
    pub fn mem_tier(&self, working_set: u64) -> MemTier {
        let kib = working_set.div_ceil(1024);
        if kib <= self.spec.l1_kib as u64 {
            MemTier::L1
        } else if kib <= self.spec.l2_kib as u64 {
            MemTier::L2
        } else if self.spec.l3_kib > 0 && kib <= self.spec.l3_kib as u64 {
            MemTier::L3
        } else {
            MemTier::Dram
        }
    }

    /// Bandwidth (bytes/s) of a tier, as a multiple of the DRAM figure.
    /// Multipliers are conventional cache-to-core ratios; GPUs have no L3
    /// and their L2 multiplier is smaller (it serves many SMs at once).
    pub fn tier_bandwidth(&self, tier: MemTier) -> f64 {
        let dram = self.spec.mem_bw_gbps * 1e9;
        let is_cpu = self.spec.class == AcceleratorClass::Cpu;
        match tier {
            MemTier::L1 => dram * if is_cpu { 12.0 } else { 6.0 },
            MemTier::L2 => dram * if is_cpu { 6.0 } else { 3.0 },
            MemTier::L3 => dram * 3.0,
            MemTier::Dram => dram,
        }
    }

    /// Attainable bandwidth for a profile: tier bandwidth × access-pattern
    /// efficiency (class-specific).
    pub fn attainable_bandwidth(&self, p: &KernelProfile) -> f64 {
        let tier = self.mem_tier(p.working_set);
        let pat = if self.spec.class == AcceleratorClass::Cpu {
            p.pattern.cpu_efficiency()
        } else {
            p.pattern.gpu_efficiency()
        };
        self.tier_bandwidth(tier) * pat
    }

    /// Predict the cost of one kernel invocation (full model).
    pub fn predict(&self, p: &KernelProfile) -> KernelCost {
        self.predict_ablated(p, ModelAblation::full())
    }

    /// Predict with selected model terms disabled — the ablation entry
    /// point.
    pub fn predict_ablated(&self, p: &KernelProfile, ab: ModelAblation) -> KernelCost {
        debug_assert!(p.validate().is_ok(), "invalid profile: {:?}", p.validate());
        let launch_s = if ab.launch_overhead {
            p.kernel_launches as f64 * self.spec.launch_overhead_us * 1e-6
        } else {
            0.0
        };

        // --- compute ---
        let total_ops = p.total_ops();
        let serial_fraction = if ab.serial_chain {
            p.serial_fraction
        } else {
            0.0
        };
        let serial_ops = total_ops * serial_fraction;
        let parallel_ops = total_ops - serial_ops;

        let occupancy = if ab.occupancy {
            (p.work_items as f64 / self.saturation_work_items()).min(1.0)
        } else {
            1.0
        };
        // A device can never run slower than a single lane even at occupancy
        // ~0: one work-item still executes at serial-lane speed.
        let parallel_rate =
            (self.effective_peak_flops() * occupancy).max(self.spec.serial_lane_gflops * 1e9);
        // Divergence: GPUs serialize divergent branch paths inside a
        // wavefront; CPUs only pay mispredictions.
        let divergence_penalty = if !ab.divergence {
            1.0
        } else if self.spec.class == AcceleratorClass::Cpu {
            1.0 - 0.15 * p.branch_divergence
        } else {
            1.0 - 0.70 * p.branch_divergence
        };
        let compute_s = parallel_ops / (parallel_rate * divergence_penalty);
        let serial_s = serial_ops / (self.spec.serial_lane_gflops * 1e9);

        // --- memory ---
        let tier_bw = if ab.cache_tiers {
            self.tier_bandwidth(self.mem_tier(p.working_set))
        } else {
            self.spec.mem_bw_gbps * 1e9
        };
        let pattern_eff = if !ab.pattern_efficiency {
            1.0
        } else if self.spec.class == AcceleratorClass::Cpu {
            p.pattern.cpu_efficiency()
        } else {
            p.pattern.gpu_efficiency()
        };
        let memory_s = p.total_bytes() / (tier_bw * pattern_eff);

        // Compute and memory overlap (hardware prefetch / warp scheduling);
        // the serial chain overlaps with neither.
        let body_s = compute_s.max(memory_s) + serial_s;
        let total_s = launch_s + body_s;

        let bound = {
            let mut best = (launch_s, Bound::Launch);
            if compute_s > best.0 {
                best = (compute_s, Bound::Compute);
            }
            if memory_s > best.0 {
                best = (memory_s, Bound::Memory);
            }
            if serial_s > best.0 {
                best = (serial_s, Bound::Serial);
            }
            best.1
        };

        let util_compute = (total_ops / (self.effective_peak_flops() * total_s)).min(1.0);
        let util_memory = (p.total_bytes() / (self.spec.mem_bw_gbps * 1e9 * total_s)).min(1.0);
        // Memory streaming keeps less of the chip busy than full ALU work.
        let utilization = util_compute.max(0.7 * util_memory).clamp(0.02, 1.0);

        KernelCost {
            launch_s,
            compute_s,
            serial_s,
            memory_s,
            total_s,
            bound,
            utilization,
        }
    }

    /// Instruction-side counters shared by both counter synthesizers;
    /// returns the counter set plus the word-granular memory access count.
    fn instruction_counters(&self, p: &KernelProfile, cost: &KernelCost) -> (CounterValues, f64) {
        let mut c = CounterValues::new();
        let loads = p.bytes_read / 4.0;
        let stores = p.bytes_written / 4.0;
        let mem_accesses = loads + stores;
        let branches = p.total_ops() * p.branch_fraction;
        let total_ins = p.total_ops() + mem_accesses + branches;
        c.set(HwCounter::TotalInstructions, total_ins as u64);
        let cycles = cost.total_s * self.spec.best_clock_mhz() as f64 * 1e6;
        c.set(HwCounter::TotalCycles, cycles.max(1.0) as u64);
        c.set(HwCounter::FloatingPointOps, p.flops as u64);
        c.set(HwCounter::LoadStoreInstructions, mem_accesses as u64);
        c.set(HwCounter::BranchInstructions, branches as u64);
        // Mispredict rate: a floor for predictable loops plus a
        // data-dependence term proportional to divergence.
        let mispredict_rate = 0.005 + 0.15 * p.branch_divergence;
        c.set(
            HwCounter::BranchMispredictions,
            (branches * mispredict_rate) as u64,
        );
        (c, mem_accesses)
    }

    /// Fraction of each cache line wasted by the access pattern.
    fn line_waste(pattern: crate::profile::AccessPattern) -> f64 {
        match pattern {
            crate::profile::AccessPattern::Streaming => 1.0,
            crate::profile::AccessPattern::Strided => 2.0,
            crate::profile::AccessPattern::Gather => 4.0,
            crate::profile::AccessPattern::Random => 8.0,
        }
    }

    /// Synthesize the paper's PAPI counter set for one invocation.
    ///
    /// Instruction counts come from the profile; cache misses come from the
    /// capacity-tier analysis (a working set resident in level *k* produces
    /// only cold/conflict misses at level *k* and below-threshold noise at
    /// inner levels). The numbers are self-consistent with the timing model
    /// — IPC falls when the model says the kernel is memory bound.
    ///
    /// This is the closed-form tier heuristic; [`Self::synthesize_counters_engine`]
    /// replaces the tier step with per-level miss ratios from a cache
    /// engine run against this device's actual hierarchy geometry.
    pub fn synthesize_counters(&self, p: &KernelProfile, cost: &KernelCost) -> CounterValues {
        let (mut c, mem_accesses) = self.instruction_counters(p, cost);

        // Cache misses by tier. Line-grain cold traffic = bytes/64; a tier
        // that holds the working set converts reuse into hits at all outer
        // levels. Irregular patterns waste part of each line.
        let cold_lines = (p.total_bytes() / 64.0 * Self::line_waste(p.pattern)).max(0.0);
        let noise_misses = mem_accesses * 0.001; // conflict-miss floor
        let tier = self.mem_tier(p.working_set);
        let (l1m, l2m, l3a, l3m) = match tier {
            MemTier::L1 => (noise_misses, noise_misses * 0.5, noise_misses * 0.5, 0.0),
            MemTier::L2 => (cold_lines, noise_misses, noise_misses, 0.0),
            MemTier::L3 => (cold_lines, cold_lines, cold_lines, noise_misses),
            MemTier::Dram => (cold_lines, cold_lines, cold_lines, cold_lines),
        };
        c.set(HwCounter::L1DataCacheMisses, l1m as u64);
        c.set(HwCounter::L2DataCacheMisses, l2m as u64);
        c.set(HwCounter::L3TotalCacheAccesses, l3a as u64);
        c.set(HwCounter::L3TotalCacheMisses, l3m as u64);

        // TLB: misses only when the page footprint exceeds TLB reach.
        let pages = p.working_set as f64 / 4096.0;
        let tlb_reach_pages = 1536.0;
        let tlb = if pages > tlb_reach_pages {
            mem_accesses * (1.0 - tlb_reach_pages / pages) / 64.0
        } else {
            0.0
        };
        c.set(HwCounter::DataTlbMisses, tlb as u64);
        c
    }

    /// Synthesize counters with per-level miss ratios from a cache engine.
    ///
    /// Instead of the `mem_tier` step function, the two-pass verification
    /// trace for this profile is evaluated against the device's own
    /// hierarchy geometry ([`HierarchyShape::for_spec`]) by the selected
    /// [`CacheEngine`], and the steady-state per-line miss ratios are
    /// scaled to the invocation's line traffic. [`HistogramCache::global`]
    /// memoizes the trace analysis by `(pattern, working set, trace cap)`
    /// and the derived counts by `(engine, pattern, working set, trace cap,
    /// shape)`: devices sharing a profile share one analysis, and repeated
    /// invocations on one device (samples, replayed launches) are one map
    /// lookup plus the scaling below.
    pub fn synthesize_counters_engine(
        &self,
        p: &KernelProfile,
        cost: &KernelCost,
        engine: CacheEngine,
    ) -> CounterValues {
        let (mut c, mem_accesses) = self.instruction_counters(p, cost);

        let shape = HierarchyShape::for_spec(self.spec);
        let warm = two_pass_counts(
            engine,
            p.pattern,
            p.working_set.max(64),
            DEFAULT_TRACE_CAP,
            &shape,
            HistogramCache::global(),
        )
        .warm();
        let n = (warm.accesses as f64).max(1.0);
        let (wr1, wr2, wr3) = (
            warm.l1_misses as f64 / n,
            warm.l2_misses as f64 / n,
            warm.l3_misses as f64 / n,
        );
        let wtlb = warm.tlb_misses as f64 / n;

        // Scale per-line-touch miss probabilities to the invocation's line
        // traffic, with the same conflict-noise floors as the tier model.
        let lines = (p.total_bytes() / 64.0 * Self::line_waste(p.pattern)).max(0.0);
        let noise_misses = mem_accesses * 0.001;
        let l1m = (lines * wr1).max(noise_misses);
        let l2m = (lines * wr2).max(noise_misses * 0.5).min(l1m);
        let l3m = (lines * wr3).min(l2m);
        c.set(HwCounter::L1DataCacheMisses, l1m as u64);
        c.set(HwCounter::L2DataCacheMisses, l2m as u64);
        c.set(HwCounter::L3TotalCacheAccesses, l2m as u64);
        c.set(HwCounter::L3TotalCacheMisses, l3m as u64);
        c.set(HwCounter::DataTlbMisses, (lines * wtlb) as u64);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CATALOG;
    use crate::profile::AccessPattern;

    fn device(name: &str) -> DeviceModel {
        DeviceModel::new(DeviceId::by_name(name).unwrap())
    }

    /// crc-like: integer-heavy, serially chained, low parallelism benefit.
    fn crc_like(bytes: f64) -> KernelProfile {
        let mut p = KernelProfile::new("crc");
        p.int_ops = bytes * 8.0;
        p.bytes_read = bytes;
        p.working_set = bytes as u64;
        p.pattern = AccessPattern::Streaming;
        p.work_items = 64;
        p.serial_fraction = 0.85;
        p.branch_fraction = 0.1;
        p
    }

    /// srad-like: streaming stencil, wide parallelism, bandwidth-bound.
    fn srad_like(cells: u64) -> KernelProfile {
        let mut p = KernelProfile::new("srad");
        p.flops = cells as f64 * 30.0;
        p.bytes_read = cells as f64 * 24.0;
        p.bytes_written = cells as f64 * 8.0;
        p.working_set = cells * 24;
        p.pattern = AccessPattern::Streaming;
        p.work_items = cells;
        p
    }

    #[test]
    fn cpus_win_crc() {
        // §5.1: "Execution times for crc are lowest on CPU-type
        // architectures".
        let p = crc_like(4_194_304.0);
        let best_cpu = CATALOG
            .iter()
            .enumerate()
            .filter(|(_, d)| d.class == AcceleratorClass::Cpu)
            .map(|(i, _)| DeviceModel::new(DeviceId(i)).predict(&p).total_s)
            .fold(f64::INFINITY, f64::min);
        let best_gpu = CATALOG
            .iter()
            .enumerate()
            .filter(|(_, d)| d.class.is_gpu())
            .map(|(i, _)| DeviceModel::new(DeviceId(i)).predict(&p).total_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_cpu < best_gpu,
            "best CPU {best_cpu} must beat best GPU {best_gpu}"
        );
    }

    #[test]
    fn gpus_win_srad_and_gap_widens() {
        // §5.1: structured-grid codes are well suited to GPUs, and the
        // CPU/GPU gap widens from tiny to large.
        let i7 = device("i7-6700K");
        let gtx = device("GTX 1080");
        let small = srad_like(128 * 80);
        let large = srad_like(2048 * 1024);
        let ratio_small = i7.predict(&small).total_s / gtx.predict(&small).total_s;
        let ratio_large = i7.predict(&large).total_s / gtx.predict(&large).total_s;
        assert!(ratio_large > 1.0, "GPU must win at large ({ratio_large})");
        assert!(
            ratio_large > ratio_small,
            "gap must widen: small {ratio_small}, large {ratio_large}"
        );
    }

    #[test]
    fn i5_has_medium_size_cliff() {
        // §5.1: the i5-3550's 6 MiB L3 cannot hold the 8 MiB medium working
        // set that fits the i7-6700K's L3, so its slowdown from small to
        // medium is disproportionately larger.
        let i7 = device("i7-6700K");
        let i5 = device("i5-3550");
        let mut small = srad_like(10_000);
        small.working_set = 200 * 1024; // fits both L3s (and even L2 misses)
        let mut medium = srad_like(300_000);
        medium.working_set = 8 * 1024 * 1024; // fits i7 L3, not i5 L3
        let i7_slowdown = i7.predict(&medium).total_s / i7.predict(&small).total_s;
        let i5_slowdown = i5.predict(&medium).total_s / i5.predict(&small).total_s;
        assert!(
            i5_slowdown > i7_slowdown * 1.5,
            "i5 cliff missing: i5 {i5_slowdown}, i7 {i7_slowdown}"
        );
    }

    #[test]
    fn knl_is_poor() {
        // §5.1: "performance on the KNL is poor due to the lack of support
        // for wide vector registers".
        let knl = device("Xeon Phi 7210");
        let gtx = device("GTX 1080");
        let p = srad_like(1 << 20);
        assert!(knl.predict(&p).total_s > gtx.predict(&p).total_s * 2.0);
    }

    #[test]
    fn launch_overhead_dominates_tiny_gpu_problems() {
        let gtx = device("GTX 1080");
        let mut p = srad_like(80 * 16);
        p.kernel_launches = 4;
        let cost = gtx.predict(&p);
        assert_eq!(cost.bound, Bound::Launch);
        // And the CPU, with its lower launch cost, wins this tiny problem.
        let i7 = device("i7-6700K");
        assert!(i7.predict(&p).total_s < cost.total_s);
    }

    #[test]
    fn launch_heavy_kernels_hurt_amd_most() {
        // Fig. 3b: nw launches O(n) small kernels; AMD devices degrade.
        let mut p = KernelProfile::new("nw-like");
        p.flops = 4096.0 * 4096.0 * 3.0;
        p.bytes_read = 4096.0 * 4096.0 * 8.0;
        p.working_set = 4096 * 4096 * 4;
        p.work_items = 4096;
        p.kernel_launches = 512;
        let r9 = device("R9 290X").predict(&p).total_s;
        let titan = device("Titan X").predict(&p).total_s;
        let i7 = device("i7-6700K").predict(&p).total_s;
        assert!(r9 > titan, "AMD {r9} must trail Nvidia {titan}");
        assert!(r9 > i7, "AMD {r9} must trail CPU {i7}");
    }

    #[test]
    fn hpc_gpus_beat_same_generation_consumer_but_lose_to_modern() {
        // §5.1: "the HPC GPUs outperformed consumer GPUs of the same
        // generation ... they were always beaten by more modern GPUs".
        let p = srad_like(1 << 21);
        let k40 = device("K40m").predict(&p).total_s; // HPC, Kepler (2013)
        let hd7970 = device("HD 7970").predict(&p).total_s; // consumer, 2011
        let titan = device("Titan X").predict(&p).total_s; // modern consumer
        assert!(k40 < hd7970, "K40m {k40} vs HD7970 {hd7970}");
        assert!(titan < k40, "Titan X {titan} vs K40m {k40}");
    }

    #[test]
    fn cost_components_sum() {
        let p = srad_like(100_000);
        for m in DeviceModel::all() {
            let c = m.predict(&p);
            let expect = c.launch_s + c.compute_s.max(c.memory_s) + c.serial_s;
            assert!((c.total_s - expect).abs() < 1e-12, "{}", m.spec().name);
            assert!(c.total_s > 0.0);
            assert!((0.0..=1.0).contains(&c.utilization));
        }
    }

    #[test]
    fn mem_tiers_resolve_by_capacity() {
        let i7 = device("i7-6700K");
        assert_eq!(i7.mem_tier(16 * 1024), MemTier::L1);
        assert_eq!(i7.mem_tier(100 * 1024), MemTier::L2);
        assert_eq!(i7.mem_tier(4 * 1024 * 1024), MemTier::L3);
        assert_eq!(i7.mem_tier(64 * 1024 * 1024), MemTier::Dram);
        let gtx = device("GTX 1080");
        assert_eq!(gtx.mem_tier(1024 * 1024), MemTier::L2);
        assert_eq!(gtx.mem_tier(16 * 1024 * 1024), MemTier::Dram);
    }

    #[test]
    fn tier_bandwidth_monotone() {
        for m in DeviceModel::all() {
            let l1 = m.tier_bandwidth(MemTier::L1);
            let l2 = m.tier_bandwidth(MemTier::L2);
            let dram = m.tier_bandwidth(MemTier::Dram);
            assert!(l1 > l2 && l2 > dram, "{}", m.spec().name);
        }
    }

    #[test]
    fn counters_are_self_consistent() {
        let i7 = device("i7-6700K");
        let p = srad_like(1 << 22); // DRAM-resident
        let cost = i7.predict(&p);
        let c = i7.synthesize_counters(&p, &cost);
        let ins = c.get(HwCounter::TotalInstructions).unwrap();
        assert!(ins > 0);
        let ipc = c.ipc().unwrap();
        assert!(ipc > 0.0 && ipc < 16.0, "ipc = {ipc}");
        // DRAM-resident working set ⇒ real L3 misses.
        assert!(c.get(HwCounter::L3TotalCacheMisses).unwrap() > 0);
        // L1-resident working set ⇒ effectively no L3 misses.
        let mut tiny = srad_like(1000);
        tiny.working_set = 24_000;
        let cost_t = i7.predict(&tiny);
        let ct = i7.synthesize_counters(&tiny, &cost_t);
        assert_eq!(ct.get(HwCounter::L3TotalCacheMisses).unwrap(), 0);
    }

    #[test]
    fn ablating_crc_mechanisms_flips_the_winner() {
        // crc's CPU win rests on two mechanisms: the Amdahl serial chain
        // and the 64-work-item occupancy starvation. With the full model
        // the CPU wins; with *both* terms removed (equivalently, the bare
        // roofline) the GPU's raw integer throughput wins; removing the
        // serial chain alone shrinks the GPU's absolute time by an order
        // of magnitude but the occupancy wall still strands it.
        let p = crc_like(4_194_304.0);
        let i7 = device("i7-6700K");
        let gtx = device("GTX 1080");
        let full = ModelAblation::full();
        assert!(i7.predict_ablated(&p, full).total_s < gtx.predict_ablated(&p, full).total_s);
        let mut both_off = ModelAblation::full();
        both_off.serial_chain = false;
        both_off.occupancy = false;
        assert!(
            gtx.predict_ablated(&p, both_off).total_s < i7.predict_ablated(&p, both_off).total_s,
            "without serial chain and occupancy the GPU must win crc"
        );
        let no_serial = ModelAblation::without("serial_chain").unwrap();
        let gtx_full = gtx.predict_ablated(&p, full).total_s;
        let gtx_no_serial = gtx.predict_ablated(&p, no_serial).total_s;
        assert!(
            gtx_no_serial < gtx_full / 5.0,
            "the serial chain dominates the GPU's crc time: {gtx_full} vs {gtx_no_serial}"
        );
    }

    #[test]
    fn ablating_cache_tiers_removes_the_i5_cliff() {
        let i5 = device("i5-3550");
        let small = {
            let mut p = srad_like(10_000);
            p.working_set = 200 * 1024;
            p
        };
        let medium = {
            let mut p = srad_like(300_000);
            p.working_set = 8 * 1024 * 1024;
            p
        };
        let full = ModelAblation::full();
        let flat = ModelAblation::without("cache_tiers").unwrap();
        let cliff_full =
            i5.predict_ablated(&medium, full).total_s / i5.predict_ablated(&small, full).total_s;
        let cliff_flat =
            i5.predict_ablated(&medium, flat).total_s / i5.predict_ablated(&small, flat).total_s;
        assert!(
            cliff_full > cliff_flat * 1.5,
            "tiers on {cliff_full} vs off {cliff_flat}"
        );
    }

    #[test]
    fn ablating_launch_overhead_rescues_amd_nw() {
        let mut p = KernelProfile::new("nw-like");
        p.flops = 4096.0 * 4096.0 * 3.0;
        p.bytes_read = 4096.0 * 4096.0 * 8.0;
        p.working_set = 4096 * 4096 * 4;
        p.work_items = 4096;
        p.kernel_launches = 512;
        let r9 = device("R9 290X");
        let full = r9.predict(&p).total_s;
        let free = r9
            .predict_ablated(&p, ModelAblation::without("launch_overhead").unwrap())
            .total_s;
        assert!(
            full > free * 1.5,
            "launch overhead must dominate AMD's nw time: {full} vs {free}"
        );
    }

    #[test]
    fn bare_roofline_is_fastest_for_dram_resident_work() {
        // With the working set beyond every LLC, cache tiers give no bonus,
        // so the bare roofline (all penalties off) must be the fastest
        // configuration. (For cache-resident sets the tier *bonus* can beat
        // the bare DRAM-bandwidth roofline — that asymmetry is intended.)
        let mut p = srad_like(1 << 22);
        p.working_set = 96 << 20; // beyond even the E5's 30 MiB L3
        for m in DeviceModel::all() {
            let full = m.predict(&p).total_s;
            let bare = m
                .predict_ablated(&p, ModelAblation::bare_roofline())
                .total_s;
            assert!(bare <= full * 1.0001, "{}", m.spec().name);
        }
    }

    #[test]
    fn ablation_term_list_is_complete() {
        for &t in ModelAblation::terms() {
            assert!(ModelAblation::without(t).is_some(), "{t}");
        }
        assert!(ModelAblation::without("warp_specialization").is_none());
    }

    #[test]
    fn memory_bound_kernel_has_lower_ipc() {
        let i7 = device("i7-6700K");
        let mut compute = KernelProfile::new("c");
        compute.flops = 1e9;
        compute.bytes_read = 1e6;
        compute.working_set = 1 << 14;
        compute.work_items = 1 << 20;
        let mut memory = KernelProfile::new("m");
        memory.flops = 1e6;
        memory.bytes_read = 1e9;
        memory.working_set = 1 << 30;
        memory.work_items = 1 << 20;
        let cc = i7.predict(&compute);
        let cm = i7.predict(&memory);
        let ipc_c = i7.synthesize_counters(&compute, &cc).ipc().unwrap();
        let ipc_m = i7.synthesize_counters(&memory, &cm).ipc().unwrap();
        assert!(
            ipc_c > ipc_m,
            "compute-bound IPC {ipc_c} must exceed memory-bound {ipc_m}"
        );
    }

    #[test]
    fn warm_counter_synthesis_derives_nothing() {
        // csr medium's SpMV launch: Φ = 14336 at 0.5 % density, gathers
        // over an ≈ 8 MiB footprint — a ≈ 90 k-entry reuse histogram.
        let (n, nnz) = (14336u64, 14336 * 14336 / 200);
        let mut p = KernelProfile::new("csr::spmv");
        p.flops = 2.0 * nnz as f64;
        p.bytes_read = (nnz * 12 + (n + 1) * 4) as f64;
        p.bytes_written = (n * 4) as f64;
        p.working_set = nnz * 8 + (n + 1) * 4 + 2 * n * 4;
        p.pattern = AccessPattern::Gather;
        p.work_items = n;
        let dev = device("GTX 1080");
        let cost = dev.predict(&p);
        let warm = dev.synthesize_counters_engine(&p, &cost, CacheEngine::StackDistance);
        let before = crate::stackdist::derivations();
        for _ in 0..1000 {
            let c = dev.synthesize_counters_engine(&p, &cost, CacheEngine::StackDistance);
            assert_eq!(c, warm);
        }
        assert_eq!(
            crate::stackdist::derivations() - before,
            0,
            "a replayed launch must look its counts up, not derive them"
        );
    }
}

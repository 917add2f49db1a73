//! Architecture-independent kernel workload profiles.
//!
//! The paper's future-work section describes AIWC — Architecture Independent
//! Workload Characterization — as the lens for explaining why the same
//! OpenCL kernel lands so differently across devices. A [`KernelProfile`]
//! is this repository's concrete realization: a device-neutral description
//! of one kernel invocation that the [`crate::model`] maps onto any catalog
//! device.
//!
//! Every dwarf benchmark computes its profile analytically from its problem
//! parameters (e.g. kmeans derives flops = Pn·Cn·(3Fn+1)·iterations), so
//! profiles scale exactly as the real kernels do.

use serde::{Deserialize, Serialize};

/// Dominant memory access pattern of a kernel.
///
/// The pattern decides how much of a device's peak bandwidth is attainable:
/// streaming saturates DRAM, random access collapses to latency-bound
/// pointer chasing, and GPUs additionally lose coalescing on irregular
/// patterns while CPUs ride their prefetchers and deep caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Unit-stride sequential sweeps (srad, crc, fft data phases).
    Streaming,
    /// Fixed non-unit stride (column walks in lud, dwt subband passes).
    Strided,
    /// Data-dependent irregular access (csr column gathers).
    Gather,
    /// Effectively random (hash-like or transposed access).
    Random,
}

impl AccessPattern {
    /// Fraction of peak bandwidth attainable on a CPU-class device.
    pub fn cpu_efficiency(self) -> f64 {
        match self {
            AccessPattern::Streaming => 1.0,
            AccessPattern::Strided => 0.60,
            AccessPattern::Gather => 0.35,
            AccessPattern::Random => 0.22,
        }
    }

    /// Fraction of peak bandwidth attainable on a GPU-class device, where
    /// uncoalesced access is punished harder.
    pub fn gpu_efficiency(self) -> f64 {
        match self {
            AccessPattern::Streaming => 1.0,
            AccessPattern::Strided => 0.45,
            AccessPattern::Gather => 0.25,
            AccessPattern::Random => 0.10,
        }
    }
}

/// Device-neutral description of one kernel invocation (or one iteration of
/// a kernel loop — the unit the paper times).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelProfile {
    /// Kernel name for reports, e.g. `kmeans::assign`.
    pub name: String,
    /// Single-precision floating-point operations.
    pub flops: f64,
    /// Integer/logical ALU operations (crc is almost entirely these).
    pub int_ops: f64,
    /// Bytes read from the device memory system (pre-cache traffic).
    pub bytes_read: f64,
    /// Bytes written to the device memory system.
    pub bytes_written: f64,
    /// Device-side working set in bytes — the §4.4 Eq. 1 footprint that is
    /// compared against cache capacities.
    pub working_set: u64,
    /// Dominant access pattern.
    pub pattern: AccessPattern,
    /// Exposed parallelism: number of independent work-items per launch.
    pub work_items: u64,
    /// Fraction of the dynamic operation stream that is serially dependent
    /// (cannot be spread across lanes). 0 for embarrassingly parallel maps;
    /// crc's byte-chained table walk is ~0.9.
    pub serial_fraction: f64,
    /// Branch instructions as a fraction of total operations.
    pub branch_fraction: f64,
    /// Probability that work-items in a warp/wavefront diverge at a branch
    /// (0 = uniform control flow, 1 = fully divergent).
    pub branch_divergence: f64,
    /// Number of kernel launches this invocation performs (nw's wavefront
    /// sweep launches O(n/block) kernels; srad launches 2 per iteration).
    pub kernel_launches: u32,
}

impl KernelProfile {
    /// A neutral starting profile; benchmarks override fields from their
    /// problem parameters.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            flops: 0.0,
            int_ops: 0.0,
            bytes_read: 0.0,
            bytes_written: 0.0,
            working_set: 0,
            pattern: AccessPattern::Streaming,
            work_items: 1,
            serial_fraction: 0.0,
            branch_fraction: 0.05,
            branch_divergence: 0.0,
            kernel_launches: 1,
        }
    }

    /// Total ALU operations.
    pub fn total_ops(&self) -> f64 {
        self.flops + self.int_ops
    }

    /// Total memory traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in FLOP/byte — the roofline x-axis. The paper
    /// invokes this to explain crc (too low to feed a GPU) and kmeans
    /// (low FP:mem ratio keeps CPUs competitive).
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.total_bytes();
        if b == 0.0 {
            f64::INFINITY
        } else {
            self.flops / b
        }
    }

    /// Merge another profile that executes back-to-back within the same
    /// timed region (e.g. srad1 + srad2): ops and traffic add, working set
    /// takes the max, pattern takes the worse (lower GPU efficiency).
    pub fn chain(mut self, other: &KernelProfile) -> KernelProfile {
        self.flops += other.flops;
        self.int_ops += other.int_ops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.working_set = self.working_set.max(other.working_set);
        self.work_items = self.work_items.max(other.work_items);
        // Weighted blend of serial fractions by op volume.
        let ops_a = self.total_ops() - other.total_ops();
        let ops_b = other.total_ops();
        let tot = (ops_a + ops_b).max(1.0);
        self.serial_fraction = (self.serial_fraction * ops_a + other.serial_fraction * ops_b) / tot;
        self.branch_fraction = (self.branch_fraction * ops_a + other.branch_fraction * ops_b) / tot;
        self.branch_divergence = self.branch_divergence.max(other.branch_divergence);
        if other.pattern.gpu_efficiency() < self.pattern.gpu_efficiency() {
            self.pattern = other.pattern;
        }
        self.kernel_launches += other.kernel_launches;
        self
    }

    /// Sanity-check invariants; benchmarks call this in debug builds.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.serial_fraction) {
            return Err(format!(
                "serial_fraction {} out of [0,1]",
                self.serial_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.branch_divergence) {
            return Err(format!(
                "branch_divergence {} out of [0,1]",
                self.branch_divergence
            ));
        }
        if !(0.0..=1.0).contains(&self.branch_fraction) {
            return Err(format!(
                "branch_fraction {} out of [0,1]",
                self.branch_fraction
            ));
        }
        if self.flops < 0.0
            || self.int_ops < 0.0
            || self.bytes_read < 0.0
            || self.bytes_written < 0.0
        {
            return Err("negative op/byte counts".into());
        }
        if self.work_items == 0 {
            return Err("work_items must be at least 1".into());
        }
        if self.kernel_launches == 0 {
            return Err("kernel_launches must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity() {
        let mut p = KernelProfile::new("k");
        p.flops = 100.0;
        p.bytes_read = 40.0;
        p.bytes_written = 10.0;
        assert!((p.arithmetic_intensity() - 2.0).abs() < 1e-12);
        p.bytes_read = 0.0;
        p.bytes_written = 0.0;
        assert!(p.arithmetic_intensity().is_infinite());
    }

    #[test]
    fn pattern_efficiencies_ordered() {
        // GPUs must suffer at least as much as CPUs from irregularity.
        for p in [
            AccessPattern::Streaming,
            AccessPattern::Strided,
            AccessPattern::Gather,
            AccessPattern::Random,
        ] {
            assert!(p.gpu_efficiency() <= p.cpu_efficiency());
            assert!(p.gpu_efficiency() > 0.0);
        }
        assert!(AccessPattern::Random.cpu_efficiency() < AccessPattern::Streaming.cpu_efficiency());
    }

    #[test]
    fn chain_adds_and_takes_worst() {
        let mut a = KernelProfile::new("a");
        a.flops = 10.0;
        a.bytes_read = 100.0;
        a.pattern = AccessPattern::Streaming;
        a.working_set = 1000;
        let mut b = KernelProfile::new("b");
        b.flops = 5.0;
        b.bytes_written = 50.0;
        b.pattern = AccessPattern::Gather;
        b.working_set = 500;
        b.kernel_launches = 2;
        let c = a.chain(&b);
        assert_eq!(c.flops, 15.0);
        assert_eq!(c.total_bytes(), 150.0);
        assert_eq!(c.working_set, 1000);
        assert_eq!(c.pattern, AccessPattern::Gather);
        assert_eq!(c.kernel_launches, 3);
    }

    #[test]
    fn validate_catches_bad_fields() {
        let mut p = KernelProfile::new("p");
        assert!(p.validate().is_ok());
        p.serial_fraction = 1.5;
        assert!(p.validate().is_err());
        p.serial_fraction = 0.5;
        p.work_items = 0;
        assert!(p.validate().is_err());
        p.work_items = 8;
        p.flops = -1.0;
        assert!(p.validate().is_err());
    }
}

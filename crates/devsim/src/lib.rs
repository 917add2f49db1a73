//! `eod-devsim` — a hardware substrate for heterogeneous benchmarking.
//!
//! The Extended OpenDwarfs paper evaluates eleven OpenCL benchmarks on
//! fifteen physical devices (Table 1): three Intel CPUs, five Nvidia GPUs,
//! six AMD GPUs and one Xeon Phi Knights Landing. This repository has one
//! Linux host and no accelerators, so — per the reproduction's substitution
//! rule — this crate builds the closest synthetic equivalent:
//!
//! * [`catalog`] — the full Table 1 device catalog, extended with the public
//!   performance parameters (peak GFLOP/s, memory bandwidth, launch
//!   overhead, PCIe generation) the timing model needs;
//! * [`cache`] — a trace-driven set-associative LRU cache and TLB simulator
//!   used both to verify the §4.4 problem-size methodology and to synthesize
//!   PAPI-style counters;
//! * [`profile`] — an architecture-independent description of one kernel
//!   invocation (flops, bytes, working set, access pattern, branch
//!   divergence, serial fraction, launch count);
//! * [`model`] — the roofline-with-overheads timing model mapping a
//!   [`profile::KernelProfile`] onto a device, producing predicted time,
//!   utilization, and synthesized hardware counters;
//! * [`stackdist`] — the one-pass reuse-distance cache engine: lazy trace
//!   generators, Mattson stack-distance histograms with a hypergeometric
//!   set-associativity correction, memoized per-workload analyses, and
//!   the `CacheEngine` choice between it and the exact simulator;
//! * [`energy`] — the TDP-anchored power model behind the RAPL/NVML meters;
//! * [`noise`] — the measurement-noise model reproducing the paper's
//!   observation that the coefficient of variation grows as device clocks
//!   shrink;
//! * [`transfer`] — host↔device memory transfer modeling (PCIe for
//!   discrete devices, cache-speed memcpy for CPU "transfers").
//!
//! The model is calibrated for *shape fidelity*, not absolute numbers: the
//! quantities the paper reasons about (who wins crc, how the srad CPU–GPU
//! gap scales, where the i5-3550's L3 cliff falls, why KNL disappoints) all
//! emerge from the published device parameters.

pub mod cache;
pub mod catalog;
pub mod energy;
pub mod model;
pub mod noise;
pub mod profile;
pub mod roofline;
pub mod stackdist;
pub mod transfer;

pub use cache::{CacheConfig, CacheHierarchy, CacheSim, TlbConfig};
pub use catalog::{AcceleratorClass, DeviceId, DeviceSpec, Vendor, CATALOG};
pub use energy::PowerModel;
pub use model::{DeviceModel, KernelCost, ModelAblation};
pub use noise::NoiseModel;
pub use profile::{AccessPattern, KernelProfile};
pub use stackdist::{CacheEngine, HierarchyShape, HistogramCache, TraceAnalysis, TracePass};
pub use transfer::TransferModel;

//! `eod-core` — the spine of the Extended OpenDwarfs suite.
//!
//! This crate holds everything the eleven benchmarks share:
//!
//! * [`dwarf`] — the 13 Berkeley Dwarfs taxonomy and the benchmark→dwarf
//!   mapping from §2/§5 of the paper;
//! * [`sizes`] — the four problem sizes and the Table 2 workload scale
//!   parameters Φ;
//! * [`sizing`] — the §4.4 methodology: size each problem against the
//!   Skylake memory hierarchy (tiny ⊆ L1, small ⊆ L2, medium ⊆ L3,
//!   large ≥ 4×L3) given a footprint function;
//! * [`benchmark`] — the [`benchmark::Benchmark`]/[`benchmark::Workload`]
//!   traits every dwarf implements, and the run-output plumbing
//!   (per-iteration kernel events, as the paper sums "all compute time
//!   spent on the accelerator for all kernels");
//! * [`args`] — the Table 3 program-argument grammar;
//! * [`validation`] — output-correctness helpers ("comparing outputs
//!   against a serial implementation … or comparing norms", §4.4.2);
//! * [`recorded`] — one recorded execution per (benchmark, size, seed):
//!   the device-independent command list of a run, the bounded store that
//!   shares it, and the [`recorded::Source`] a measurement group iterates
//!   (the live workload, or the recorded run priced on its own device);
//! * [`spec`] — serializable job specifications and stable content
//!   hashing for the execution service;
//! * [`fleet`] — the distributed-fleet vocabulary shared by the
//!   coordinator, the workers, and client-facing status output: worker
//!   capability advertisements, lease terms, and per-job attempt history.

pub mod args;
pub mod benchmark;
pub mod dwarf;
pub mod fleet;
pub mod predict;
pub mod recorded;
pub mod sizes;
pub mod sizing;
pub mod spec;
pub mod validation;

pub use benchmark::{Benchmark, IterationOutput, Workload};
pub use dwarf::Dwarf;
pub use fleet::{Attempt, AttemptOutcome, LeaseTerms, WorkerCapabilities};
pub use predict::{Prediction, PredictionSet, ProfileProvenance};
pub use recorded::{model_only_run, RecordedRun, RunLog, Source};
pub use sizes::{ProblemSize, ScaleTable};
pub use sizing::SkylakeHierarchy;
pub use spec::{ExecConfig, JobSpec, Priority};

//! `eod-dwarfs` — the eleven Extended OpenDwarfs benchmarks, in Rust.
//!
//! Each module implements one benchmark from the paper, rewritten from
//! scratch against the `eod-clrt` runtime with the same kernel
//! decomposition as the OpenCL original, plus everything the paper's
//! methodology demands:
//!
//! | module | dwarf | kernels |
//! |---|---|---|
//! | [`kmeans`] | MapReduce | point→centroid assignment |
//! | [`lud`] | Dense Linear Algebra | Rodinia-style diagonal/perimeter/internal blocked LU |
//! | [`csr`] | Sparse Linear Algebra | row-per-work-item CSR SpMV over `createcsr`-style matrices |
//! | [`fft`] | Spectral Methods | radix-2 Stockham passes (Bainville-style high-performance FFT) |
//! | [`dwt`] | Spectral Methods | 2-D CDF(5,3) lifting, separable row/column kernels |
//! | [`srad`] | Structured Grid | srad1 (coefficients) + srad2 (update) stencils |
//! | [`crc`] | Combinational Logic | page-parallel table-driven CRC32 + GF(2) combine |
//! | [`nw`] | Dynamic Programming | per-block-diagonal Needleman–Wunsch wavefront |
//! | [`gem`] | N-Body Methods | electrostatic surface potential (all-pairs) |
//! | [`nqueens`] | Backtrack & Branch-and-Bound | prefix-parallel bitmask backtracking |
//! | [`hmm`] | Graphical Models | Baum–Welch forward/backward/re-estimate |
//!
//! Every benchmark provides a deterministic workload generator (the paper
//! replaced file inputs with generated data for cache fairness — §4.4.1 —
//! and we extend that to all file-based inputs), a serial reference
//! implementation, a `verify()` comparing device results against it
//! (§4.4.2), an Eq. 1-style footprint formula validated against the Table 2
//! Φ values, and an exact analytic [`eod_devsim::profile::KernelProfile`].

pub mod aiwc;
pub mod common;
pub mod crc;
pub mod csr;
pub mod cwt;
pub mod dwt;
pub mod fft;
pub mod gem;
pub mod hmm;
pub mod kmeans;
pub mod lud;
pub mod nqueens;
pub mod nw;
pub mod registry;
pub mod srad;

pub use registry::{all_benchmarks, benchmark_by_name};

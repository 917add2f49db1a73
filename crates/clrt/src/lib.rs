//! `eod-clrt` — an OpenCL-style heterogeneous runtime, from scratch in Rust.
//!
//! The Extended OpenDwarfs suite is a set of OpenCL host programs + kernels;
//! what makes it portable is the OpenCL *host API contract*: platforms
//! enumerate devices, contexts own buffers, in-order command queues accept
//! buffer transfers and ND-range kernel launches, and profiling events report
//! `QUEUED`/`SUBMIT`/`START`/`END` timestamps. This crate reimplements that
//! contract so every benchmark in `eod-dwarfs` runs unmodified on:
//!
//! * the **native host device** with wall-clock timing — kernels really
//!   execute, work-groups are scheduled across host threads with Rayon (the
//!   same shape as Intel's OpenCL CPU driver, which fissions work-groups
//!   over TBB), and events carry real wall-clock timestamps;
//! * the **simulated accelerators** — one device per Table 1 entry.
//!   Kernels still really execute (so results stay correct and verifiable)
//!   on a *recording* context, which tapes what was asked of the device —
//!   allocation sizes, transfer bytes, one profile per launch. The tape is
//!   then priced on a simulated device's queue: event timestamps come from
//!   `eod-devsim`'s calibrated timing model plus its measurement-noise
//!   model, and hardware counters are synthesized to match.
//!
//! Orthogonal to the per-device timing source, every launch goes through
//! one host dispatcher: kernels exposing a
//! [`kernel::KernelBody::Vectorized`] body over the [`vecops`] primitives
//! take the slice-level fast path, the rest the per-item work-group loop.
//! A real-OpenCL port would replace two seams and no kernel: device
//! discovery ([`platform::Platform::all`]) and launch (the queue's
//! dispatch).
//!
//! Device memory is modeled soundly: a [`buffer::Buffer`] stores scalars as
//! relaxed atomics (free on x86-64: a relaxed load/store compiles to a plain
//! `mov`), so concurrent work-items can write disjoint elements safely —
//! exactly the discipline OpenCL kernels follow. Per-element atomics remain
//! the semantic model; bulk transfers and row/tile staging additionally get
//! a memcpy-style fast path ([`buffer::BufView::read_slice`] and friends)
//! that exploits the bit-compatibility of each scalar with its atomic cell
//! (see [`scalar::Scalar::LAYOUT_COMPAT`]), and vectorized kernels borrow
//! their spans zero-copy ([`buffer::BufView::slice`]/
//! [`buffer::BufView::slice_mut`]). Kernel dispatch is adaptive: small
//! launches run inline, large ones fan out by group index with no
//! per-launch allocation.
//!
//! ```
//! use eod_clrt::prelude::*;
//!
//! let platform = Platform::simulated();
//! let device = platform.device_by_name("GTX 1080").unwrap();
//!
//! // Record: a SAXPY over 1024 work-items executes for real.
//! let ctx = Context::recording(device.clone());
//! let queue = CommandQueue::new(&ctx);
//! let x = ctx.create_buffer_from(&vec![1.0f32; 1024]).unwrap();
//! let y = ctx.create_buffer_from(&vec![2.0f32; 1024]).unwrap();
//! let k = ClosureKernel::new("saxpy", 1024, {
//!     let (x, y) = (x.view(), y.view());
//!     move |item: &WorkItem| {
//!         let i = item.global_id(0);
//!         y.set(i, y.get(i) + 2.0 * x.get(i));
//!     }
//! });
//! queue.enqueue_kernel(&k, &NdRange::d1(1024, 64)).unwrap();
//! let mut out = vec![0.0f32; 1024];
//! queue.enqueue_read_buffer(&y, &mut out).unwrap();
//! assert!(out.iter().all(|&v| v == 4.0));
//!
//! // Price: the tape on the device's modeled clock.
//! let tape = ctx.finish_recording();
//! let priced = CommandQueue::new(&Context::new(device)).with_profiling();
//! let events: Vec<Event> = tape
//!     .iter()
//!     .filter_map(|cmd| priced.enqueue_recorded(cmd).unwrap())
//!     .collect();
//! assert_eq!(events[0].name, "saxpy");
//! assert!(events[0].duration().as_nanos() > 0);
//! assert!(events[0].counters.is_some());
//! ```

mod backend;
pub mod buffer;
pub mod context;
pub mod device;
pub mod error;
pub mod event;
pub mod kernel;
pub mod ndrange;
pub mod platform;
pub mod queue;
pub mod record;
pub mod scalar;
pub mod vecops;

/// Everything a benchmark host program needs.
pub mod prelude {
    pub use crate::buffer::{BufView, Buffer};
    pub use crate::context::Context;
    pub use crate::device::{Device, Timing};
    pub use crate::error::{Error, Result};
    pub use crate::event::{CommandKind, Event};
    pub use crate::kernel::{ClosureKernel, Kernel, KernelBody, VectorizedBody};
    pub use crate::ndrange::{NdRange, WorkGroup, WorkItem};
    pub use crate::platform::Platform;
    pub use crate::queue::CommandQueue;
    pub use crate::record::Command;
    pub use crate::scalar::Scalar;
}

pub use prelude::*;

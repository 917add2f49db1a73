//! Pluggable execution backends.
//!
//! A [`Backend`] owns the four seams a real OpenCL port would replace:
//! device enumeration ([`Backend::platforms`]), buffer allocation
//! ([`Backend::preflight_alloc`]), kernel launch ([`Backend::launch`]),
//! and event timing (the launch returns the elapsed wall seconds the
//! queue stamps into profiling events). Kernels are written once against
//! the OpenCL-style API; which backend executes them is a process-wide
//! default (`--backend`, mirroring `--cache-engine`) that a
//! [`crate::queue::CommandQueue`] snapshots at creation.
//!
//! Two implementations exist:
//!
//! * [`NativeCpu`] — today's behavior: work-groups fan out across host
//!   threads, and kernels that expose a
//!   [`KernelBody::Vectorized`](crate::kernel::KernelBody) body take the
//!   slice-level fast path (subject to the process-wide [`KernelPath`]
//!   switch).
//! * [`DevsimReplay`] — a deliberately minimal substrate for
//!   model-timed replay: launches run sequentially inline on the calling
//!   thread. Figure pipelines replaying on the simulated fleet get their
//!   timing from the devsim model (one noise draw per enqueue, on either
//!   backend), so serializing execution changes nothing observable while
//!   keeping thread-pool variance out of replay-heavy services.
//!
//! Figure CSVs must be byte-identical across backend × kernel-path: the
//! modeled event timeline is a pure function of the kernel *profile* (not
//! of how the work was executed), and every ported vectorized body
//! preserves its scalar counterpart's per-element arithmetic and
//! association order. The determinism tests and the CI backend-equivalence
//! smoke hold both halves of that argument in place.

use crate::device::Device;
use crate::error::{Error, Result};
use crate::kernel::{Kernel, KernelBody, VectorizedBody};
use crate::ndrange::NdRange;
use crate::platform::Platform;
use crate::queue::DispatchMode;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::time::Instant;

/// Selector for the two built-in backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BackendKind {
    /// Threaded host execution with the vectorized fast path.
    Native = 0,
    /// Sequential inline execution for model-timed replay.
    Devsim = 1,
}

impl BackendKind {
    /// Parse a `--backend` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "native" => Some(Self::Native),
            "devsim" => Some(Self::Devsim),
            _ => None,
        }
    }

    /// The CLI/telemetry name.
    pub fn label(self) -> &'static str {
        match self {
            Self::Native => "native",
            Self::Devsim => "devsim",
        }
    }

    /// The backend singleton this selector names.
    pub fn instance(self) -> &'static dyn Backend {
        match self {
            Self::Native => &NativeCpu,
            Self::Devsim => &DevsimReplay,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => Self::Devsim,
            _ => Self::Native,
        }
    }
}

/// An execution substrate for the OpenCL-style API.
///
/// Object-safe so queues can hold `&'static dyn Backend`; implementations
/// are stateless singletons ([`BackendKind::instance`]). A future real
/// OpenCL backend would implement exactly this surface and slot in behind
/// the same kernels.
pub trait Backend: Send + Sync {
    /// Which selector names this backend.
    fn kind(&self) -> BackendKind;

    /// Backend name for status lines and telemetry span args.
    fn name(&self) -> &'static str {
        self.kind().label()
    }

    /// Device enumeration: the platforms this backend exposes. Both
    /// built-ins expose the standard pair (native host + simulated Table 1
    /// fleet); a real OpenCL backend would query the ICD here.
    fn platforms(&self) -> Vec<Platform> {
        Platform::all()
    }

    /// Buffer-allocation admission check: may `requested` more bytes be
    /// allocated on `device` when `in_use` bytes already are? The default
    /// enforces the device's global memory capacity — the paper's §4.4
    /// footprint discipline.
    fn preflight_alloc(&self, device: &Device, requested: u64, in_use: u64) -> Result<()> {
        let capacity = device.global_mem_bytes();
        if in_use + requested > capacity {
            return Err(Error::OutOfDeviceMemory {
                requested,
                allocated: in_use,
                capacity,
            });
        }
        Ok(())
    }

    /// Execute one kernel launch over `range` and return the elapsed wall
    /// seconds (the queue's event-timing input; modeled timing ignores it
    /// and prices the kernel profile instead).
    fn launch(&self, kernel: &dyn Kernel, range: &NdRange, mode: DispatchMode) -> f64;
}

/// Threaded host execution — today's behavior, plus the vectorized path.
pub struct NativeCpu;

impl Backend for NativeCpu {
    fn kind(&self) -> BackendKind {
        BackendKind::Native
    }

    fn launch(&self, kernel: &dyn Kernel, range: &NdRange, mode: DispatchMode) -> f64 {
        let start = Instant::now();
        match kernel.body() {
            KernelBody::Vectorized(body) if default_kernel_path() == KernelPath::Vectorized => {
                run_vectorized(body, mode, true)
            }
            _ => run_groups(kernel, range, mode, true),
        }
        start.elapsed().as_secs_f64()
    }
}

/// Sequential inline execution for model-timed replay.
pub struct DevsimReplay;

impl Backend for DevsimReplay {
    fn kind(&self) -> BackendKind {
        BackendKind::Devsim
    }

    fn launch(&self, kernel: &dyn Kernel, range: &NdRange, mode: DispatchMode) -> f64 {
        let start = Instant::now();
        match kernel.body() {
            KernelBody::Vectorized(body) if default_kernel_path() == KernelPath::Vectorized => {
                run_vectorized(body, mode, false)
            }
            _ => run_groups(kernel, range, mode, false),
        }
        start.elapsed().as_secs_f64()
    }
}

/// The per-item work-group dispatch (the scalar path).
fn run_groups(kernel: &dyn Kernel, range: &NdRange, mode: DispatchMode, allow_parallel: bool) {
    let n = range.group_count();
    let inline = !allow_parallel
        || match mode {
            DispatchMode::Inline => true,
            DispatchMode::Parallel => false,
            DispatchMode::Adaptive => n <= 1 || range.global_volume() <= inline_threshold(),
        };
    if inline {
        for group in range.work_groups() {
            kernel.run_group(&group);
        }
    } else {
        (0..n)
            .into_par_iter()
            .for_each(|flat| kernel.run_group(&range.group_at(flat)));
    }
}

/// The slice-span dispatch (the vectorized path). Spans are disjoint and
/// aligned to the body's granularity, so `run_span` implementations may
/// mutably borrow exactly the elements they own.
fn run_vectorized(body: &dyn VectorizedBody, mode: DispatchMode, allow_parallel: bool) {
    let n = body.domain();
    if n == 0 {
        return;
    }
    let gran = body.granularity().max(1);
    let units = n.div_ceil(gran);
    let inline = units <= 1
        || !allow_parallel
        || match mode {
            DispatchMode::Inline => true,
            DispatchMode::Parallel => false,
            DispatchMode::Adaptive => n <= inline_threshold(),
        };
    if inline {
        body.run_span(0..n);
        return;
    }
    // Spans per worker > 1 so work-stealing can balance uneven spans
    // without fragmenting into per-unit tasks.
    let workers = std::thread::available_parallelism().map_or(4, |w| w.get());
    let spans = (workers * 4).min(units);
    let units_per_span = units.div_ceil(spans);
    (0..spans).into_par_iter().for_each(|s| {
        let lo = (s * units_per_span * gran).min(n);
        let hi = ((s + 1) * units_per_span * gran).min(n);
        if lo < hi {
            body.run_span(lo..hi);
        }
    });
}

static DEFAULT_BACKEND: AtomicU8 = AtomicU8::new(BackendKind::Native as u8);

/// The process-wide backend default — what new command queues snapshot.
pub fn default_backend() -> BackendKind {
    BackendKind::from_u8(DEFAULT_BACKEND.load(Ordering::Relaxed))
}

/// Set the process-wide backend default (the `--backend` flag). Queues
/// created before the call keep the backend they snapshotted.
pub fn set_default_backend(kind: BackendKind) {
    DEFAULT_BACKEND.store(kind as u8, Ordering::Relaxed);
}

/// Which execution variant vectorized-capable kernels take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum KernelPath {
    /// Force the per-item work-group loop everywhere (the reference path).
    Scalar = 0,
    /// Take [`KernelBody::Vectorized`](crate::kernel::KernelBody) bodies
    /// where kernels expose them (the default).
    Vectorized = 1,
}

impl KernelPath {
    /// Parse a `--kernel-path` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(Self::Scalar),
            "vectorized" => Some(Self::Vectorized),
            _ => None,
        }
    }

    /// The CLI/telemetry name.
    pub fn label(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Vectorized => "vectorized",
        }
    }
}

static KERNEL_PATH: AtomicU8 = AtomicU8::new(KernelPath::Vectorized as u8);

/// The process-wide kernel-path switch, read at every launch.
pub fn default_kernel_path() -> KernelPath {
    if KERNEL_PATH.load(Ordering::Relaxed) == KernelPath::Scalar as u8 {
        KernelPath::Scalar
    } else {
        KernelPath::Vectorized
    }
}

/// Set the process-wide kernel path (the `--kernel-path` flag; equivalence
/// tests and the bench harness toggle it around measurements).
pub fn set_default_kernel_path(path: KernelPath) {
    KERNEL_PATH.store(path as u8, Ordering::Relaxed);
}

/// Built-in `Adaptive` inline threshold, in work-items. Launches at or
/// under it run inline on the enqueuing thread; PR 4 calibrated the value
/// on the native host (see DESIGN.md §dispatch for the methodology and
/// `EOD_INLINE_THRESHOLD` for re-calibration on other hosts).
pub const DEFAULT_INLINE_THRESHOLD: usize = 4096;

/// 0 = unset; read lazily so the env var is consulted exactly once.
static INLINE_THRESHOLD: AtomicUsize = AtomicUsize::new(0);

/// The `DispatchMode::Adaptive` inline/parallel crossover, in work-items.
/// First read resolves `EOD_INLINE_THRESHOLD` (falling back to
/// [`DEFAULT_INLINE_THRESHOLD`] when unset or unparsable); later reads are
/// a relaxed load.
pub fn inline_threshold() -> usize {
    match INLINE_THRESHOLD.load(Ordering::Relaxed) {
        0 => {
            let v = std::env::var("EOD_INLINE_THRESHOLD")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&v| v > 0)
                .unwrap_or(DEFAULT_INLINE_THRESHOLD);
            INLINE_THRESHOLD.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// Override the inline threshold programmatically (tests, calibration
/// sweeps). `items` must be non-zero.
pub fn set_inline_threshold(items: usize) {
    assert!(items > 0, "inline threshold must be non-zero");
    INLINE_THRESHOLD.store(items, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Range;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// Serializes tests that flip process-wide switches.
    static SWITCH_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn kind_parse_label_roundtrip() {
        for kind in [BackendKind::Native, BackendKind::Devsim] {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.instance().kind(), kind);
            assert_eq!(kind.instance().name(), kind.label());
        }
        assert_eq!(BackendKind::parse("opencl"), None);
        for path in [KernelPath::Scalar, KernelPath::Vectorized] {
            assert_eq!(KernelPath::parse(path.label()), Some(path));
        }
        assert_eq!(KernelPath::parse("simd"), None);
    }

    #[test]
    fn default_backend_switch() {
        let _g = SWITCH_LOCK.lock().unwrap();
        assert_eq!(default_backend(), BackendKind::Native);
        set_default_backend(BackendKind::Devsim);
        assert_eq!(default_backend(), BackendKind::Devsim);
        set_default_backend(BackendKind::Native);
    }

    #[test]
    fn both_backends_enumerate_standard_platforms() {
        for kind in [BackendKind::Native, BackendKind::Devsim] {
            let platforms = kind.instance().platforms();
            assert_eq!(platforms.len(), 2);
            assert_eq!(platforms[0].devices().len(), 1);
        }
    }

    #[test]
    fn preflight_enforces_capacity() {
        let d = Device::native();
        let be = BackendKind::Native.instance();
        assert!(be.preflight_alloc(&d, 1024, 0).is_ok());
        let cap = d.global_mem_bytes();
        let err = be.preflight_alloc(&d, 1024, cap).unwrap_err();
        assert!(matches!(err, Error::OutOfDeviceMemory { .. }));
    }

    #[test]
    fn inline_threshold_default_and_override() {
        let _g = SWITCH_LOCK.lock().unwrap();
        // Whatever the ambient env said, an explicit set wins afterwards.
        let ambient = inline_threshold();
        assert!(ambient > 0);
        set_inline_threshold(128);
        assert_eq!(inline_threshold(), 128);
        set_inline_threshold(DEFAULT_INLINE_THRESHOLD);
    }

    struct SpanRecorder {
        n: usize,
        gran: usize,
        touched: Vec<AtomicUsize>,
    }

    impl VectorizedBody for SpanRecorder {
        fn domain(&self) -> usize {
            self.n
        }
        fn granularity(&self) -> usize {
            self.gran
        }
        fn run_span(&self, span: Range<usize>) {
            // Span boundaries respect granularity (except the final edge
            // at `domain()` itself).
            assert_eq!(span.start % self.gran, 0, "unaligned span start");
            assert!(span.end == self.n || span.end.is_multiple_of(self.gran));
            for i in span {
                self.touched[i].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn vectorized_dispatch_covers_domain_exactly_once() {
        for (n, gran, mode) in [
            (10_000, 1, DispatchMode::Parallel),
            (10_000, 1, DispatchMode::Inline),
            (9_999, 7, DispatchMode::Parallel),
            (64, 64, DispatchMode::Parallel),
            (100_000, 250, DispatchMode::Adaptive),
            (0, 1, DispatchMode::Parallel),
        ] {
            let body = SpanRecorder {
                n,
                gran,
                touched: (0..n).map(|_| AtomicUsize::new(0)).collect(),
            };
            run_vectorized(&body, mode, true);
            for (i, c) in body.touched.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "element {i} under {mode:?}");
            }
        }
    }
}

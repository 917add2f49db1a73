//! STREAM-style bandwidth probe: copy, scale, add, triad.
//!
//! Three `f32` arrays `a`, `b`, `c` of equal length; one iteration launches
//! the four classic kernels with McCalpin's byte accounting (copy/scale
//! move 2 arrays, add/triad move 3). `a` is never written, so iterations
//! are idempotent and the verifier can compare against a closed-form host
//! reference. The `stride` knob touches every `stride`-th element — the
//! continuous axis between streaming and strided access that the discrete
//! dwarfs cannot express.

use crate::{round_up, SynthSpec, LOCAL_SIZE};
use eod_clrt::prelude::*;
use eod_core::benchmark::{IterationOutput, Workload};
use eod_devsim::profile::{AccessPattern, KernelProfile};

/// STREAM's scalar `q` (McCalpin uses 3.0).
pub const SCALAR: f32 = 3.0;

/// Minimum traffic one kernel launch moves, by repeating whole passes
/// inside the launch. Small footprints would otherwise be launch-overhead
/// bound (~µs of overhead vs ~ns of L1 traffic) and the cache cliffs would
/// drown; amortizing inside the launch is how lmbench/STREAM-style probes
/// measure small working sets too.
pub const TRAFFIC_TARGET: u64 = 8 << 20;

/// Passes per launch for an op touching `touched` elements: enough whole
/// passes to move at least [`TRAFFIC_TARGET`] bytes.
pub fn reps_for(touched: usize, op: StreamOp) -> u64 {
    let pass = (touched as u64 * 4 * op.arrays_moved() as u64).max(1);
    TRAFFIC_TARGET.div_ceil(pass)
}

/// Elements per array for a requested total footprint: three arrays of
/// `f32`, rounded *to the nearest* work-group multiple (so the realized
/// footprint is within one work-group of the request), minimum one group.
pub fn elems_per_array(footprint_bytes: u64) -> usize {
    let ideal = footprint_bytes as f64 / (3.0 * 4.0);
    let groups = (ideal / LOCAL_SIZE as f64).round().max(1.0) as usize;
    groups * LOCAL_SIZE
}

/// Which of the four STREAM operations a kernel launch performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = q·a[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `b[i] = c[i] + q·a[i]` (destination chosen so `a` stays read-only)
    Triad,
}

impl StreamOp {
    /// All four, in McCalpin's order.
    pub fn all() -> [StreamOp; 4] {
        [
            StreamOp::Copy,
            StreamOp::Scale,
            StreamOp::Add,
            StreamOp::Triad,
        ]
    }

    /// Arrays moved per touched element (McCalpin's accounting).
    pub fn arrays_moved(self) -> u32 {
        match self {
            StreamOp::Copy | StreamOp::Scale => 2,
            StreamOp::Add | StreamOp::Triad => 3,
        }
    }

    fn kernel_name(self) -> &'static str {
        match self {
            StreamOp::Copy => "synth::stream_copy",
            StreamOp::Scale => "synth::stream_scale",
            StreamOp::Add => "synth::stream_add",
            StreamOp::Triad => "synth::stream_triad",
        }
    }

    fn flops_per_elem(self) -> f64 {
        match self {
            StreamOp::Copy => 0.0,
            StreamOp::Scale | StreamOp::Add => 1.0,
            StreamOp::Triad => 2.0,
        }
    }
}

/// Bytes one iteration (all four ops, amortizing passes included) moves
/// for `n` elements at `stride`.
pub fn bytes_per_iteration(n: usize, stride: u64) -> f64 {
    let touched = n.div_ceil(stride as usize);
    StreamOp::all()
        .iter()
        .map(|&op| (touched as u64 * 4 * op.arrays_moved() as u64 * reps_for(touched, op)) as f64)
        .sum()
}

struct StreamKernel {
    op: StreamOp,
    a: BufView<f32>,
    b: BufView<f32>,
    c: BufView<f32>,
    n: usize,
    stride: usize,
}

impl Kernel for StreamKernel {
    fn name(&self) -> &str {
        self.op.kernel_name()
    }

    fn profile(&self) -> KernelProfile {
        let touched = self.n.div_ceil(self.stride);
        let reps = reps_for(touched, self.op) as f64;
        let touched = touched as f64;
        let moved = self.op.arrays_moved() as f64;
        let mut prof = KernelProfile::new(self.op.kernel_name());
        prof.flops = touched * self.op.flops_per_elem() * reps;
        // One of the moved arrays is the destination.
        prof.bytes_read = touched * 4.0 * (moved - 1.0) * reps;
        prof.bytes_written = touched * 4.0 * reps;
        // Strided access still drags whole arrays through the hierarchy
        // (each 64 B line holds 16 f32; stride < 16 touches every line).
        prof.working_set = (self.n as u64) * 4 * 3;
        prof.pattern = if self.stride == 1 {
            AccessPattern::Streaming
        } else {
            AccessPattern::Strided
        };
        prof.work_items = touched.max(1.0) as u64;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        // Each op is idempotent (destinations never feed their own pass),
        // so the amortizing repeats change traffic, not results.
        let reps = reps_for(self.n.div_ceil(self.stride), self.op);
        for item in group.items() {
            let i = item.global_id(0) * self.stride;
            if i >= self.n {
                continue;
            }
            for _ in 0..reps {
                match self.op {
                    StreamOp::Copy => self.c.set(i, self.a.get(i)),
                    StreamOp::Scale => self.b.set(i, SCALAR * self.a.get(i)),
                    StreamOp::Add => self.c.set(i, self.a.get(i) + self.b.get(i)),
                    StreamOp::Triad => self.b.set(i, self.c.get(i) + SCALAR * self.a.get(i)),
                }
            }
        }
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for StreamKernel {
    fn domain(&self) -> usize {
        // Touched elements, un-padded: index j maps to element j·stride,
        // and (touched−1)·stride ≤ n−1, so no in-span guard is needed.
        self.n.div_ceil(self.stride)
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        // Repeats hoist to whole-span passes (idempotent, as above): the
        // per-item path re-touches one element reps times; here each pass
        // streams the span, which is both what real STREAM does and what
        // lets the compiler vectorize. Per-element math is identical.
        let reps = reps_for(self.n.div_ceil(self.stride), self.op);
        if self.stride == 1 {
            // SAFETY: every op reads only arrays its launch never writes
            // (`a` always; `b`/`c` when they are sources) and writes only
            // its destination, which this call exclusively owns — spans
            // are disjoint and no op has overlapping source/destination.
            unsafe {
                let a = self.a.slice(span.clone());
                match self.op {
                    StreamOp::Copy => {
                        let c = self.c.slice_mut(span);
                        for _ in 0..reps {
                            c.copy_from_slice(a);
                        }
                    }
                    StreamOp::Scale => {
                        let b = self.b.slice_mut(span);
                        for _ in 0..reps {
                            eod_clrt::vecops::scale(a, SCALAR, b);
                        }
                    }
                    StreamOp::Add => {
                        let b = self.b.slice(span.clone());
                        let c = self.c.slice_mut(span);
                        for _ in 0..reps {
                            eod_clrt::vecops::zip_map(a, b, c, |x, y| x + y);
                        }
                    }
                    StreamOp::Triad => {
                        let c = self.c.slice(span.clone());
                        let b = self.b.slice_mut(span);
                        for _ in 0..reps {
                            eod_clrt::vecops::scaled_add(c, SCALAR, a, b);
                        }
                    }
                }
            }
        } else {
            // Strided: same expressions through the checked accessors,
            // reps still hoisted outermost.
            for _ in 0..reps {
                for j in span.clone() {
                    let i = j * self.stride;
                    match self.op {
                        StreamOp::Copy => self.c.set(i, self.a.get(i)),
                        StreamOp::Scale => self.b.set(i, SCALAR * self.a.get(i)),
                        StreamOp::Add => self.c.set(i, self.a.get(i) + self.b.get(i)),
                        StreamOp::Triad => self.b.set(i, self.c.get(i) + SCALAR * self.a.get(i)),
                    }
                }
            }
        }
    }
}

/// A configured STREAM instance.
pub struct StreamWorkload {
    spec: SynthSpec,
    seed: u64,
    n: usize,
    ready: bool,
    host_a: Vec<f32>,
    bufs: Option<[Buffer<f32>; 3]>,
    range: NdRange,
}

impl StreamWorkload {
    /// Build from a spec (family must be `stream`) and a seed.
    pub fn new(spec: SynthSpec, seed: u64) -> Self {
        let n = elems_per_array(spec.footprint_bytes);
        let items = n.div_ceil(spec.stride as usize);
        Self {
            spec,
            seed,
            n,
            ready: false,
            host_a: Vec::new(),
            bufs: None,
            range: NdRange::d1(round_up(items.max(1), LOCAL_SIZE), LOCAL_SIZE),
        }
    }

    /// Elements per array after granularity rounding.
    pub fn elems(&self) -> usize {
        self.n
    }

    fn kernel(&self, op: StreamOp) -> StreamKernel {
        let bufs = self.bufs.as_ref().expect("ready implies buffers");
        StreamKernel {
            op,
            a: bufs[0].view(),
            b: bufs[1].view(),
            c: bufs[2].view(),
            n: self.n,
            stride: self.spec.stride as usize,
        }
    }
}

impl Workload for StreamWorkload {
    fn footprint_bytes(&self) -> u64 {
        (self.n as u64) * 4 * 3
    }

    fn setup(&mut self, ctx: &Context, queue: &CommandQueue) -> Result<Vec<Event>> {
        let mut s = self.seed ^ 0x5741_5245_5354_5245; // "STREAMW" tag
        self.host_a = (0..self.n)
            .map(|_| (crate::splitmix64(&mut s) % 1024) as f32 / 1024.0)
            .collect();
        let a = ctx.create_buffer_from(&self.host_a)?;
        let b = ctx.create_buffer::<f32>(self.n)?;
        let c = ctx.create_buffer::<f32>(self.n)?;
        let ev = queue.enqueue_write_buffer(&a, &self.host_a)?;
        self.bufs = Some([a, b, c]);
        self.ready = true;
        Ok(vec![ev])
    }

    fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        if !self.ready {
            return Err(Error::InvalidValue("stream used before setup".into()));
        }
        let mut events = Vec::with_capacity(4);
        for op in StreamOp::all() {
            events.push(queue.enqueue_kernel(&self.kernel(op), &self.range)?);
        }
        Ok(IterationOutput::new(events))
    }

    fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        let bufs = self.bufs.as_ref().ok_or("verify before setup")?;
        let mut b = vec![0f32; self.n];
        let mut c = vec![0f32; self.n];
        queue
            .enqueue_read_buffer(&bufs[1], &mut b)
            .and_then(|_| queue.enqueue_read_buffer(&bufs[2], &mut c))
            .map_err(|e| e.to_string())?;
        let stride = self.spec.stride as usize;
        for i in (0..self.n).step_by(stride) {
            let a = self.host_a[i];
            // After one (or any number of) iterations: c = a + q·a from
            // copy+scale+add, then triad b = c + q·a.
            let want_c = a + SCALAR * a;
            let want_b = want_c + SCALAR * a;
            if c[i] != want_c || b[i] != want_b {
                return Err(format!(
                    "stream mismatch at {i}: c = {} (want {want_c}), b = {} (want {want_b})",
                    c[i], b[i]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthFamily;
    use proptest::prelude::*;

    fn run(footprint: u64, stride: u64) -> StreamWorkload {
        let spec = SynthSpec {
            stride,
            ..SynthSpec::new(SynthFamily::Stream, footprint)
        };
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx).with_profiling();
        let mut w = StreamWorkload::new(spec, 11);
        w.setup(&ctx, &queue).unwrap();
        w.run_iteration(&queue).unwrap();
        w.run_iteration(&queue).unwrap(); // idempotent
        w.verify(&queue).unwrap();
        w
    }

    #[test]
    fn four_kernels_verify_contiguous() {
        let w = run(64 * 1024, 1);
        assert_eq!(w.elems() * 12, w.footprint_bytes() as usize);
    }

    #[test]
    fn strided_access_verifies() {
        run(256 * 1024, 8);
    }

    #[test]
    fn profiles_follow_mccalpin_accounting() {
        let spec = SynthSpec::new(SynthFamily::Stream, 3 * 4 * 1024);
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut w = StreamWorkload::new(spec, 1);
        w.setup(&ctx, &queue).unwrap();
        let copy = w.kernel(StreamOp::Copy).profile();
        let triad = w.kernel(StreamOp::Triad).profile();
        copy.validate().unwrap();
        triad.validate().unwrap();
        let (r_copy, r_triad) = (
            reps_for(1024, StreamOp::Copy) as f64,
            reps_for(1024, StreamOp::Triad) as f64,
        );
        assert_eq!(copy.bytes_read + copy.bytes_written, 1024.0 * 8.0 * r_copy);
        assert_eq!(
            triad.bytes_read + triad.bytes_written,
            1024.0 * 12.0 * r_triad
        );
        // Amortization hits the traffic target within one pass.
        assert!(copy.bytes_read + copy.bytes_written >= TRAFFIC_TARGET as f64);
        assert_eq!(copy.flops, 0.0);
        assert_eq!(triad.flops, 2.0 * 1024.0 * r_triad);
        assert_eq!(copy.pattern, AccessPattern::Streaming);
    }

    #[test]
    fn bytes_per_iteration_sums_all_ops_with_reps() {
        let want: f64 = StreamOp::all()
            .iter()
            .map(|&op| (1000 * 4 * op.arrays_moved() as usize) as f64 * reps_for(1000, op) as f64)
            .sum();
        assert_eq!(bytes_per_iteration(1000, 1), want);
        // Every op clears the amortization floor.
        assert!(bytes_per_iteration(1000, 1) >= 4.0 * TRAFFIC_TARGET as f64);
        // Striding reduces touched elements, not the amortized floor.
        assert!(bytes_per_iteration(1000, 4) >= 4.0 * TRAFFIC_TARGET as f64);
    }

    #[test]
    fn kernel_paths_are_byte_identical() {
        // Three synth parameter points: cache-resident contiguous, memory
        // footprint contiguous, and strided (the vectorized fallback loop).
        for (fp, stride) in [(48 * 1024u64, 1u64), (4 << 20, 1), (1 << 20, 8)] {
            let spec = SynthSpec {
                stride,
                ..SynthSpec::new(SynthFamily::Stream, fp)
            };
            let ctx = Context::new(Device::native());
            let run = |queue: CommandQueue| -> Vec<u32> {
                let mut w = StreamWorkload::new(spec, 29);
                w.setup(&ctx, &queue).unwrap();
                w.run_iteration(&queue).unwrap();
                let bufs = w.bufs.as_ref().unwrap();
                let mut out: Vec<u32> = bufs[1].to_vec().iter().map(|v| v.to_bits()).collect();
                out.extend(bufs[2].to_vec().iter().map(|v| v.to_bits()));
                out
            };
            assert_eq!(
                run(CommandQueue::per_item_reference(&ctx)),
                run(CommandQueue::new(&ctx)),
                "fp={fp} stride={stride}"
            );
        }
    }

    proptest! {
        // Satellite requirement: the realized footprint is the requested
        // bytes to within one work-group per array.
        #[test]
        fn footprint_within_one_work_group(fp in 1u64..=1 << 28) {
            let spec = SynthSpec::new(SynthFamily::Stream, fp);
            let w = StreamWorkload::new(spec, 0);
            let tol = (LOCAL_SIZE as i64) * 4 * 3 / 2 + 1; // round-to-nearest: half a group per array
            let err = (w.footprint_bytes() as i64 - fp as i64).abs();
            let min = (LOCAL_SIZE * 4 * 3) as u64;
            prop_assert!(
                err <= tol || w.footprint_bytes() == min,
                "requested {fp}, realized {} (err {err})", w.footprint_bytes()
            );
        }

        #[test]
        fn deterministic_under_fixed_seed(fp in 1024u64..=1 << 20, seed in 0u64..=u64::MAX) {
            let spec = SynthSpec::new(SynthFamily::Stream, fp);
            let a = StreamWorkload::new(spec, seed);
            let b = StreamWorkload::new(spec, seed);
            prop_assert_eq!(a.elems(), b.elems());
            let ctx = Context::new(Device::native());
            let queue = CommandQueue::new(&ctx);
            let mut wa = StreamWorkload::new(spec, seed);
            let mut wb = StreamWorkload::new(spec, seed);
            wa.setup(&ctx, &queue).unwrap();
            wb.setup(&ctx, &queue).unwrap();
            prop_assert_eq!(wa.host_a, wb.host_a);
        }
    }
}

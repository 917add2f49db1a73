//! Tunable arithmetic-intensity probe: walk the roofline.
//!
//! One input and one output `f32` array; each element is pushed through
//! `fpe` fused multiply-adds before being stored. Intensity in
//! FLOPs-per-byte is `2·fpe / 8` — sweeping `fpe` moves the kernel
//! continuously from the memory-bound to the compute-bound side of a
//! device's roofline, which is exactly the knife-edge the paper's discrete
//! dwarfs straddle without ever crossing smoothly.

use crate::{round_up, splitmix64, SynthSpec, LOCAL_SIZE};
use eod_clrt::prelude::*;
use eod_core::benchmark::{IterationOutput, Workload};
use eod_devsim::profile::{AccessPattern, KernelProfile};

/// FMA coefficients — chosen so repeated application neither overflows nor
/// denormalizes for inputs in [0, 1).
pub const FMA_A: f32 = 0.999_9;
pub const FMA_B: f32 = 1.0e-4;

/// Minimum traffic one launch moves, by repeating whole passes inside the
/// launch (same amortization rationale as the STREAM family).
pub const TRAFFIC_TARGET: u64 = 8 << 20;

/// Elements per array: two `f32` arrays, rounded to the nearest work-group
/// multiple of the requested footprint, minimum one group.
pub fn elems_per_array(footprint_bytes: u64) -> usize {
    let ideal = footprint_bytes as f64 / (2.0 * 4.0);
    let groups = (ideal / LOCAL_SIZE as f64).round().max(1.0) as usize;
    groups * LOCAL_SIZE
}

/// Passes per launch over `n` elements: enough that at least
/// [`TRAFFIC_TARGET`] bytes move.
pub fn passes_for(n: usize) -> u64 {
    TRAFFIC_TARGET.div_ceil((n as u64 * 8).max(1))
}

/// The per-element chain the kernel and the host reference share.
pub fn fma_chain(mut x: f32, fpe: u32) -> f32 {
    for _ in 0..fpe {
        x = x * FMA_A + FMA_B;
    }
    x
}

struct RooflineKernel {
    input: BufView<f32>,
    output: BufView<f32>,
    n: usize,
    fpe: u32,
}

impl Kernel for RooflineKernel {
    fn name(&self) -> &str {
        "synth::roofline_fma"
    }

    fn profile(&self) -> KernelProfile {
        let passes = passes_for(self.n) as f64;
        let mut prof = KernelProfile::new("synth::roofline_fma");
        // One FMA = 2 FLOPs.
        prof.flops = self.n as f64 * self.fpe as f64 * 2.0 * passes;
        prof.bytes_read = self.n as f64 * 4.0 * passes;
        prof.bytes_written = self.n as f64 * 4.0 * passes;
        prof.working_set = (self.n as u64) * 4 * 2;
        prof.pattern = AccessPattern::Streaming;
        prof.work_items = self.n as u64;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        // Passes are idempotent (output never feeds the chain), so the
        // amortizing repeats change traffic, not results.
        let passes = passes_for(self.n);
        for item in group.items() {
            let i = item.global_id(0);
            if i >= self.n {
                continue;
            }
            for _ in 0..passes {
                self.output.set(i, fma_chain(self.input.get(i), self.fpe));
            }
        }
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for RooflineKernel {
    fn domain(&self) -> usize {
        self.n
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        // Passes hoist to whole-span sweeps (idempotent, as above); each
        // element still computes exactly `fma_chain(input[i], fpe)`. The
        // chain is serially dependent *within* an element, so the sweep is
        // lane-blocked: eight independent chains advance together, which
        // lets the inner step vectorize. Lanes never interact — per-element
        // arithmetic and order are untouched.
        const LANES: usize = 8;
        let passes = passes_for(self.n);
        // SAFETY: input is a launch input (never written); this call
        // exclusively owns output[span] — the backend hands out disjoint
        // spans.
        unsafe {
            let src = self.input.slice(span.clone());
            let dst = self.output.slice_mut(span);
            for _ in 0..passes {
                let mut s_blocks = src.chunks_exact(LANES);
                let mut d_blocks = dst.chunks_exact_mut(LANES);
                for (s, d) in (&mut s_blocks).zip(&mut d_blocks) {
                    let mut lane = [0.0f32; LANES];
                    lane.copy_from_slice(s);
                    for _ in 0..self.fpe {
                        for x in &mut lane {
                            *x = *x * FMA_A + FMA_B;
                        }
                    }
                    d.copy_from_slice(&lane);
                }
                for (s, d) in s_blocks.remainder().iter().zip(d_blocks.into_remainder()) {
                    *d = fma_chain(*s, self.fpe);
                }
            }
        }
    }
}

/// A configured roofline instance.
pub struct RooflineWorkload {
    seed: u64,
    n: usize,
    fpe: u32,
    host_in: Vec<f32>,
    input: Option<Buffer<f32>>,
    output: Option<Buffer<f32>>,
    range: NdRange,
}

impl RooflineWorkload {
    /// Build from a spec (family must be `roofline`) and a seed.
    pub fn new(spec: SynthSpec, seed: u64) -> Self {
        let n = elems_per_array(spec.footprint_bytes);
        Self {
            seed,
            n,
            fpe: spec.flops_per_elem,
            host_in: Vec::new(),
            input: None,
            output: None,
            range: NdRange::d1(round_up(n, LOCAL_SIZE), LOCAL_SIZE),
        }
    }

    /// Elements per array after granularity rounding.
    pub fn elems(&self) -> usize {
        self.n
    }

    /// FLOPs one iteration performs, amortizing passes included (for
    /// GFLOP/s derivation).
    pub fn flops(&self) -> f64 {
        self.n as f64 * self.fpe as f64 * 2.0 * passes_for(self.n) as f64
    }
}

impl Workload for RooflineWorkload {
    fn footprint_bytes(&self) -> u64 {
        (self.n as u64) * 4 * 2
    }

    fn setup(&mut self, ctx: &Context, queue: &CommandQueue) -> Result<Vec<Event>> {
        let mut s = self.seed ^ 0x524F_4F46_4C49_4E45; // "ROOFLINE" tag
        self.host_in = (0..self.n)
            .map(|_| (splitmix64(&mut s) % 1024) as f32 / 1024.0)
            .collect();
        let input = ctx.create_buffer_from(&self.host_in)?;
        let output = ctx.create_buffer::<f32>(self.n)?;
        let ev = queue.enqueue_write_buffer(&input, &self.host_in)?;
        self.input = Some(input);
        self.output = Some(output);
        Ok(vec![ev])
    }

    fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        let (input, output) = match (&self.input, &self.output) {
            (Some(i), Some(o)) => (i, o),
            _ => return Err(Error::InvalidValue("roofline used before setup".into())),
        };
        let kernel = RooflineKernel {
            input: input.view(),
            output: output.view(),
            n: self.n,
            fpe: self.fpe,
        };
        let ev = queue.enqueue_kernel(&kernel, &self.range)?;
        Ok(IterationOutput::new(vec![ev]))
    }

    fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        let output = self.output.as_ref().ok_or("verify before setup")?;
        let mut got = vec![0f32; self.n];
        queue
            .enqueue_read_buffer(output, &mut got)
            .map_err(|e| e.to_string())?;
        for (i, &g) in got.iter().enumerate() {
            let want = fma_chain(self.host_in[i], self.fpe);
            if g != want {
                return Err(format!("roofline mismatch at {i}: {g} (want {want})"));
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

    fn spec(fp: u64, fpe: u32) -> SynthSpec {
        SynthSpec {
            flops_per_elem: fpe,
            ..SynthSpec::new(SynthFamily::Roofline, fp)
        }
    }

    #[test]
    fn fma_chain_verifies_at_low_and_high_intensity() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx).with_profiling();
        for fpe in [1, 64] {
            let mut w = RooflineWorkload::new(spec(32 * 1024, fpe), 13);
            w.setup(&ctx, &queue).unwrap();
            w.run_iteration(&queue).unwrap();
            w.run_iteration(&queue).unwrap(); // idempotent
            w.verify(&queue).unwrap();
        }
    }

    #[test]
    fn intensity_knob_scales_flops_not_bytes() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut profiles = Vec::new();
        for fpe in [1u32, 16] {
            let mut w = RooflineWorkload::new(spec(1 << 16, fpe), 1);
            w.setup(&ctx, &queue).unwrap();
            let k = RooflineKernel {
                input: w.input.as_ref().unwrap().view(),
                output: w.output.as_ref().unwrap().view(),
                n: w.n,
                fpe: w.fpe,
            };
            let p = k.profile();
            p.validate().unwrap();
            profiles.push(p);
        }
        assert_eq!(profiles[1].flops, 16.0 * profiles[0].flops);
        assert_eq!(profiles[1].bytes_read, profiles[0].bytes_read);
        assert_eq!(profiles[1].bytes_written, profiles[0].bytes_written);
    }

    #[test]
    fn kernel_paths_are_byte_identical() {
        // Three synth parameter points across the intensity axis.
        for (fp, fpe) in [(48 * 1024u64, 1u32), (1 << 20, 16), (4 << 20, 64)] {
            let ctx = Context::new(Device::native());
            let run = |queue: CommandQueue| -> Vec<u32> {
                let mut w = RooflineWorkload::new(spec(fp, fpe), 17);
                w.setup(&ctx, &queue).unwrap();
                w.run_iteration(&queue).unwrap();
                let out = w.output.as_ref().unwrap();
                out.to_vec().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                run(CommandQueue::per_item_reference(&ctx)),
                run(CommandQueue::new(&ctx)),
                "fp={fp} fpe={fpe}"
            );
        }
    }

    #[test]
    fn chain_is_numerically_tame() {
        let x = fma_chain(0.5, 10_000);
        assert!(x.is_finite());
        assert!(x > 0.0 && x < 2.0);
    }

    proptest! {
        #[test]
        fn footprint_within_one_work_group(fp in 1u64..=1 << 28) {
            let w = RooflineWorkload::new(spec(fp, 1), 0);
            let tol = (LOCAL_SIZE as i64) * 4 * 2 / 2 + 1;
            let err = (w.footprint_bytes() as i64 - fp as i64).abs();
            let min = (LOCAL_SIZE * 4 * 2) as u64;
            prop_assert!(
                err <= tol || w.footprint_bytes() == min,
                "requested {fp}, realized {}", w.footprint_bytes()
            );
        }
    }
}

//! dwt — Two-Dimensional Discrete Wavelet Transform, Spectral Methods
//! (Fig. 2d).
//!
//! A multi-level separable CDF(5,3) transform of a grayscale image, the
//! benchmark the paper added from Rodinia (with portability fixes) to
//! improve Spectral Methods coverage. Table 3 runs it as
//! `dwt -l 3 Φ-gum.ppm`: three decomposition levels of a gum-leaf image at
//! the Table 2 resolution. Each level launches two kernels — a row pass
//! and a column pass over the shrinking LL region — ping-ponging between
//! the image buffer and a temp buffer, so the device footprint is two
//! `w×h` float arrays (which lands every Table 2 resolution inside its
//! target cache level).
//!
//! Submodules: [`lifting`] (the wavelet arithmetic + serial reference),
//! [`image`] (gum-leaf synthesis, box resize, PGM/PPM I/O, tiled
//! coefficient rendering).

pub mod image;
pub mod lifting;

use crate::common::{round_up, WorkloadBase};
use eod_clrt::prelude::*;
use eod_core::benchmark::{Benchmark, IterationOutput, Workload};
use eod_core::dwarf::Dwarf;
use eod_core::sizes::{ProblemSize, ScaleTable};
use eod_core::validation;
use eod_devsim::profile::{AccessPattern, KernelProfile};
use lifting::low_len;

/// DWT problem parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DwtParams {
    /// Image width.
    pub w: usize,
    /// Image height.
    pub h: usize,
    /// Decomposition levels (Table 3: 3).
    pub levels: usize,
}

impl DwtParams {
    /// Table 2 parameters for a size.
    pub fn for_size(size: ProblemSize) -> Self {
        let (w, h) = ScaleTable::DWT_DIMS[ScaleTable::index(size)];
        Self {
            w,
            h,
            levels: ScaleTable::DWT_LEVELS,
        }
    }

    /// Device footprint: image + ping-pong temp, both `w×h` `f32`.
    pub fn footprint_bytes(&self) -> u64 {
        (2 * self.w * self.h * 4) as u64
    }

    /// The (region width, region height) processed at each level.
    pub fn level_dims(&self) -> Vec<(usize, usize)> {
        let mut dims = Vec::new();
        let (mut rw, mut rh) = (self.w, self.h);
        for _ in 0..self.levels {
            if rw < 2 || rh < 2 {
                break;
            }
            dims.push((rw, rh));
            rw = low_len(rw);
            rh = low_len(rh);
        }
        dims
    }

    /// Kernel launches per forward transform: two per executed level.
    pub fn launches(&self) -> usize {
        2 * self.level_dims().len()
    }
}

/// Row-pass kernel: work-item `r` lifts row `r` of the `rw×rh` region from
/// `src` into `dst` (low | high within the row).
struct RowKernel {
    src: BufView<f32>,
    dst: BufView<f32>,
    /// Full image width (row stride).
    w: usize,
    rw: usize,
    rh: usize,
    footprint: u64,
}

impl Kernel for RowKernel {
    fn name(&self) -> &str {
        "dwt::rows"
    }

    fn profile(&self) -> KernelProfile {
        let cells = (self.rw * self.rh) as f64;
        let mut prof = KernelProfile::new("dwt::rows");
        prof.flops = cells * 4.0;
        prof.bytes_read = cells * 4.0;
        prof.bytes_written = cells * 4.0;
        prof.working_set = self.footprint;
        prof.pattern = AccessPattern::Streaming;
        prof.work_items = self.rh as u64;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        let mut row = vec![0.0f32; self.rw];
        let mut out = vec![0.0f32; self.rw];
        for item in group.items() {
            let r = item.global_id(0);
            if r >= self.rh {
                continue;
            }
            for (c, v) in row.iter_mut().enumerate() {
                *v = self.src.get(r * self.w + c);
            }
            lifting::forward_step(&row, &mut out);
            for (c, &v) in out.iter().enumerate() {
                self.dst.set(r * self.w + c, v);
            }
        }
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for RowKernel {
    /// The region's cells, row-major at region width.
    fn domain(&self) -> usize {
        self.rw * self.rh
    }

    /// One region row: a span owns whole rows.
    fn granularity(&self) -> usize {
        self.rw
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        for r in span.start / self.rw..span.end / self.rw {
            let row = r * self.w..r * self.w + self.rw;
            // SAFETY: the row pass only reads `src`, and exclusively owns
            // the `dst` rows in `span` — the backend hands out disjoint
            // row-aligned spans.
            let (x, out) = unsafe { (self.src.slice(row.clone()), self.dst.slice_mut(row)) };
            lifting::forward_step(x, out);
        }
    }
}

/// Columns the column span lifts together: one 64-byte line of `f32`
/// per row, so gathering a block reads whole lines instead of one strided
/// element per load.
const COL_BLOCK: usize = 16;

/// Column-pass kernel: work-item `c` lifts column `c` of the region from
/// `src` into `dst`.
struct ColKernel {
    src: BufView<f32>,
    dst: BufView<f32>,
    w: usize,
    rw: usize,
    rh: usize,
    footprint: u64,
}

impl Kernel for ColKernel {
    fn name(&self) -> &str {
        "dwt::cols"
    }

    fn profile(&self) -> KernelProfile {
        let cells = (self.rw * self.rh) as f64;
        let mut prof = KernelProfile::new("dwt::cols");
        prof.flops = cells * 4.0;
        prof.bytes_read = cells * 4.0;
        prof.bytes_written = cells * 4.0;
        prof.working_set = self.footprint;
        // Column walks stride by the image width — the latency-bound
        // Spectral Methods signature.
        prof.pattern = AccessPattern::Strided;
        prof.work_items = self.rw as u64;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        let mut col = vec![0.0f32; self.rh];
        let mut out = vec![0.0f32; self.rh];
        for item in group.items() {
            let c = item.global_id(0);
            if c >= self.rw {
                continue;
            }
            for (r, v) in col.iter_mut().enumerate() {
                *v = self.src.get(r * self.w + c);
            }
            lifting::forward_step(&col, &mut out);
            for (r, &v) in out.iter().enumerate() {
                self.dst.set(r * self.w + c, v);
            }
        }
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for ColKernel {
    /// The region's cells, column-major at region height.
    fn domain(&self) -> usize {
        self.rw * self.rh
    }

    /// One region column: a span owns whole columns.
    fn granularity(&self) -> usize {
        self.rh
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        let (w, rh) = (self.w, self.rh);
        let cols = span.start / rh..span.end / rh;
        // Block-transposed scratch: column `j` of a block at `j * rh`.
        let mut col = vec![0.0f32; COL_BLOCK * rh];
        let mut out = vec![0.0f32; COL_BLOCK * rh];
        // SAFETY: the column pass only reads `src`.
        let src = unsafe { self.src.slice(0..(rh - 1) * w + self.rw) };
        for c0 in cols.clone().step_by(COL_BLOCK) {
            let bw = COL_BLOCK.min(cols.end - c0);
            for r in 0..rh {
                for (j, &v) in src[r * w + c0..][..bw].iter().enumerate() {
                    col[j * rh + r] = v;
                }
            }
            for j in 0..bw {
                let lane = j * rh..(j + 1) * rh;
                lifting::forward_step(&col[lane.clone()], &mut out[lane]);
            }
            for r in 0..rh {
                // SAFETY: this span exclusively owns the region columns in
                // `cols` — the backend hands out disjoint column-aligned
                // spans — so it owns these cells of every row.
                let dst = unsafe { self.dst.slice_mut(r * w + c0..r * w + c0 + bw) };
                for (j, d) in dst.iter_mut().enumerate() {
                    *d = out[j * rh + r];
                }
            }
        }
    }
}

/// The dwt benchmark descriptor.
pub struct Dwt;

impl Benchmark for Dwt {
    fn name(&self) -> &'static str {
        "dwt"
    }

    fn dwarf(&self) -> Dwarf {
        Dwarf::SpectralMethods
    }

    fn workload(&self, size: ProblemSize, seed: u64) -> Box<dyn Workload> {
        Box::new(DwtWorkload::new(DwtParams::for_size(size), seed))
    }
}

/// A configured dwt instance.
pub struct DwtWorkload {
    p: DwtParams,
    base: WorkloadBase,
    host_image: Vec<f32>,
    img_buf: Option<Buffer<f32>>,
    tmp_buf: Option<Buffer<f32>>,
}

impl DwtWorkload {
    /// Workload with explicit parameters. The image content is the
    /// deterministic synthetic gum leaf; `_seed` is accepted for interface
    /// uniformity but the picture (like the paper's) is fixed.
    pub fn new(p: DwtParams, _seed: u64) -> Self {
        assert!(p.w >= 2 && p.h >= 2);
        Self {
            p,
            base: WorkloadBase::default(),
            host_image: Vec::new(),
            img_buf: None,
            tmp_buf: None,
        }
    }

    /// Read the coefficient plane back and render the tiled PGM view —
    /// the §4.4.3 output path.
    pub fn tiled_pgm(&self, queue: &CommandQueue) -> Result<Vec<u8>> {
        let buf = self.img_buf.as_ref().expect("setup ran");
        let mut coeffs = vec![0.0f32; self.p.w * self.p.h];
        queue.enqueue_read_buffer(buf, &mut coeffs)?;
        let tiled = image::tile_coefficients(&coeffs, self.p.w, self.p.h, self.p.levels);
        let mut bytes = Vec::new();
        image::write_pgm(&tiled, &mut bytes).expect("in-memory write");
        Ok(bytes)
    }
}

impl Workload for DwtWorkload {
    fn footprint_bytes(&self) -> u64 {
        self.p.footprint_bytes()
    }

    fn setup(&mut self, ctx: &Context, queue: &CommandQueue) -> Result<Vec<Event>> {
        self.host_image = image::gum_leaf(self.p.w, self.p.h).to_f32();
        let img = ctx.create_buffer::<f32>(self.p.w * self.p.h)?;
        let tmp = ctx.create_buffer::<f32>(self.p.w * self.p.h)?;
        let ev = queue.enqueue_write_buffer(&img, &self.host_image)?;
        self.img_buf = Some(img);
        self.tmp_buf = Some(tmp);
        self.base.ready = true;
        Ok(vec![ev])
    }

    fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        self.base.require_ready()?;
        let img = self.img_buf.as_ref().expect("ready");
        let tmp = self.tmp_buf.as_ref().expect("ready");
        let mut events = Vec::with_capacity(1 + self.p.launches());
        // Restore the pristine image (transfer region), then decompose.
        events.push(queue.enqueue_write_buffer(img, &self.host_image)?);
        for (rw, rh) in self.p.level_dims() {
            let rows = RowKernel {
                src: img.view(),
                dst: tmp.view(),
                w: self.p.w,
                rw,
                rh,
                footprint: self.p.footprint_bytes(),
            };
            let local = 64.min(round_up(rh, 1)).max(1);
            events.push(queue.enqueue_kernel(&rows, &NdRange::d1(round_up(rh, local), local))?);
            let cols = ColKernel {
                src: tmp.view(),
                dst: img.view(),
                w: self.p.w,
                rw,
                rh,
                footprint: self.p.footprint_bytes(),
            };
            let local = 64.min(round_up(rw, 1)).max(1);
            events.push(queue.enqueue_kernel(&cols, &NdRange::d1(round_up(rw, local), local))?);
        }
        self.base.iterations += 1;
        Ok(IterationOutput::new(events))
    }

    fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        let buf = self.img_buf.as_ref().ok_or("verify before setup")?;
        let mut got = vec![0.0f32; self.p.w * self.p.h];
        queue
            .enqueue_read_buffer(buf, &mut got)
            .map_err(|e| e.to_string())?;
        let mut want = self.host_image.clone();
        lifting::forward_2d(&mut want, self.p.w, self.p.h, self.p.levels);
        validation::check_close("dwt coefficients", &got, &want, 1e-5)?;
        // Round-trip invariant: inverting the device coefficients restores
        // the input exactly (5/3 lifting is bit-reversible).
        let mut back = got;
        lifting::inverse_2d(&mut back, self.p.w, self.p.h, self.p.levels);
        validation::check_close("dwt reconstruction", &back, &self.host_image, 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_dwt(device: Device, p: DwtParams) {
        let ctx = Context::new(device);
        let queue = CommandQueue::new(&ctx).with_profiling();
        let mut w = DwtWorkload::new(p, 0);
        w.setup(&ctx, &queue).unwrap();
        let out = w.run_iteration(&queue).unwrap();
        assert_eq!(out.kernel_launches(), p.launches());
        w.verify(&queue).unwrap();
    }

    #[test]
    fn device_matches_serial_tiny() {
        run_dwt(Device::native(), DwtParams::for_size(ProblemSize::Tiny)); // 72×54
    }

    #[test]
    fn device_matches_serial_simulated() {
        let rx = Platform::simulated().device_by_name("RX 480").unwrap();
        run_dwt(
            rx,
            DwtParams {
                w: 40,
                h: 30,
                levels: 3,
            },
        );
    }

    #[test]
    fn odd_dimensions_work() {
        run_dwt(
            Device::native(),
            DwtParams {
                w: 25,
                h: 19,
                levels: 3,
            },
        );
    }

    #[test]
    fn kernel_paths_are_byte_identical_across_paper_sizes() {
        for &size in ProblemSize::all() {
            let paper = DwtParams::for_size(size);
            // Six levels reach regions whose width is no multiple of the
            // column block at every size (1152 → 36, 3648 → 114), so the
            // column spans' partial blocks are covered too.
            for p in [paper, DwtParams { levels: 6, ..paper }] {
                let ctx = Context::new(Device::native());
                let run = |queue: CommandQueue| -> Vec<u32> {
                    let mut w = DwtWorkload::new(p, 0);
                    w.setup(&ctx, &queue).unwrap();
                    w.run_iteration(&queue).unwrap();
                    w.img_buf
                        .as_ref()
                        .unwrap()
                        .to_vec()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(
                    run(CommandQueue::per_item_reference(&ctx)),
                    run(CommandQueue::new(&ctx)),
                    "{p:?}"
                );
            }
        }
    }

    #[test]
    fn footprints_fit_cache_levels() {
        use eod_core::sizing;
        for &size in ProblemSize::all() {
            let p = DwtParams::for_size(size);
            assert!(
                sizing::footprint_ok(size, p.footprint_bytes()),
                "{size:?}: {} B",
                p.footprint_bytes()
            );
        }
    }

    #[test]
    fn three_levels_on_tiny_run_fully() {
        // 72×54 → 36×27 → 18×14: all three levels executable.
        let p = DwtParams::for_size(ProblemSize::Tiny);
        assert_eq!(p.level_dims().len(), 3);
        assert_eq!(p.launches(), 6);
        assert_eq!(p.level_dims()[1], (36, 27));
    }

    #[test]
    fn tiled_pgm_is_produced() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx).with_profiling();
        let mut w = DwtWorkload::new(
            DwtParams {
                w: 32,
                h: 32,
                levels: 2,
            },
            0,
        );
        w.setup(&ctx, &queue).unwrap();
        w.run_iteration(&queue).unwrap();
        let pgm = w.tiled_pgm(&queue).unwrap();
        assert!(pgm.starts_with(b"P5\n32 32\n255\n"));
        let img = image::read_pgm(std::io::Cursor::new(pgm)).unwrap();
        assert_eq!(img.pixels.len(), 32 * 32);
    }

    #[test]
    fn iterations_idempotent() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut w = DwtWorkload::new(
            DwtParams {
                w: 24,
                h: 16,
                levels: 2,
            },
            0,
        );
        w.setup(&ctx, &queue).unwrap();
        w.run_iteration(&queue).unwrap();
        let first = w.img_buf.as_ref().unwrap().to_vec();
        w.run_iteration(&queue).unwrap();
        assert_eq!(first, w.img_buf.as_ref().unwrap().to_vec());
    }
}

//! srad — the Structured Grid dwarf (Fig. 3a).
//!
//! Speckle Reducing Anisotropic Diffusion (Rodinia lineage): an iterative
//! 4-neighbour stencil that smooths ultrasound-style imagery while
//! preserving edges. Each iteration runs two kernels over the grid —
//! `srad1` computes the per-cell diffusion coefficient from the local
//! gradient and the ROI speckle statistic `q0²`, `srad2` applies the
//! divergence update — which makes the benchmark almost pure memory
//! bandwidth: the paper uses it to confirm Asanović's prediction that
//! Structured Grid codes are bandwidth-limited and hence GPU-friendly, with
//! the CPU–GPU gap widening as the problem grows (§5.1).
//!
//! Device state is six `rows×cols` arrays (J, c, dN, dS, dW, dE) — 24 bytes
//! per cell, an accounting under which the paper's Table 2 grids land just
//! inside their target caches (tiny 30 720 B < 32 KiB; medium 8.26 MB ≤
//! 8 MiB L3 within rounding).

use crate::common::{rng_for, round_up, WorkloadBase};
use eod_clrt::prelude::*;
use eod_core::benchmark::{Benchmark, IterationOutput, Workload};
use eod_core::dwarf::Dwarf;
use eod_core::sizes::{ProblemSize, ScaleTable};
use eod_core::validation;
use eod_devsim::profile::{AccessPattern, KernelProfile};
use rand::Rng;

/// Diffusion rate λ (Table 3: 0.5).
pub const LAMBDA: f32 = 0.5;

/// SRAD problem parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SradParams {
    /// Grid rows.
    pub rows: usize,
    /// Grid cols.
    pub cols: usize,
    /// Region of interest (inclusive bounds, clamped to the grid): Table 3
    /// passes `0 127 0 127`.
    pub roi: (usize, usize, usize, usize),
}

impl SradParams {
    /// Table 2 parameters for a size.
    pub fn for_size(size: ProblemSize) -> Self {
        let (rows, cols) = ScaleTable::SRAD_DIMS[ScaleTable::index(size)];
        Self {
            rows,
            cols,
            roi: (0, 127, 0, 127),
        }
    }

    /// Cells in the grid.
    pub fn cells(&self) -> usize {
        self.rows * self.cols
    }

    /// Device footprint: J, c, dN, dS, dW, dE.
    pub fn footprint_bytes(&self) -> u64 {
        (self.cells() * 4 * 6) as u64
    }
}

/// Initial image: `J = exp(U(0,1))`, matching the Rodinia preprocessing
/// (`J = exp(image)` keeps values positive so divisions are safe).
pub fn generate_image(p: &SradParams, seed: u64) -> Vec<f32> {
    let mut rng = rng_for(seed, 6);
    (0..p.cells())
        .map(|_| rng.random_range(0.0f32..1.0).exp())
        .collect()
}

/// The ROI speckle statistic q0² = var/mean² over the region of interest.
pub fn q0_squared(p: &SradParams, image: &[f32]) -> f32 {
    let (r1, r2, c1, c2) = p.roi;
    let r2 = r2.min(p.rows - 1);
    let c2 = c2.min(p.cols - 1);
    let mut sum = 0.0f64;
    let mut sum2 = 0.0f64;
    let mut count = 0usize;
    for r in r1..=r2 {
        for c in c1..=c2 {
            let v = image[r * p.cols + c] as f64;
            sum += v;
            sum2 += v * v;
            count += 1;
        }
    }
    let mean = sum / count as f64;
    let var = sum2 / count as f64 - mean * mean;
    (var / (mean * mean)) as f32
}

/// One serial SRAD iteration (the kernels' exact arithmetic, in f32).
pub fn serial_iteration(p: &SradParams, j: &mut [f32], q0sqr: f32) {
    let (rows, cols) = (p.rows, p.cols);
    let idx = |r: usize, c: usize| r * cols + c;
    let mut cmat = vec![0.0f32; p.cells()];
    let mut dn = vec![0.0f32; p.cells()];
    let mut ds = vec![0.0f32; p.cells()];
    let mut dw = vec![0.0f32; p.cells()];
    let mut de = vec![0.0f32; p.cells()];
    for r in 0..rows {
        for c in 0..cols {
            let jc = j[idx(r, c)];
            let n = j[idx(r.saturating_sub(1), c)] - jc;
            let s = j[idx((r + 1).min(rows - 1), c)] - jc;
            let w = j[idx(r, c.saturating_sub(1))] - jc;
            let e = j[idx(r, (c + 1).min(cols - 1))] - jc;
            let g2 = (n * n + s * s + w * w + e * e) / (jc * jc);
            let l = (n + s + w + e) / jc;
            let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
            let den = 1.0 + 0.25 * l;
            let qsqr = num / (den * den);
            let den2 = (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr));
            let cval = (1.0 / (1.0 + den2)).clamp(0.0, 1.0);
            cmat[idx(r, c)] = cval;
            dn[idx(r, c)] = n;
            ds[idx(r, c)] = s;
            dw[idx(r, c)] = w;
            de[idx(r, c)] = e;
        }
    }
    for r in 0..rows {
        for c in 0..cols {
            let cn = cmat[idx(r, c)];
            let cs = cmat[idx((r + 1).min(rows - 1), c)];
            let cw = cmat[idx(r, c)];
            let ce = cmat[idx(r, (c + 1).min(cols - 1))];
            let d =
                cn * dn[idx(r, c)] + cs * ds[idx(r, c)] + cw * dw[idx(r, c)] + ce * de[idx(r, c)];
            j[idx(r, c)] += 0.25 * LAMBDA * d;
        }
    }
}

/// Shared state of the two kernels.
struct SradBuffers {
    j: BufView<f32>,
    c: BufView<f32>,
    dn: BufView<f32>,
    ds: BufView<f32>,
    dw: BufView<f32>,
    de: BufView<f32>,
}

/// srad1: gradients and diffusion coefficient.
struct Srad1Kernel {
    b: SradBuffers,
    p: SradParams,
    q0sqr: f32,
}

impl Kernel for Srad1Kernel {
    fn name(&self) -> &str {
        "srad::srad1"
    }

    fn profile(&self) -> KernelProfile {
        let cells = self.p.cells() as f64;
        let mut prof = KernelProfile::new("srad::srad1");
        prof.flops = cells * 25.0;
        prof.bytes_read = cells * 4.0; // J streamed; neighbours hit cache
        prof.bytes_written = cells * 20.0; // c + 4 gradients
        prof.working_set = self.p.footprint_bytes();
        prof.pattern = AccessPattern::Streaming;
        prof.work_items = cells as u64;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        let (rows, cols) = (self.p.rows, self.p.cols);
        group.for_each_item(|item| {
            let (c, r) = (item.global_id(0), item.global_id(1));
            if r >= rows || c >= cols {
                return;
            }
            let idx = |r: usize, c: usize| r * cols + c;
            let jc = self.b.j.get(idx(r, c));
            let n = self.b.j.get(idx(r.saturating_sub(1), c)) - jc;
            let s = self.b.j.get(idx((r + 1).min(rows - 1), c)) - jc;
            let w = self.b.j.get(idx(r, c.saturating_sub(1))) - jc;
            let e = self.b.j.get(idx(r, (c + 1).min(cols - 1))) - jc;
            let g2 = (n * n + s * s + w * w + e * e) / (jc * jc);
            let l = (n + s + w + e) / jc;
            let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
            let den = 1.0 + 0.25 * l;
            let qsqr = num / (den * den);
            let den2 = (qsqr - self.q0sqr) / (self.q0sqr * (1.0 + self.q0sqr));
            let cval = (1.0 / (1.0 + den2)).clamp(0.0, 1.0);
            self.b.c.set(idx(r, c), cval);
            self.b.dn.set(idx(r, c), n);
            self.b.ds.set(idx(r, c), s);
            self.b.dw.set(idx(r, c), w);
            self.b.de.set(idx(r, c), e);
        });
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for Srad1Kernel {
    fn domain(&self) -> usize {
        self.p.cells()
    }

    /// Whole rows: a span never splits a row, so the north/south neighbour
    /// reads stay simple strided loads.
    fn granularity(&self) -> usize {
        self.p.cols
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        let (rows, cols) = (self.p.rows, self.p.cols);
        let q0 = self.q0sqr;
        // Same expression order as `run_group` — only the neighbour *index*
        // computation moves: row clamps hoist to per-row slices and the
        // column clamps peel into edge cells, leaving an interior loop of
        // pure ±1-offset loads that the compiler can vectorize. Every cell
        // still reads the same five J values, so results are bit-identical.
        let cell = |jc: f32, jn: f32, js: f32, jw: f32, je: f32| {
            let n = jn - jc;
            let s = js - jc;
            let w = jw - jc;
            let e = je - jc;
            let g2 = (n * n + s * s + w * w + e * e) / (jc * jc);
            let l = (n + s + w + e) / jc;
            let num = 0.5 * g2 - (1.0 / 16.0) * l * l;
            let den = 1.0 + 0.25 * l;
            let qsqr = num / (den * den);
            let den2 = (qsqr - q0) / (q0 * (1.0 + q0));
            let cval = (1.0 / (1.0 + den2)).clamp(0.0, 1.0);
            (cval, n, s, w, e)
        };
        // SAFETY: srad1 only reads J, and exclusively owns the c/dN/dS/dW/dE
        // cells in `span` — the backend hands out disjoint row-aligned spans.
        unsafe {
            let j = self.b.j.slice(0..rows * cols);
            let cm = self.b.c.slice_mut(span.clone());
            let dn = self.b.dn.slice_mut(span.clone());
            let ds = self.b.ds.slice_mut(span.clone());
            let dw = self.b.dw.slice_mut(span.clone());
            let de = self.b.de.slice_mut(span.clone());
            for r in span.start / cols..span.end / cols {
                let base = r * cols;
                let o = base - span.start;
                let jr = &j[base..base + cols];
                let rn = r.saturating_sub(1) * cols;
                let jn = &j[rn..rn + cols];
                let rs = (r + 1).min(rows - 1) * cols;
                let js = &j[rs..rs + cols];
                let (cmr, dnr) = (&mut cm[o..o + cols], &mut dn[o..o + cols]);
                let (dsr, dwr) = (&mut ds[o..o + cols], &mut dw[o..o + cols]);
                let der = &mut de[o..o + cols];
                let mut put = |c: usize, v: (f32, f32, f32, f32, f32)| {
                    (cmr[c], dnr[c], dsr[c], dwr[c], der[c]) = v;
                };
                if cols == 1 {
                    put(0, cell(jr[0], jn[0], js[0], jr[0], jr[0]));
                    continue;
                }
                put(0, cell(jr[0], jn[0], js[0], jr[0], jr[1]));
                for c in 1..cols - 1 {
                    put(c, cell(jr[c], jn[c], js[c], jr[c - 1], jr[c + 1]));
                }
                let c = cols - 1;
                put(c, cell(jr[c], jn[c], js[c], jr[c - 1], jr[c]));
            }
        }
    }
}

/// srad2: divergence update of J.
struct Srad2Kernel {
    b: SradBuffers,
    p: SradParams,
}

impl Kernel for Srad2Kernel {
    fn name(&self) -> &str {
        "srad::srad2"
    }

    fn profile(&self) -> KernelProfile {
        let cells = self.p.cells() as f64;
        let mut prof = KernelProfile::new("srad::srad2");
        prof.flops = cells * 10.0;
        prof.bytes_read = cells * 20.0;
        prof.bytes_written = cells * 4.0;
        prof.working_set = self.p.footprint_bytes();
        prof.pattern = AccessPattern::Streaming;
        prof.work_items = cells as u64;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        let (rows, cols) = (self.p.rows, self.p.cols);
        group.for_each_item(|item| {
            let (c, r) = (item.global_id(0), item.global_id(1));
            if r >= rows || c >= cols {
                return;
            }
            let idx = |r: usize, c: usize| r * cols + c;
            let cn = self.b.c.get(idx(r, c));
            let cs = self.b.c.get(idx((r + 1).min(rows - 1), c));
            let cw = self.b.c.get(idx(r, c));
            let ce = self.b.c.get(idx(r, (c + 1).min(cols - 1)));
            let d = cn * self.b.dn.get(idx(r, c))
                + cs * self.b.ds.get(idx(r, c))
                + cw * self.b.dw.get(idx(r, c))
                + ce * self.b.de.get(idx(r, c));
            self.b
                .j
                .set(idx(r, c), self.b.j.get(idx(r, c)) + 0.25 * LAMBDA * d);
        });
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for Srad2Kernel {
    fn domain(&self) -> usize {
        self.p.cells()
    }

    /// Whole rows, as in srad1.
    fn granularity(&self) -> usize {
        self.p.cols
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        let (rows, cols) = (self.p.rows, self.p.cols);
        // As in srad1, row clamps hoist and the east column clamp peels
        // into an edge cell; the per-cell arithmetic and operand order are
        // unchanged (cn = cw = c[r,c]).
        // SAFETY: srad2 only reads c/dN/dS/dW/dE (the south/east c reads may
        // cross into neighbouring spans, hence the full read-only c slice)
        // and exclusively owns the J cells in `span`.
        unsafe {
            let cm = self.b.c.slice(0..rows * cols);
            let dn = self.b.dn.slice(span.clone());
            let ds = self.b.ds.slice(span.clone());
            let dw = self.b.dw.slice(span.clone());
            let de = self.b.de.slice(span.clone());
            let j = self.b.j.slice_mut(span.clone());
            for r in span.start / cols..span.end / cols {
                let base = r * cols;
                let o = base - span.start;
                let cr = &cm[base..base + cols];
                let rs = (r + 1).min(rows - 1) * cols;
                let csr = &cm[rs..rs + cols];
                let (dnr, dsr) = (&dn[o..o + cols], &ds[o..o + cols]);
                let (dwr, der) = (&dw[o..o + cols], &de[o..o + cols]);
                let jr = &mut j[o..o + cols];
                let last = cols - 1;
                for c in 0..last {
                    let d = cr[c] * dnr[c] + csr[c] * dsr[c] + cr[c] * dwr[c] + cr[c + 1] * der[c];
                    jr[c] += 0.25 * LAMBDA * d;
                }
                let d = cr[last] * dnr[last]
                    + csr[last] * dsr[last]
                    + cr[last] * dwr[last]
                    + cr[last] * der[last];
                jr[last] += 0.25 * LAMBDA * d;
            }
        }
    }
}

/// The srad benchmark descriptor.
pub struct Srad;

impl Benchmark for Srad {
    fn name(&self) -> &'static str {
        "srad"
    }

    fn dwarf(&self) -> Dwarf {
        Dwarf::StructuredGrids
    }

    fn workload(&self, size: ProblemSize, seed: u64) -> Box<dyn Workload> {
        Box::new(SradWorkload::new(SradParams::for_size(size), seed))
    }
}

/// The six device buffers of a prepared srad instance: image, diffusion
/// coefficient, and the four directional derivatives.
type DeviceBufs = (
    Buffer<f32>,
    Buffer<f32>,
    Buffer<f32>,
    Buffer<f32>,
    Buffer<f32>,
    Buffer<f32>,
);

/// A configured srad instance.
pub struct SradWorkload {
    p: SradParams,
    seed: u64,
    base: WorkloadBase,
    host_image: Vec<f32>,
    q0sqr: f32,
    bufs: Option<DeviceBufs>,
    range: NdRange,
}

impl SradWorkload {
    /// Workload with explicit parameters.
    pub fn new(p: SradParams, seed: u64) -> Self {
        Self {
            p,
            seed,
            base: WorkloadBase::default(),
            host_image: Vec::new(),
            q0sqr: 0.0,
            bufs: None,
            range: NdRange::d1(1, 1),
        }
    }

    fn views(&self) -> SradBuffers {
        let (j, c, dn, ds, dw, de) = self.bufs.as_ref().expect("setup ran");
        SradBuffers {
            j: j.view(),
            c: c.view(),
            dn: dn.view(),
            ds: ds.view(),
            dw: dw.view(),
            de: de.view(),
        }
    }
}

impl Workload for SradWorkload {
    fn footprint_bytes(&self) -> u64 {
        self.p.footprint_bytes()
    }

    fn setup(&mut self, ctx: &Context, queue: &CommandQueue) -> Result<Vec<Event>> {
        self.host_image = generate_image(&self.p, self.seed);
        // Rodinia recomputes q0² each iteration from the evolving ROI; for a
        // stable, idempotent-rate timing loop we pin it to the initial value
        // (the kernels' work is identical either way).
        self.q0sqr = q0_squared(&self.p, &self.host_image);
        let n = self.p.cells();
        let j = ctx.create_buffer::<f32>(n)?;
        let c = ctx.create_buffer::<f32>(n)?;
        let dn = ctx.create_buffer::<f32>(n)?;
        let ds = ctx.create_buffer::<f32>(n)?;
        let dw = ctx.create_buffer::<f32>(n)?;
        let de = ctx.create_buffer::<f32>(n)?;
        let ev = queue.enqueue_write_buffer(&j, &self.host_image)?;
        self.bufs = Some((j, c, dn, ds, dw, de));
        self.range = NdRange::d2(round_up(self.p.cols, 16), round_up(self.p.rows, 16), 16, 16);
        self.base.ready = true;
        Ok(vec![ev])
    }

    fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        self.base.require_ready()?;
        let k1 = Srad1Kernel {
            b: self.views(),
            p: self.p,
            q0sqr: self.q0sqr,
        };
        let k2 = Srad2Kernel {
            b: self.views(),
            p: self.p,
        };
        let e1 = queue.enqueue_kernel(&k1, &self.range)?;
        let e2 = queue.enqueue_kernel(&k2, &self.range)?;
        self.base.iterations += 1;
        Ok(IterationOutput::new(vec![e1, e2]))
    }

    fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        let (j, ..) = self.bufs.as_ref().ok_or("verify before setup")?;
        let mut got = vec![0.0f32; self.p.cells()];
        queue
            .enqueue_read_buffer(j, &mut got)
            .map_err(|e| e.to_string())?;
        // Serial reference applies the same number of iterations the device
        // actually executed.
        let mut want = self.host_image.clone();
        for _ in 0..self.base.iterations {
            serial_iteration(&self.p, &mut want, self.q0sqr);
        }
        validation::check_close("srad J", &got, &want, 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SradParams {
        SradParams::for_size(ProblemSize::Tiny)
    }

    #[test]
    fn q0_statistic_is_positive_and_roi_clamps() {
        let p = tiny(); // 80×16 grid, ROI asks for 128×128
        let img = generate_image(&p, 3);
        let q = q0_squared(&p, &img);
        assert!(q > 0.0 && q.is_finite());
    }

    #[test]
    fn diffusion_smooths() {
        // Total variation must not increase under diffusion.
        let p = SradParams {
            rows: 32,
            cols: 32,
            roi: (0, 31, 0, 31),
        };
        let mut img = generate_image(&p, 7);
        let tv = |v: &[f32]| -> f64 {
            let mut t = 0.0;
            for r in 0..p.rows {
                for c in 0..p.cols - 1 {
                    t += (v[r * p.cols + c + 1] - v[r * p.cols + c]).abs() as f64;
                }
            }
            t
        };
        let before = tv(&img);
        let q0 = q0_squared(&p, &img);
        for _ in 0..5 {
            serial_iteration(&p, &mut img, q0);
        }
        assert!(tv(&img) < before, "{} !< {before}", tv(&img));
        assert!(img.iter().all(|v| v.is_finite()));
    }

    fn run_srad(device: Device, p: SradParams, iters: usize) {
        let ctx = Context::new(device);
        let queue = CommandQueue::new(&ctx).with_profiling();
        let mut w = SradWorkload::new(p, 11);
        w.setup(&ctx, &queue).unwrap();
        for _ in 0..iters {
            let out = w.run_iteration(&queue).unwrap();
            assert_eq!(out.kernel_launches(), 2);
        }
        w.verify(&queue).unwrap();
    }

    #[test]
    fn device_matches_serial_native_one_iter() {
        run_srad(Device::native(), tiny(), 1);
    }

    #[test]
    fn device_matches_serial_native_multi_iter() {
        run_srad(Device::native(), tiny(), 3);
    }

    #[test]
    fn device_matches_serial_simulated() {
        let hd = Platform::simulated().device_by_name("HD 7970").unwrap();
        run_srad(
            hd,
            SradParams {
                rows: 64,
                cols: 48,
                roi: (0, 127, 0, 127),
            },
            2,
        );
    }

    #[test]
    fn kernel_paths_are_byte_identical_across_paper_sizes() {
        for size in [
            ProblemSize::Tiny,
            ProblemSize::Small,
            ProblemSize::Medium,
            ProblemSize::Large,
        ] {
            let ctx = Context::new(Device::native());
            let run = |queue: CommandQueue| -> Vec<u32> {
                let mut w = SradWorkload::new(SradParams::for_size(size), 29);
                w.setup(&ctx, &queue).unwrap();
                // Two iterations so srad2's output feeds srad1 at least once.
                w.run_iteration(&queue).unwrap();
                w.run_iteration(&queue).unwrap();
                let (j, ..) = w.bufs.as_ref().unwrap();
                let mut got = vec![0.0f32; w.p.cells()];
                queue.enqueue_read_buffer(j, &mut got).unwrap();
                got.iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                run(CommandQueue::per_item_reference(&ctx)),
                run(CommandQueue::new(&ctx)),
                "{size:?}"
            );
        }
    }

    #[test]
    fn footprints_fit_cache_levels() {
        use eod_core::sizing;
        for &size in &[ProblemSize::Tiny, ProblemSize::Small] {
            let p = SradParams::for_size(size);
            assert!(
                sizing::footprint_ok(size, p.footprint_bytes()),
                "{size:?}: {} B",
                p.footprint_bytes()
            );
        }
        // medium: 1024×336×24 = 8 257 536 ≤ 8 MiB L3 — just fits.
        let m = SradParams::for_size(ProblemSize::Medium);
        assert!(sizing::footprint_ok(
            ProblemSize::Medium,
            m.footprint_bytes()
        ));
        // large: 2048×1024×24 = 48 MiB ≥ 4×L3.
        let l = SradParams::for_size(ProblemSize::Large);
        assert!(sizing::footprint_ok(
            ProblemSize::Large,
            l.footprint_bytes()
        ));
    }

    #[test]
    fn profiles_are_bandwidth_flavoured() {
        let p = SradParams::for_size(ProblemSize::Large);
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut w = SradWorkload::new(p, 0);
        w.setup(&ctx, &queue).unwrap();
        let k1 = Srad1Kernel {
            b: w.views(),
            p,
            q0sqr: 1.0,
        };
        let prof = k1.profile();
        prof.validate().unwrap();
        assert!(
            prof.arithmetic_intensity() < 2.0,
            "stencils are bandwidth-bound: {}",
            prof.arithmetic_intensity()
        );
        assert_eq!(prof.pattern, AccessPattern::Streaming);
    }
}

//! kmeans — the MapReduce dwarf (Fig. 2a).
//!
//! §4.4.1: an iterative clustering of `Pn` points with `Fn` features into a
//! fixed 5 clusters. The paper extended the OpenDwarfs benchmark "to support
//! generation of a random distribution of points … to more fairly evaluate
//! cache performance"; we generate points the same way. The timed kernel is
//! the assignment step (each point finds its nearest centroid); centroid
//! relocation happens host-side, as in the OpenDwarfs host program.
//!
//! The device footprint is Eq. 1:
//! `size(feature) + size(membership) + size(cluster)` with
//! `feature = Pn·Fn·sizeof(f32)`, `membership = Pn·sizeof(i32)`,
//! `cluster = Cn·Fn·sizeof(f32)`.

use crate::common::{local_1d, random_vec, rng_for, round_up, WorkloadBase, MAX_LOCAL_1D};
use eod_clrt::prelude::*;
use eod_core::benchmark::{Benchmark, IterationOutput, Workload};
use eod_core::dwarf::Dwarf;
use eod_core::sizes::{ProblemSize, ScaleTable};
use eod_core::validation;
use eod_devsim::profile::{AccessPattern, KernelProfile};

/// Problem parameters for one kmeans workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmeansParams {
    /// Number of points Pn.
    pub points: usize,
    /// Features per point Fn (Table 3: 26).
    pub features: usize,
    /// Cluster count Cn (§4.4.1: fixed at 5).
    pub clusters: usize,
}

impl KmeansParams {
    /// Table 2 parameters for a problem size.
    pub fn for_size(size: ProblemSize) -> Self {
        Self {
            points: ScaleTable::KMEANS_POINTS[ScaleTable::index(size)],
            features: ScaleTable::KMEANS_FEATURES,
            clusters: ScaleTable::KMEANS_CLUSTERS,
        }
    }

    /// Eq. 1 device footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        let feature = self.points * self.features * 4;
        let membership = self.points * 4;
        let cluster = self.clusters * self.features * 4;
        (feature + membership + cluster) as u64
    }
}

/// Serial reference: assign each point to its nearest centroid.
pub fn serial_assign(
    features: &[f32],
    centroids: &[f32],
    points: usize,
    nfeatures: usize,
    nclusters: usize,
) -> Vec<i32> {
    (0..points)
        .map(|p| {
            let mut best = 0i32;
            let mut best_d = f32::INFINITY;
            for c in 0..nclusters {
                let mut d = 0.0f32;
                for f in 0..nfeatures {
                    let diff = features[p * nfeatures + f] - centroids[c * nfeatures + f];
                    d += diff * diff;
                }
                if d < best_d {
                    best_d = d;
                    best = c as i32;
                }
            }
            best
        })
        .collect()
}

/// Serial reference: one full k-means step (assign + centroid update).
/// Returns the new centroids; used at setup to give the device kernel
/// realistic, converged-ish centroids.
pub fn serial_update(
    features: &[f32],
    centroids: &[f32],
    points: usize,
    nfeatures: usize,
    nclusters: usize,
) -> Vec<f32> {
    let membership = serial_assign(features, centroids, points, nfeatures, nclusters);
    let mut sums = vec![0.0f64; nclusters * nfeatures];
    let mut counts = vec![0usize; nclusters];
    for p in 0..points {
        let c = membership[p] as usize;
        counts[c] += 1;
        for f in 0..nfeatures {
            sums[c * nfeatures + f] += features[p * nfeatures + f] as f64;
        }
    }
    let mut out = centroids.to_vec();
    for c in 0..nclusters {
        if counts[c] > 0 {
            for f in 0..nfeatures {
                out[c * nfeatures + f] = (sums[c * nfeatures + f] / counts[c] as f64) as f32;
            }
        }
    }
    out
}

/// The assignment kernel: one work-item per point.
struct AssignKernel {
    features: BufView<f32>,
    centroids: BufView<f32>,
    membership: BufView<i32>,
    params: KmeansParams,
}

impl Kernel for AssignKernel {
    fn name(&self) -> &str {
        "kmeans::assign"
    }

    fn profile(&self) -> KernelProfile {
        let p = &self.params;
        let mut prof = KernelProfile::new("kmeans::assign");
        // Per point: Cn × (3·Fn multiply-subtract-adds + 1 compare).
        prof.flops = (p.points * p.clusters * (3 * p.features + 1)) as f64;
        prof.bytes_read = (p.points * p.features * 4 + p.clusters * p.features * 4) as f64;
        prof.bytes_written = (p.points * 4) as f64;
        prof.working_set = p.footprint_bytes();
        prof.pattern = AccessPattern::Streaming;
        prof.work_items = p.points as u64;
        prof.branch_fraction = 0.05;
        prof.branch_divergence = 0.05;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        // Stage the centroid table (shared by every point — the OpenCL
        // kernel keeps it in local memory) and this group's contiguous
        // feature rows with two slice copies, then run the distance loops
        // on plain floats. Same arithmetic in the same order, so the
        // assignment is identical to the per-element version. The staged
        // sizes depend on the feature count, so the float scratch lives
        // in a per-thread buffer reused across groups (no allocation
        // after each worker thread's first group) rather than a per-group
        // `vec!`.
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<f32>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        let p = &self.params;
        let gsize = group.range.local[0];
        let gbase = group.group_id(0) * gsize;
        let active = p.points.saturating_sub(gbase).min(gsize);
        if active == 0 {
            return; // fully padded tail group
        }
        let ncent = p.clusters * p.features;
        SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            scratch.resize(ncent + active * p.features, 0.0);
            let (cent, feats) = scratch.split_at_mut(ncent);
            let feats = &mut feats[..active * p.features];
            // SAFETY: `centroids` and `features` are launch inputs — no
            // work-item writes them, and the in-order queue serializes
            // transfers against kernel execution.
            unsafe {
                self.centroids.read_slice(0, cent);
                self.features.read_slice(gbase * p.features, feats);
            }
            let mut members = [0i32; MAX_LOCAL_1D];
            let members = &mut members[..active];
            for (i, m) in members.iter_mut().enumerate() {
                let row = &feats[i * p.features..(i + 1) * p.features];
                let mut best = 0i32;
                let mut best_d = f32::INFINITY;
                for c in 0..p.clusters {
                    let crow = &cent[c * p.features..(c + 1) * p.features];
                    let mut d = 0.0f32;
                    for (&x, &y) in row.iter().zip(crow) {
                        let diff = x - y;
                        d += diff * diff;
                    }
                    if d < best_d {
                        best_d = d;
                        best = c as i32;
                    }
                }
                *m = best;
            }
            // SAFETY: each work-group exclusively owns
            // `membership[gbase..gbase + active]`.
            unsafe { self.membership.write_slice(gbase, members) };
        });
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for AssignKernel {
    fn domain(&self) -> usize {
        self.params.points
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        // The per-item path stages centroids and feature rows into
        // thread-local scratch; here the distance loops run over zero-copy
        // slices of device storage — same arithmetic in the same order
        // (features ascending per cluster, clusters ascending, strict `<`
        // argmin), so assignments are bit-identical.
        let p = &self.params;
        // SAFETY: `features` and `centroids` are launch inputs — no
        // work-item writes them — and this call exclusively owns
        // `membership[span]`; the backend hands out disjoint spans.
        unsafe {
            let cent = self.centroids.slice(0..p.clusters * p.features);
            let feats = self
                .features
                .slice(span.start * p.features..span.end * p.features);
            let members = self.membership.slice_mut(span);
            for (i, m) in members.iter_mut().enumerate() {
                let row = &feats[i * p.features..(i + 1) * p.features];
                let mut best = 0i32;
                let mut best_d = f32::INFINITY;
                for c in 0..p.clusters {
                    let crow = &cent[c * p.features..(c + 1) * p.features];
                    let mut d = 0.0f32;
                    for (&x, &y) in row.iter().zip(crow) {
                        let diff = x - y;
                        d += diff * diff;
                    }
                    if d < best_d {
                        best_d = d;
                        best = c as i32;
                    }
                }
                *m = best;
            }
        }
    }
}

/// The kmeans benchmark (static descriptor).
pub struct Kmeans;

impl Benchmark for Kmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn dwarf(&self) -> Dwarf {
        Dwarf::MapReduce
    }

    fn workload(&self, size: ProblemSize, seed: u64) -> Box<dyn Workload> {
        Box::new(KmeansWorkload::new(KmeansParams::for_size(size), seed))
    }
}

/// A configured kmeans instance.
pub struct KmeansWorkload {
    params: KmeansParams,
    seed: u64,
    base: WorkloadBase,
    host_features: Vec<f32>,
    host_centroids: Vec<f32>,
    kernel: Option<AssignKernel>,
    feature_buf: Option<Buffer<f32>>,
    centroid_buf: Option<Buffer<f32>>,
    membership_buf: Option<Buffer<i32>>,
    range: NdRange,
}

impl KmeansWorkload {
    /// Build a workload with explicit parameters (tests use small ones).
    pub fn new(params: KmeansParams, seed: u64) -> Self {
        Self {
            params,
            seed,
            base: WorkloadBase::default(),
            host_features: Vec::new(),
            host_centroids: Vec::new(),
            kernel: None,
            feature_buf: None,
            centroid_buf: None,
            membership_buf: None,
            range: NdRange::d1(1, 1),
        }
    }
}

impl Workload for KmeansWorkload {
    fn footprint_bytes(&self) -> u64 {
        self.params.footprint_bytes()
    }

    fn setup(&mut self, ctx: &Context, queue: &CommandQueue) -> Result<Vec<Event>> {
        let p = self.params;
        let mut rng = rng_for(self.seed, 0);
        self.host_features = random_vec(&mut rng, p.points * p.features);
        // Random starting centroids (§4.4.1), refined by two host-side
        // k-means steps so the kernel assignment is non-trivial.
        let mut centroids: Vec<f32> = (0..p.clusters)
            .map(|c| {
                let start = (c * p.points / p.clusters) * p.features;
                self.host_features[start..start + p.features].to_vec()
            })
            .collect::<Vec<_>>()
            .concat();
        for _ in 0..2 {
            centroids = serial_update(
                &self.host_features,
                &centroids,
                p.points,
                p.features,
                p.clusters,
            );
        }
        self.host_centroids = centroids;

        let feature_buf = ctx.create_buffer::<f32>(p.points * p.features)?;
        let centroid_buf = ctx.create_buffer::<f32>(p.clusters * p.features)?;
        let membership_buf = ctx.create_buffer::<i32>(p.points)?;
        let events = vec![
            queue.enqueue_write_buffer(&feature_buf, &self.host_features)?,
            queue.enqueue_write_buffer(&centroid_buf, &self.host_centroids)?,
        ];

        let local = local_1d(p.points, queue.device());
        self.range = NdRange::d1(round_up(p.points, local), local);
        self.kernel = Some(AssignKernel {
            features: feature_buf.view(),
            centroids: centroid_buf.view(),
            membership: membership_buf.view(),
            params: p,
        });
        self.membership_buf = Some(membership_buf);
        self.feature_buf = Some(feature_buf);
        self.centroid_buf = Some(centroid_buf);
        self.base.ready = true;
        Ok(events)
    }

    fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        self.base.require_ready()?;
        let kernel = self.kernel.as_ref().expect("ready implies kernel");
        let ev = queue.enqueue_kernel(kernel, &self.range)?;
        self.base.iterations += 1;
        Ok(IterationOutput::new(vec![ev]))
    }

    fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        let p = self.params;
        let buf = self.membership_buf.as_ref().ok_or("verify before setup")?;
        let mut got = vec![0i32; p.points];
        queue
            .enqueue_read_buffer(buf, &mut got)
            .map_err(|e| e.to_string())?;
        let want = serial_assign(
            &self.host_features,
            &self.host_centroids,
            p.points,
            p.features,
            p.clusters,
        );
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if g != w {
                return Err(format!("membership[{i}] = {g}, serial says {w}"));
            }
        }
        validation::check_equal("kmeans membership length", &got.len(), &want.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eod_core::sizing;

    fn run_on(device: Device, params: KmeansParams) -> (KmeansWorkload, CommandQueue) {
        run_on_queue(CommandQueue::new(&Context::new(device)), params)
    }

    fn run_on_queue(queue: CommandQueue, params: KmeansParams) -> (KmeansWorkload, CommandQueue) {
        let queue = queue.with_profiling();
        let ctx = queue.context().clone();
        let mut w = KmeansWorkload::new(params, 42);
        w.setup(&ctx, &queue).unwrap();
        w.run_iteration(&queue).unwrap();
        (w, queue)
    }

    #[test]
    fn native_matches_serial() {
        let params = KmeansParams {
            points: 300,
            features: 8,
            clusters: 5,
        };
        let (mut w, queue) = run_on(Device::native(), params);
        w.verify(&queue).unwrap();
    }

    #[test]
    fn simulated_matches_serial() {
        let gtx = Platform::simulated().device_by_name("GTX 1080").unwrap();
        let (mut w, queue) = run_on(gtx, KmeansParams::for_size(ProblemSize::Tiny));
        w.verify(&queue).unwrap();
    }

    #[test]
    fn footprints_fit_their_cache_levels() {
        // Table 2's Φ values against the §4.4 constraint (tiny⊆L1, small⊆L2,
        // medium⊆L3). The paper's own large kmeans (131072 points × 26
        // features ≈ 14 MiB) is below the stated 32 MiB floor — we check it
        // at least spills L3.
        for &size in &[ProblemSize::Tiny, ProblemSize::Small, ProblemSize::Medium] {
            let p = KmeansParams::for_size(size);
            assert!(
                sizing::footprint_ok(size, p.footprint_bytes()),
                "{size:?}: {} B",
                p.footprint_bytes()
            );
        }
        let large = KmeansParams::for_size(ProblemSize::Large);
        assert!(large.footprint_bytes() > 8192 * 1024, "large must spill L3");
    }

    #[test]
    fn eq1_worked_example() {
        // §4.4.1 with 30 features: 256 points → 31.5 KiB.
        let p = KmeansParams {
            points: 256,
            features: 30,
            clusters: 5,
        };
        assert!((p.footprint_bytes() as f64 / 1024.0 - 31.5859375).abs() < 1e-9);
    }

    #[test]
    fn profile_is_valid_and_scales() {
        let tiny = KmeansWorkload::new(KmeansParams::for_size(ProblemSize::Tiny), 1);
        let large = KmeansWorkload::new(KmeansParams::for_size(ProblemSize::Large), 1);
        // Build kernels without buffers via a workload round-trip instead:
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut t = tiny;
        t.setup(&ctx, &queue).unwrap();
        let mut l = large;
        l.setup(&ctx, &queue).unwrap();
        let pt = t.kernel.as_ref().unwrap().profile();
        let pl = l.kernel.as_ref().unwrap().profile();
        pt.validate().unwrap();
        pl.validate().unwrap();
        assert!(pl.flops > pt.flops * 100.0);
        assert_eq!(pt.work_items, 256);
    }

    #[test]
    fn iteration_is_idempotent() {
        let params = KmeansParams {
            points: 128,
            features: 4,
            clusters: 5,
        };
        let (mut w, queue) = run_on(Device::native(), params);
        let first = w.membership_buf.as_ref().unwrap().to_vec();
        w.run_iteration(&queue).unwrap();
        w.run_iteration(&queue).unwrap();
        let third = w.membership_buf.as_ref().unwrap().to_vec();
        assert_eq!(first, third);
        assert_eq!(w.base.iterations, 3);
    }

    #[test]
    fn kernel_paths_are_byte_identical_across_paper_sizes() {
        for size in [
            ProblemSize::Tiny,
            ProblemSize::Small,
            ProblemSize::Medium,
            ProblemSize::Large,
        ] {
            let run = |queue: CommandQueue| -> Vec<i32> {
                let (w, _q) = run_on_queue(queue, KmeansParams::for_size(size));
                w.membership_buf.as_ref().unwrap().to_vec()
            };
            let ctx = Context::new(Device::native());
            assert_eq!(
                run(CommandQueue::per_item_reference(&ctx)),
                run(CommandQueue::new(&ctx)),
                "{size:?}"
            );
        }
    }

    #[test]
    fn run_before_setup_fails() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut w = KmeansWorkload::new(
            KmeansParams {
                points: 8,
                features: 2,
                clusters: 2,
            },
            0,
        );
        assert!(w.run_iteration(&queue).is_err());
    }
}

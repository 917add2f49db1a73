//! gem — the N-Body Methods dwarf (Fig. 4a).
//!
//! Gemnoui computes the electrostatic potential of a biomolecular structure
//! at each vertex of its solvent-excluded surface: an all-pairs sum
//! `φ(v) = Σ_a q_a / ‖v − r_a‖`. The paper sizes gem by molecule — 4TUT
//! (31.3 KiB device memory), 2D3V (252 KiB), the OpenDwarfs nucleosome
//! (7 498 KiB) and 1KX5 (10 970.2 KiB) — prepared with pdb2pqr and msms.
//!
//! We have neither the PDB files nor those tools, so [`synthesize_molecule`]
//! builds a synthetic molecule hitting the *same device footprint*: atoms
//! jittered in an ellipsoidal volume with near-neutral total charge, and
//! surface vertices on the ellipsoid boundary (three surface vertices per
//! atom, the typical msms triangulation density). The kernel's arithmetic,
//! memory layout (x,y,z,q quads) and parallel shape (one work-item per
//! vertex, inner loop over all atoms) match the original, which is what the
//! figure actually exercises.

use crate::common::{local_1d, rng_for, round_up, WorkloadBase, MAX_LOCAL_1D};
use eod_clrt::prelude::*;
use eod_core::benchmark::{Benchmark, IterationOutput, Workload};
use eod_core::dwarf::Dwarf;
use eod_core::sizes::{ProblemSize, ScaleTable};
use eod_core::validation;
use eod_devsim::profile::{AccessPattern, KernelProfile};
use rand::Rng;

/// A synthetic molecule: atom quads and surface vertex positions.
#[derive(Debug, Clone)]
pub struct Molecule {
    /// Molecule name (the paper's PDB identifier).
    pub name: String,
    /// Atom data, 4 floats per atom: x, y, z, charge.
    pub atoms: Vec<f32>,
    /// Vertex positions, 3 floats per vertex.
    pub vertices: Vec<f32>,
}

impl Molecule {
    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len() / 4
    }

    /// Number of surface vertices.
    pub fn n_vertices(&self) -> usize {
        self.vertices.len() / 3
    }

    /// Device footprint: atom quads + vertex triples + potential output.
    pub fn footprint_bytes(&self) -> u64 {
        (self.atoms.len() * 4 + self.vertices.len() * 4 + self.n_vertices() * 4) as u64
    }
}

/// Entity split for a byte budget: one atom (16 B) to three vertices
/// (12 B position + 4 B potential each).
pub fn split_for_footprint(target_bytes: u64) -> (usize, usize) {
    // footprint = 16·na + 16·nv with nv = 3·na ⇒ na = target / 64.
    let na = ((target_bytes / 64) as usize).max(1);
    (na, 3 * na)
}

/// Build a synthetic molecule whose device footprint matches
/// `target_kib` (the paper's published per-molecule figure).
pub fn synthesize_molecule(name: &str, target_kib: f64, seed: u64) -> Molecule {
    let target = (target_kib * 1024.0) as u64;
    let (na, nv) = split_for_footprint(target);
    let mut rng = rng_for(seed, 9);
    // Ellipsoid semi-axes grow with the cube root of atom count so density
    // stays protein-like.
    let scale = (na as f32).cbrt();
    let (ax, ay, az) = (1.2 * scale, 0.9 * scale, 0.7 * scale);
    let mut atoms = Vec::with_capacity(na * 4);
    for i in 0..na {
        // Rejection-free interior sample: scaled spherical coordinates.
        let u: f32 = rng.random_range(0.0f32..1.0);
        let r = u.cbrt() * 0.95;
        let theta: f32 = rng.random_range(0.0..std::f32::consts::PI);
        let phi: f32 = rng.random_range(0.0..2.0 * std::f32::consts::PI);
        atoms.push(ax * r * theta.sin() * phi.cos());
        atoms.push(ay * r * theta.sin() * phi.sin());
        atoms.push(az * r * theta.cos());
        // Alternating partial charges keep the molecule near-neutral.
        let q: f32 = rng.random_range(0.1..0.8);
        atoms.push(if i % 2 == 0 { q } else { -q });
    }
    let mut vertices = Vec::with_capacity(nv * 3);
    for _ in 0..nv {
        // Points on the ellipsoid surface, slightly outside the atoms.
        let theta: f32 = rng.random_range(0.0..std::f32::consts::PI);
        let phi: f32 = rng.random_range(0.0..2.0 * std::f32::consts::PI);
        vertices.push(ax * 1.05 * theta.sin() * phi.cos());
        vertices.push(ay * 1.05 * theta.sin() * phi.sin());
        vertices.push(az * 1.05 * theta.cos());
    }
    Molecule {
        name: name.to_string(),
        atoms,
        vertices,
    }
}

/// Serial reference potential (same f32 accumulation order as the kernel).
pub fn serial_potential(m: &Molecule) -> Vec<f32> {
    (0..m.n_vertices())
        .map(|v| {
            let (vx, vy, vz) = (
                m.vertices[3 * v],
                m.vertices[3 * v + 1],
                m.vertices[3 * v + 2],
            );
            let mut phi = 0.0f32;
            for a in 0..m.n_atoms() {
                let dx = vx - m.atoms[4 * a];
                let dy = vy - m.atoms[4 * a + 1];
                let dz = vz - m.atoms[4 * a + 2];
                let r = (dx * dx + dy * dy + dz * dz).sqrt();
                phi += m.atoms[4 * a + 3] / r;
            }
            phi
        })
        .collect()
}

/// The potential kernel: one work-item per surface vertex.
struct GemKernel {
    atoms: BufView<f32>,
    vertices: BufView<f32>,
    phi: BufView<f32>,
    n_atoms: usize,
    n_vertices: usize,
    footprint: u64,
}

impl Kernel for GemKernel {
    fn name(&self) -> &str {
        "gem::potential"
    }

    fn profile(&self) -> KernelProfile {
        let pairs = (self.n_atoms * self.n_vertices) as f64;
        let mut prof = KernelProfile::new("gem::potential");
        // Per pair: 3 subs, 3 mul-adds, sqrt (≈1), divide, add ≈ 9 flops.
        prof.flops = pairs * 9.0;
        // Atoms are re-streamed per vertex but hit cache; count compulsory
        // traffic only.
        prof.bytes_read = (self.n_atoms * 16 + self.n_vertices * 12) as f64;
        prof.bytes_written = (self.n_vertices * 4) as f64;
        prof.working_set = self.footprint;
        prof.pattern = AccessPattern::Streaming;
        prof.work_items = self.n_vertices as u64;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        // The local-memory structure of the OpenCL original: stage this
        // group's vertex triples once, then stream the atom quads through
        // a private tile (16 KiB — L1-resident) shared by every vertex of
        // the group. All inner-loop operands are plain floats, so the
        // all-pairs loop vectorizes; per-vertex accumulation order over
        // atoms is unchanged (tiles ascend, atoms within a tile ascend),
        // keeping results bit-identical to the per-element version.
        const TILE: usize = 1024;
        let gsize = group.range.local[0];
        let gbase = group.group_id(0) * gsize;
        let active = self.n_vertices.saturating_sub(gbase).min(gsize);
        if active == 0 {
            return; // fully padded tail group
        }
        // Fixed stack scratch (~20 KiB): a per-group heap allocation
        // would tax the hot dispatch path the staging is meant to speed
        // up, exactly as in the bench saxpy kernel.
        let mut verts = [0.0f32; MAX_LOCAL_1D * 3];
        let verts = &mut verts[..active * 3];
        let mut phis = [0.0f32; MAX_LOCAL_1D];
        let phis = &mut phis[..active];
        let mut tile = [0.0f32; TILE * 4];
        // SAFETY: `vertices` and `atoms` are launch inputs — no work-item
        // writes them, and the in-order queue serializes transfers
        // against kernel execution.
        unsafe { self.vertices.read_slice(gbase * 3, verts) };
        let mut a0 = 0usize;
        while a0 < self.n_atoms {
            let cnt = TILE.min(self.n_atoms - a0);
            // SAFETY: as above — atoms are read-only during the launch.
            unsafe { self.atoms.read_slice(a0 * 4, &mut tile[..cnt * 4]) };
            for (vi, phi) in phis.iter_mut().enumerate() {
                let (vx, vy, vz) = (verts[3 * vi], verts[3 * vi + 1], verts[3 * vi + 2]);
                let mut acc = *phi;
                for a in 0..cnt {
                    let dx = vx - tile[4 * a];
                    let dy = vy - tile[4 * a + 1];
                    let dz = vz - tile[4 * a + 2];
                    let r = (dx * dx + dy * dy + dz * dz).sqrt();
                    acc += tile[4 * a + 3] / r;
                }
                *phi = acc;
            }
            a0 += cnt;
        }
        // SAFETY: each work-group exclusively owns
        // `phi[gbase..gbase + active]` — group output spans are disjoint.
        unsafe { self.phi.write_slice(gbase, phis) };
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for GemKernel {
    fn domain(&self) -> usize {
        self.n_vertices
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        // Same atom blocking as `run_group`, over zero-copy slices instead
        // of staged stack tiles. Per-vertex accumulation order over atoms is
        // unchanged — tiles ascend, atoms within a tile ascend — and it does
        // not depend on the span split, so results are bit-identical to the
        // scalar path at every size.
        const TILE: usize = 1024;
        // SAFETY: atoms and vertices are launch inputs (never written); this
        // call exclusively owns phi[span] — backend spans are disjoint.
        unsafe {
            let atoms = self.atoms.slice(0..self.n_atoms * 4);
            let verts = self.vertices.slice(span.start * 3..span.end * 3);
            let phis = self.phi.slice_mut(span);
            phis.fill(0.0);
            let mut a0 = 0usize;
            while a0 < self.n_atoms {
                let cnt = TILE.min(self.n_atoms - a0);
                let tile = &atoms[a0 * 4..(a0 + cnt) * 4];
                for (vi, phi) in phis.iter_mut().enumerate() {
                    let (vx, vy, vz) = (verts[3 * vi], verts[3 * vi + 1], verts[3 * vi + 2]);
                    let mut acc = *phi;
                    for a in 0..cnt {
                        let dx = vx - tile[4 * a];
                        let dy = vy - tile[4 * a + 1];
                        let dz = vz - tile[4 * a + 2];
                        let r = (dx * dx + dy * dy + dz * dz).sqrt();
                        acc += tile[4 * a + 3] / r;
                    }
                    *phi = acc;
                }
                a0 += cnt;
            }
        }
    }
}

/// The gem benchmark descriptor.
pub struct Gem;

impl Benchmark for Gem {
    fn name(&self) -> &'static str {
        "gem"
    }

    fn dwarf(&self) -> Dwarf {
        Dwarf::NBodyMethods
    }

    fn workload(&self, size: ProblemSize, seed: u64) -> Box<dyn Workload> {
        let i = ScaleTable::index(size);
        Box::new(GemWorkload::new(
            ScaleTable::GEM_MOLECULES[i],
            ScaleTable::GEM_FOOTPRINT_KIB[i],
            seed,
        ))
    }
}

/// A configured gem instance.
pub struct GemWorkload {
    molecule_name: String,
    target_kib: f64,
    seed: u64,
    base: WorkloadBase,
    molecule: Option<Molecule>,
    kernel: Option<GemKernel>,
    phi_buf: Option<Buffer<f32>>,
    held: Vec<Buffer<f32>>,
    range: NdRange,
}

impl GemWorkload {
    /// Workload for a named molecule with a target footprint.
    pub fn new(name: &str, target_kib: f64, seed: u64) -> Self {
        Self {
            molecule_name: name.to_string(),
            target_kib,
            seed,
            base: WorkloadBase::default(),
            molecule: None,
            kernel: None,
            phi_buf: None,
            held: Vec::new(),
            range: NdRange::d1(1, 1),
        }
    }
}

impl Workload for GemWorkload {
    fn footprint_bytes(&self) -> u64 {
        match &self.molecule {
            Some(m) => m.footprint_bytes(),
            None => {
                let (na, nv) = split_for_footprint((self.target_kib * 1024.0) as u64);
                (na * 16 + nv * 16) as u64
            }
        }
    }

    fn setup(&mut self, ctx: &Context, queue: &CommandQueue) -> Result<Vec<Event>> {
        let m = synthesize_molecule(&self.molecule_name, self.target_kib, self.seed);
        let atoms = ctx.create_buffer::<f32>(m.atoms.len())?;
        let vertices = ctx.create_buffer::<f32>(m.vertices.len())?;
        let phi = ctx.create_buffer::<f32>(m.n_vertices())?;
        let events = vec![
            queue.enqueue_write_buffer(&atoms, &m.atoms)?,
            queue.enqueue_write_buffer(&vertices, &m.vertices)?,
        ];
        let local = local_1d(m.n_vertices(), queue.device());
        self.range = NdRange::d1(round_up(m.n_vertices(), local), local);
        self.kernel = Some(GemKernel {
            atoms: atoms.view(),
            vertices: vertices.view(),
            phi: phi.view(),
            n_atoms: m.n_atoms(),
            n_vertices: m.n_vertices(),
            footprint: m.footprint_bytes(),
        });
        self.phi_buf = Some(phi);
        self.held.push(atoms);
        self.held.push(vertices);
        self.molecule = Some(m);
        self.base.ready = true;
        Ok(events)
    }

    fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        self.base.require_ready()?;
        let kernel = self.kernel.as_ref().expect("ready");
        let ev = queue.enqueue_kernel(kernel, &self.range)?;
        self.base.iterations += 1;
        Ok(IterationOutput::new(vec![ev]))
    }

    fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        let m = self.molecule.as_ref().ok_or("verify before setup")?;
        let phi = self.phi_buf.as_ref().ok_or("verify before setup")?;
        let mut got = vec![0.0f32; m.n_vertices()];
        queue
            .enqueue_read_buffer(phi, &mut got)
            .map_err(|e| e.to_string())?;
        let want = serial_potential(m);
        validation::check_close("gem potential", &got, &want, 1e-4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_molecules_hit_published_footprints() {
        for (name, kib) in ScaleTable::GEM_MOLECULES
            .iter()
            .zip(ScaleTable::GEM_FOOTPRINT_KIB)
        {
            let (na, nv) = split_for_footprint((kib * 1024.0) as u64);
            let bytes = (na * 16 + nv * 16) as f64;
            let rel = (bytes - kib * 1024.0).abs() / (kib * 1024.0);
            assert!(rel < 0.01, "{name}: {bytes} B vs target {kib} KiB");
            assert_eq!(nv, 3 * na);
        }
    }

    #[test]
    fn molecule_is_near_neutral() {
        let m = synthesize_molecule("4TUT", 31.3, 5);
        let total_q: f32 = (0..m.n_atoms()).map(|a| m.atoms[4 * a + 3]).sum();
        let abs_q: f32 = (0..m.n_atoms()).map(|a| m.atoms[4 * a + 3].abs()).sum();
        assert!(total_q.abs() < abs_q * 0.1, "net {total_q} of {abs_q}");
    }

    #[test]
    fn vertices_are_outside_atoms() {
        // No vertex may coincide with an atom (r = 0 would blow up 1/r).
        let m = synthesize_molecule("4TUT", 31.3, 6);
        let phi = serial_potential(&m);
        assert!(
            phi.iter().all(|v| v.is_finite()),
            "potential must be finite"
        );
    }

    fn run_gem(device: Device, kib: f64) {
        let ctx = Context::new(device);
        let queue = CommandQueue::new(&ctx).with_profiling();
        let mut w = GemWorkload::new("test", kib, 8);
        w.setup(&ctx, &queue).unwrap();
        w.run_iteration(&queue).unwrap();
        w.verify(&queue).unwrap();
    }

    #[test]
    fn device_matches_serial_native() {
        run_gem(Device::native(), 31.3); // 4TUT scale
    }

    #[test]
    fn device_matches_serial_simulated() {
        let k40 = Platform::simulated().device_by_name("K40m").unwrap();
        run_gem(k40, 16.0);
    }

    #[test]
    fn kernel_paths_are_byte_identical() {
        // Tiny (4TUT) and small (2D3V) only: medium/large are O(n²) in an
        // all-pairs sum and take minutes per run. The accumulation order is
        // size-independent (ascending tiles, ascending atoms within a tile),
        // so these two cover the equivalence argument.
        for (name, kib) in [("4TUT", 31.3), ("2D3V", 252.0)] {
            let ctx = Context::new(Device::native());
            let run = |queue: CommandQueue| -> Vec<u32> {
                let mut w = GemWorkload::new(name, kib, 31);
                w.setup(&ctx, &queue).unwrap();
                w.run_iteration(&queue).unwrap();
                let phi = w.phi_buf.as_ref().unwrap();
                phi.to_vec().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(
                run(CommandQueue::per_item_reference(&ctx)),
                run(CommandQueue::new(&ctx)),
                "{name}"
            );
        }
    }

    #[test]
    fn profile_is_compute_bound() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut w = GemWorkload::new("4TUT", 31.3, 1);
        w.setup(&ctx, &queue).unwrap();
        let p = w.kernel.as_ref().unwrap().profile();
        p.validate().unwrap();
        assert!(
            p.arithmetic_intensity() > 10.0,
            "all-pairs n-body is compute bound: {}",
            p.arithmetic_intensity()
        );
    }
}

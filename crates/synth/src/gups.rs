//! RandomAccess (GUPS) probe: XOR updates at pseudo-random table indices.
//!
//! A power-of-two table of `u64`; each work-item owns a contiguous,
//! power-of-two chunk of it and applies splitmix64-indexed XOR updates
//! *within its chunk* — globally the access stream is random over the
//! whole table (the HPCC behaviour the stack-distance model struggles
//! with), while writes stay disjoint across work-items as the `clrt`
//! contract requires, so no update is ever lost (HPCC tolerates 1 %
//! losses; we tolerate none and can therefore verify exactly).
//!
//! XOR self-inverts, so applying the same update stream twice restores the
//! table: the verifier only needs the iteration-count parity.

use crate::{floor_pow2, splitmix64, SynthSpec, LOCAL_SIZE};
use eod_clrt::prelude::*;
use eod_core::benchmark::{IterationOutput, Workload};
use eod_devsim::profile::{AccessPattern, KernelProfile};

/// Minimum updates per iteration, so small tables are not launch-overhead
/// bound (the amortization floor every family applies).
pub const MIN_UPDATES: u64 = 1 << 19;

/// Cap on updates per iteration so huge-footprint sweep points stay
/// tractable when kernels execute for real (4 Mi updates ≈ tens of ms on
/// the host backend).
pub const MAX_UPDATES: u64 = 1 << 22;

/// Table length (u64 elements) for a requested footprint: the largest
/// power of two that fits, minimum one work-group.
pub fn table_len(footprint_bytes: u64) -> usize {
    floor_pow2(footprint_bytes / 8).max(LOCAL_SIZE as u64) as usize
}

/// Updates one iteration applies over the whole table: one per element,
/// clamped to `[MIN_UPDATES, MAX_UPDATES]`.
pub fn updates_per_iteration(n: usize) -> u64 {
    (n as u64).clamp(MIN_UPDATES, MAX_UPDATES)
}

/// Work-items launched over a table of `n` elements — a power of two so
/// every chunk length is too.
pub fn work_items(n: usize) -> usize {
    (LOCAL_SIZE * 4).min(n)
}

/// Per-item splitmix64 seed: decorrelate chunks without shared state.
fn item_seed(seed: u64, item: usize) -> u64 {
    let mut s = seed ^ (item as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    splitmix64(&mut s)
}

struct GupsKernel {
    table: BufView<u64>,
    n: usize,
    items: usize,
    updates: u64,
    seed: u64,
}

impl GupsKernel {
    /// Apply (or re-apply: XOR self-inverts) item `g`'s update stream:
    /// `f(idx, r)` for each update, `idx` a global table index inside item
    /// `g`'s chunk. Every path — per-item, span and verify — shares this
    /// loop, monomorphized over its update closure.
    fn apply_item(
        seed: u64,
        g: usize,
        items: usize,
        n: usize,
        updates: u64,
        mut f: impl FnMut(usize, u64),
    ) {
        let chunk = n / items; // both powers of two
        let base = g * chunk;
        let per_item = updates / items as u64;
        let mut s = item_seed(seed, g);
        for _ in 0..per_item {
            let r = splitmix64(&mut s);
            let idx = base + (r & (chunk as u64 - 1)) as usize;
            f(idx, r);
        }
    }
}

impl Kernel for GupsKernel {
    fn name(&self) -> &str {
        "synth::gups_update"
    }

    fn profile(&self) -> KernelProfile {
        let per_item = self.updates / self.items as u64;
        let total = per_item * self.items as u64;
        let mut prof = KernelProfile::new("synth::gups_update");
        // Read-modify-write of one u64 per update, plus generator math.
        prof.bytes_read = total as f64 * 8.0;
        prof.bytes_written = total as f64 * 8.0;
        prof.int_ops = total as f64 * 8.0;
        prof.working_set = (self.n as u64) * 8;
        prof.pattern = AccessPattern::Random;
        prof.work_items = self.items as u64;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        for item in group.items() {
            let g = item.global_id(0);
            if g >= self.items {
                continue;
            }
            Self::apply_item(self.seed, g, self.items, self.n, self.updates, |idx, r| {
                self.table.set(idx, self.table.get(idx) ^ r);
            });
        }
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for GupsKernel {
    fn domain(&self) -> usize {
        self.n
    }

    /// One item's chunk: a span owns whole chunks, so every update it
    /// applies lands inside its own slice.
    fn granularity(&self) -> usize {
        self.n / self.items
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        let chunk = self.granularity();
        // SAFETY: each item writes only its own chunk, and the backend
        // hands out disjoint chunk-aligned spans.
        let table = unsafe { self.table.slice_mut(span.clone()) };
        let base = span.start;
        for g in span.start / chunk..span.end / chunk {
            Self::apply_item(self.seed, g, self.items, self.n, self.updates, |idx, r| {
                table[idx - base] ^= r;
            });
        }
    }
}

/// A configured GUPS instance.
pub struct GupsWorkload {
    seed: u64,
    n: usize,
    items: usize,
    updates: u64,
    iterations: usize,
    host_init: Vec<u64>,
    table: Option<Buffer<u64>>,
    range: NdRange,
}

impl GupsWorkload {
    /// Build from a spec (family must be `gups`) and a seed.
    pub fn new(spec: SynthSpec, seed: u64) -> Self {
        let n = table_len(spec.footprint_bytes);
        let items = work_items(n);
        Self {
            seed,
            n,
            items,
            updates: updates_per_iteration(n),
            iterations: 0,
            host_init: Vec::new(),
            table: None,
            range: NdRange::d1(items, LOCAL_SIZE.min(items)),
        }
    }

    /// Table length in elements (power of two).
    pub fn table_len(&self) -> usize {
        self.n
    }

    /// Updates one iteration applies (for GUPS-metric derivation).
    pub fn updates(&self) -> u64 {
        (self.updates / self.items as u64) * self.items as u64
    }
}

impl Workload for GupsWorkload {
    fn footprint_bytes(&self) -> u64 {
        (self.n as u64) * 8
    }

    fn setup(&mut self, ctx: &Context, queue: &CommandQueue) -> Result<Vec<Event>> {
        let mut s = self.seed ^ 0x4755_5053_5441_424C; // "GUPSTABL" tag
        self.host_init = (0..self.n as u64).map(|i| i ^ splitmix64(&mut s)).collect();
        let table = ctx.create_buffer::<u64>(self.n)?;
        let ev = queue.enqueue_write_buffer(&table, &self.host_init)?;
        self.table = Some(table);
        self.iterations = 0;
        Ok(vec![ev])
    }

    fn run_iteration(&mut self, queue: &CommandQueue) -> Result<IterationOutput> {
        let table = self
            .table
            .as_ref()
            .ok_or_else(|| Error::InvalidValue("gups used before setup".into()))?;
        let kernel = GupsKernel {
            table: table.view(),
            n: self.n,
            items: self.items,
            updates: self.updates,
            seed: self.seed,
        };
        let ev = queue.enqueue_kernel(&kernel, &self.range)?;
        self.iterations += 1;
        Ok(IterationOutput::new(vec![ev]))
    }

    fn verify(&mut self, queue: &CommandQueue) -> std::result::Result<(), String> {
        let table = self.table.as_ref().ok_or("verify before setup")?;
        let mut got = vec![0u64; self.n];
        queue
            .enqueue_read_buffer(table, &mut got)
            .map_err(|e| e.to_string())?;
        if self.iterations % 2 == 1 {
            // Odd parity: one net application of the update stream. XOR it
            // back out in place — `got ^ stream == init` exactly where
            // `got == init ^ stream` — so no second table is built.
            for g in 0..self.items {
                GupsKernel::apply_item(self.seed, g, self.items, self.n, self.updates, |idx, r| {
                    got[idx] ^= r;
                });
            }
        }
        let bad = got
            .iter()
            .zip(&self.host_init)
            .filter(|(g, w)| g != w)
            .count();
        if bad != 0 {
            return Err(format!("gups: {bad}/{} table slots wrong", self.n));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthFamily;
    use proptest::prelude::*;

    fn spec(fp: u64) -> SynthSpec {
        SynthSpec::new(SynthFamily::Gups, fp)
    }

    #[test]
    fn updates_verify_at_odd_and_even_parity() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx).with_profiling();
        let mut w = GupsWorkload::new(spec(64 * 1024), 5);
        w.setup(&ctx, &queue).unwrap();
        w.run_iteration(&queue).unwrap();
        w.verify(&queue).unwrap(); // odd: stream applied once
        w.run_iteration(&queue).unwrap();
        w.verify(&queue).unwrap(); // even: XOR cancelled, table pristine
    }

    #[test]
    fn kernel_paths_are_byte_identical_across_footprints() {
        // 32 MiB is the footprint the end-to-end benchmark runs.
        for fp in [64 * 1024, 1 << 20, 32 << 20] {
            let ctx = Context::new(Device::native());
            let run = |queue: CommandQueue| -> Vec<u64> {
                let mut w = GupsWorkload::new(spec(fp), 9);
                w.setup(&ctx, &queue).unwrap();
                w.run_iteration(&queue).unwrap();
                w.verify(&queue).unwrap();
                let mut got = vec![0u64; w.n];
                queue
                    .enqueue_read_buffer(w.table.as_ref().unwrap(), &mut got)
                    .unwrap();
                got
            };
            assert_eq!(
                run(CommandQueue::per_item_reference(&ctx)),
                run(CommandQueue::new(&ctx)),
                "footprint {fp}"
            );
        }
    }

    #[test]
    fn verify_counts_a_flipped_slot_at_odd_parity() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut w = GupsWorkload::new(spec(64 * 1024), 5);
        w.setup(&ctx, &queue).unwrap();
        w.run_iteration(&queue).unwrap();
        let table = w.table.as_ref().unwrap();
        table.set(17, table.get(17) ^ 1);
        assert_eq!(
            w.verify(&queue),
            Err(format!("gups: 1/{} table slots wrong", w.n))
        );
    }

    #[test]
    fn table_rounds_down_to_power_of_two() {
        assert_eq!(table_len(8 * 1024), 1024);
        assert_eq!(table_len(8 * 1024 + 8), 1024);
        assert_eq!(table_len(16 * 1024 - 8), 1024);
        assert_eq!(table_len(1), LOCAL_SIZE); // floor
    }

    #[test]
    fn profile_is_random_pattern_full_table_working_set() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut w = GupsWorkload::new(spec(1 << 20), 2);
        w.setup(&ctx, &queue).unwrap();
        let table = w.table.as_ref().unwrap();
        let k = GupsKernel {
            table: table.view(),
            n: w.n,
            items: w.items,
            updates: w.updates,
            seed: w.seed,
        };
        let p = k.profile();
        p.validate().unwrap();
        assert_eq!(p.pattern, AccessPattern::Random);
        assert_eq!(p.working_set, w.footprint_bytes());
        assert_eq!(p.flops, 0.0);
    }

    #[test]
    fn update_cap_bounds_huge_footprints() {
        let w = GupsWorkload::new(spec(1 << 30), 0);
        assert!(w.updates() <= MAX_UPDATES);
        assert!(w.updates() > 0);
    }

    proptest! {
        #[test]
        fn chunks_partition_the_table(fp in 512u64..=1 << 22) {
            let w = GupsWorkload::new(spec(fp), 3);
            let (n, items) = (w.table_len(), w.items);
            prop_assert!(n.is_power_of_two());
            prop_assert!(items.is_power_of_two());
            prop_assert_eq!(n % items, 0);
            // Every update stays inside its item's chunk.
            let chunk = n / items;
            for g in [0, items / 2, items - 1] {
                GupsKernel::apply_item(3, g, items, n, w.updates, |idx, _| {
                    assert!(idx >= g * chunk && idx < (g + 1) * chunk);
                });
            }
        }

        #[test]
        fn deterministic_under_fixed_seed(seed in 0u64..=u64::MAX) {
            let mut a = Vec::new();
            let mut b = Vec::new();
            GupsKernel::apply_item(seed, 1, 4, 1024, 256, |idx, r| a.push((idx, r)));
            GupsKernel::apply_item(seed, 1, 4, 1024, 256, |idx, r| b.push((idx, r)));
            prop_assert_eq!(a, b);
        }
    }
}

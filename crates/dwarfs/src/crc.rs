//! crc — the Combinational Logic dwarf (Fig. 1).
//!
//! A 32-bit cyclic redundancy check (IEEE 802.3 polynomial, reflected form
//! `0xEDB88320`) over a generated message of Φ bytes. The OpenCL original
//! splits the message into pages, computes each page's CRC in parallel with
//! the table-driven byte algorithm, and merges the partial CRCs; we do the
//! same, merging with the zlib-style GF(2) matrix `crc32_combine`.
//!
//! crc is the paper's star witness for device suitability: it is almost
//! pure integer work on a serially dependent chain, with very low
//! floating-point intensity — "execution times for crc are lowest on
//! CPU-type architectures" (§5.1), and it is the only benchmark where the
//! GTX 1080 loses on energy (§5.2).

use crate::common::{rng_for, WorkloadBase};
use eod_clrt::prelude::*;
use eod_core::benchmark::{Benchmark, IterationOutput, Workload};
use eod_core::dwarf::Dwarf;
use eod_core::sizes::{ProblemSize, ScaleTable};
use eod_core::validation;
use eod_devsim::profile::{AccessPattern, KernelProfile};
use rand::Rng;

/// Reflected CRC-32 polynomial (IEEE 802.3).
pub const POLY: u32 = 0xEDB8_8320;

/// Number of parallel pages the message is split into — the kernel's entire
/// exposed parallelism, deliberately tiny: the algorithm's dependence chain
/// is per-byte within a page, which is what strands GPUs.
pub const PAGES: usize = 64;

/// Bitwise reference CRC32 (no tables) — the ground truth for every test.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// The standard 256-entry lookup table.
pub fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
        *entry = crc;
    }
    table
}

/// Table-driven CRC32 of one slice (the serial reference of the kernel's
/// algorithm).
pub fn crc32_table(table: &[u32; 256], data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---- GF(2) CRC combination (zlib's crc32_combine) ----

fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

fn gf2_matrix_square(square: &mut [u32; 32], mat: &[u32; 32]) {
    for i in 0..32 {
        square[i] = gf2_matrix_times(mat, mat[i]);
    }
}

/// Combine `crc1` (over a first block) with `crc2` (over a second block of
/// `len2` bytes) into the CRC of the concatenation — zlib's algorithm:
/// advance `crc1` through `len2` zero bytes by repeated matrix squaring,
/// then xor with `crc2`.
pub fn crc32_combine(crc1: u32, crc2: u32, mut len2: u64) -> u32 {
    if len2 == 0 {
        return crc1;
    }
    let mut even = [0u32; 32];
    let mut odd = [0u32; 32];

    // odd = operator advancing the CRC register by one zero bit.
    odd[0] = POLY;
    let mut row = 1u32;
    for entry in odd.iter_mut().skip(1) {
        *entry = row;
        row <<= 1;
    }
    // even = two zero bits; odd = four.
    gf2_matrix_square(&mut even, &odd);
    gf2_matrix_square(&mut odd, &even);

    let mut crc1 = crc1;
    loop {
        gf2_matrix_square(&mut even, &odd);
        if len2 & 1 != 0 {
            crc1 = gf2_matrix_times(&even, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
        gf2_matrix_square(&mut odd, &even);
        if len2 & 1 != 0 {
            crc1 = gf2_matrix_times(&odd, crc1);
        }
        len2 >>= 1;
        if len2 == 0 {
            break;
        }
    }
    crc1 ^ crc2
}

/// Byte range of page `p` in a message of `len` bytes split into [`PAGES`].
pub fn page_bounds(len: usize, p: usize) -> (usize, usize) {
    let per = len.div_ceil(PAGES);
    let start = (p * per).min(len);
    let end = ((p + 1) * per).min(len);
    (start, end)
}

/// The page-parallel CRC kernel: work-item `p` computes the table-driven
/// CRC of page `p`.
struct CrcKernel {
    message: BufView<u8>,
    table: BufView<u32>,
    page_crcs: BufView<u32>,
    len: usize,
}

impl Kernel for CrcKernel {
    fn name(&self) -> &str {
        "crc::pages"
    }

    fn profile(&self) -> KernelProfile {
        let mut prof = KernelProfile::new("crc::pages");
        // Per byte: xor, mask, shift, table index, xor ≈ 6 integer ops.
        prof.int_ops = self.len as f64 * 6.0;
        prof.flops = 0.0;
        prof.bytes_read = self.len as f64 + 1024.0; // message + table
        prof.bytes_written = PAGES as f64 * 4.0;
        prof.working_set = self.len as u64 + 1024 + PAGES as u64 * 4;
        prof.pattern = AccessPattern::Streaming;
        prof.work_items = PAGES as u64;
        // The per-byte chain `crc = f(crc, byte)` cannot be vectorized or
        // spread across lanes; only the 64 pages are independent.
        prof.serial_fraction = 0.85;
        prof.branch_fraction = 0.08;
        prof
    }

    fn run_group(&self, group: &WorkGroup) {
        for item in group.items() {
            let p = item.global_id(0);
            if p >= PAGES {
                continue;
            }
            let (start, end) = page_bounds(self.len, p);
            let mut crc = 0xFFFF_FFFFu32;
            for i in start..end {
                let b = self.message.get(i) as u32;
                crc = (crc >> 8) ^ self.table.get(((crc ^ b) & 0xFF) as usize);
            }
            self.page_crcs.set(p, !crc);
        }
    }

    fn body(&self) -> KernelBody<'_> {
        KernelBody::Vectorized(self)
    }
}

impl VectorizedBody for CrcKernel {
    /// The message padded to whole pages: [`PAGES`] × bytes per page.
    fn domain(&self) -> usize {
        PAGES * self.granularity()
    }

    /// One page: a span owns whole pages and their CRC slots.
    fn granularity(&self) -> usize {
        self.len.div_ceil(PAGES)
    }

    fn run_span(&self, span: std::ops::Range<usize>) {
        let per = self.granularity();
        let pages = span.start / per..span.end / per;
        // SAFETY: the kernel only reads the message and table, and
        // exclusively owns the CRC slots of the pages in `span` — the
        // backend hands out disjoint page-aligned spans.
        let (message, table, out) = unsafe {
            (
                self.message.slice(0..self.len),
                self.table.slice(0..256),
                self.page_crcs.slice_mut(pages.clone()),
            )
        };
        let table: &[u32; 256] = table.try_into().expect("256-entry table");
        for (slot, p) in out.iter_mut().zip(pages) {
            let (start, end) = page_bounds(self.len, p);
            *slot = crc32_table(table, &message[start..end]);
        }
    }
}

/// The crc benchmark descriptor.
pub struct Crc;

impl Benchmark for Crc {
    fn name(&self) -> &'static str {
        "crc"
    }

    fn dwarf(&self) -> Dwarf {
        Dwarf::CombinationalLogic
    }

    fn workload(&self, size: ProblemSize, seed: u64) -> Box<dyn Workload> {
        Box::new(CrcWorkload::new(
            ScaleTable::CRC_BYTES[ScaleTable::index(size)],
            seed,
        ))
    }
}

/// A configured crc instance over a message of `len` bytes.
pub struct CrcWorkload {
    len: usize,
    seed: u64,
    base: WorkloadBase,
    host_message: Vec<u8>,
    expected_crc: u32,
    kernel: Option<CrcKernel>,
    page_buf: Option<Buffer<u32>>,
    message_buf: Option<Buffer<u8>>,
    table_buf: Option<Buffer<u32>>,
    range: NdRange,
}

impl CrcWorkload {
    /// Workload over `len` generated bytes.
    pub fn new(len: usize, seed: u64) -> Self {
        Self {
            len,
            seed,
            base: WorkloadBase::default(),
            host_message: Vec::new(),
            expected_crc: 0,
            kernel: None,
            page_buf: None,
            message_buf: None,
            table_buf: None,
            range: NdRange::d1(PAGES, PAGES),
        }
    }

    /// Combine the device's page CRCs into the message CRC.
    pub fn combine_pages(&self, page_crcs: &[u32]) -> u32 {
        let mut acc: Option<u32> = None;
        for (p, &crc) in page_crcs.iter().enumerate() {
            let (start, end) = page_bounds(self.len, p);
            if start == end {
                continue;
            }
            acc = Some(match acc {
                None => crc,
                Some(a) => crc32_combine(a, crc, (end - start) as u64),
            });
        }
        acc.unwrap_or(0)
    }
}

impl Workload for CrcWorkload {
    fn footprint_bytes(&self) -> u64 {
        self.len as u64 + 1024 + (PAGES * 4) as u64
    }

    fn setup(&mut self, ctx: &Context, queue: &CommandQueue) -> Result<Vec<Event>> {
        let mut rng = rng_for(self.seed, 0);
        self.host_message = (0..self.len).map(|_| rng.random::<u8>()).collect();
        self.expected_crc = crc32_bitwise(&self.host_message);

        let table = make_table();
        let message_buf = ctx.create_buffer::<u8>(self.len)?;
        let table_buf = ctx.create_buffer::<u32>(256)?;
        let page_buf = ctx.create_buffer::<u32>(PAGES)?;
        let events = vec![
            queue.enqueue_write_buffer(&message_buf, &self.host_message)?,
            queue.enqueue_write_buffer(&table_buf, &table)?,
        ];

        self.kernel = Some(CrcKernel {
            message: message_buf.view(),
            table: table_buf.view(),
            page_crcs: page_buf.view(),
            len: self.len,
        });
        self.page_buf = Some(page_buf);
        self.message_buf = Some(message_buf);
        self.table_buf = Some(table_buf);
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
        let buf = self.page_buf.as_ref().ok_or("verify before setup")?;
        let mut pages = vec![0u32; PAGES];
        queue
            .enqueue_read_buffer(buf, &mut pages)
            .map_err(|e| e.to_string())?;
        let got = self.combine_pages(&pages);
        validation::check_equal("crc32", &got, &self.expected_crc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitwise_known_vectors() {
        // The canonical CRC-32 check value.
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b""), 0x0000_0000);
        assert_eq!(crc32_bitwise(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn table_matches_bitwise() {
        let table = make_table();
        for msg in [&b"hello world"[..], &[0u8; 100][..], &[0xFFu8; 33][..]] {
            assert_eq!(crc32_table(&table, msg), crc32_bitwise(msg));
        }
    }

    #[test]
    fn combine_splits_arbitrarily() {
        let table = make_table();
        let msg: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = crc32_table(&table, &msg);
        for split in [1, 13, 500, 999] {
            let a = crc32_table(&table, &msg[..split]);
            let b = crc32_table(&table, &msg[split..]);
            assert_eq!(
                crc32_combine(a, b, (msg.len() - split) as u64),
                whole,
                "split at {split}"
            );
        }
    }

    #[test]
    fn combine_with_empty_second_block() {
        assert_eq!(crc32_combine(0x1234, 0x0, 0), 0x1234);
    }

    #[test]
    fn page_bounds_cover_message_exactly() {
        for len in [1usize, 63, 64, 65, 2000, 4_194_304] {
            let mut covered = 0;
            let mut prev_end = 0;
            for p in 0..PAGES {
                let (s, e) = page_bounds(len, p);
                assert!(s <= e);
                assert_eq!(s, prev_end.min(len));
                covered += e - s;
                prev_end = e.max(prev_end);
            }
            assert_eq!(covered, len, "len {len}");
        }
    }

    fn run_crc(device: Device, len: usize) {
        let ctx = Context::new(device);
        let queue = CommandQueue::new(&ctx).with_profiling();
        let mut w = CrcWorkload::new(len, 7);
        w.setup(&ctx, &queue).unwrap();
        w.run_iteration(&queue).unwrap();
        w.verify(&queue).unwrap();
    }

    #[test]
    fn device_crc_matches_bitwise_native() {
        run_crc(Device::native(), 2000); // the paper's tiny Φ
    }

    #[test]
    fn device_crc_matches_on_simulated_cpu_and_gpu() {
        let sim = Platform::simulated();
        run_crc(sim.device_by_name("i7-6700K").unwrap(), 16_000);
        run_crc(sim.device_by_name("R9 290X").unwrap(), 2048);
    }

    #[test]
    fn device_crc_odd_length() {
        run_crc(Device::native(), 999); // not divisible by PAGES
    }

    #[test]
    fn kernel_paths_are_byte_identical_across_paper_sizes() {
        for len in ScaleTable::CRC_BYTES {
            let ctx = Context::new(Device::native());
            let run = |queue: CommandQueue| -> Vec<u32> {
                let mut w = CrcWorkload::new(len, 13);
                w.setup(&ctx, &queue).unwrap();
                w.run_iteration(&queue).unwrap();
                w.verify(&queue).unwrap();
                let mut pages = vec![0u32; PAGES];
                queue
                    .enqueue_read_buffer(w.page_buf.as_ref().unwrap(), &mut pages)
                    .unwrap();
                pages
            };
            assert_eq!(
                run(CommandQueue::per_item_reference(&ctx)),
                run(CommandQueue::new(&ctx)),
                "{len} bytes"
            );
        }
    }

    #[test]
    fn profile_reflects_combinational_logic() {
        let ctx = Context::new(Device::native());
        let queue = CommandQueue::new(&ctx);
        let mut w = CrcWorkload::new(4000, 1);
        w.setup(&ctx, &queue).unwrap();
        let p = w.kernel.as_ref().unwrap().profile();
        p.validate().unwrap();
        assert_eq!(p.flops, 0.0, "no floating point at all");
        assert!(p.int_ops > 0.0);
        assert!(p.serial_fraction > 0.5, "dominated by the byte chain");
        assert_eq!(p.work_items, PAGES as u64);
    }
}

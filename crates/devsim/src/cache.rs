//! Trace-driven cache and TLB simulation.
//!
//! §4.4 of the paper sizes every problem against the Skylake memory
//! hierarchy (tiny ⊂ 32 KiB L1, small ⊂ 256 KiB L2, medium ⊂ 8 MiB L3,
//! large ≥ 4×L3) and verifies the choice with PAPI cache-miss counters.
//! Having no PAPI here, we verify the same property with a simulator: a
//! classic set-associative, LRU, write-allocate cache hierarchy plus a
//! fully-associative TLB, driven by the address traces our kernels can emit.
//!
//! The simulator is also the source of the synthesized `PAPI_L1_DCM` /
//! `PAPI_L2_DCM` / `PAPI_L3_TCM` / `PAPI_TLB_DM` counters reported by the
//! harness.

use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Line size in bytes (power of two).
    pub line_size: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A level with the given capacity in KiB, 64-byte lines, 8-way — the
    /// common shape of the caches in Table 1.
    pub fn kib(capacity_kib: usize, ways: usize) -> Self {
        Self {
            capacity: capacity_kib * 1024,
            line_size: 64,
            ways,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        let lines = self.capacity / self.line_size;
        assert!(
            lines.is_multiple_of(self.ways),
            "capacity/line_size must be divisible by ways"
        );
        (lines / self.ways).max(1)
    }
}

/// One set-associative LRU cache level.
///
/// Tags live in one flat array of `ways` slots per set, recency-ordered
/// within each set's occupied prefix (index 0 = most recent). An LRU
/// update is then an in-place `rotate_right` over at most `ways` slots —
/// no `Vec::remove`/`insert` element shuffling, no per-set allocations,
/// and one contiguous allocation for the whole cache. The hit/miss
/// sequence is exactly that of the textbook recency-list formulation
/// (asserted against a reference model in the tests).
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    /// `sets() * ways` tag slots; set `s` owns `tags[s*ways .. (s+1)*ways]`.
    tags: Vec<u64>,
    /// Occupied ways per set (slots beyond this hold stale garbage).
    lens: Vec<u32>,
    hits: u64,
    misses: u64,
    num_sets: u64,
    line_shift: u32,
}

impl CacheSim {
    /// Build an empty cache with the given geometry. Non-power-of-two set
    /// counts are allowed (the GTX 1080's 48 KiB L1 yields 96 sets) — the
    /// index is taken modulo the set count.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.line_size.is_power_of_two(), "line size power of two");
        let sets = config.sets();
        Self {
            config,
            tags: vec![0; sets * config.ways],
            lens: vec![0; sets],
            hits: 0,
            misses: 0,
            num_sets: sets as u64,
            line_shift: config.line_size.trailing_zeros(),
        }
    }

    /// Access one byte address. Returns `true` on hit. On miss the line is
    /// allocated (write-allocate for both reads and writes) with LRU
    /// replacement.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line % self.num_sets) as usize;
        let tag = line / self.num_sets;
        let ways = self.config.ways;
        let len = self.lens[set_idx] as usize;
        let base = set_idx * ways;
        let set = &mut self.tags[base..base + len];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Hit: rotate the `0..=pos` prefix right by one — the found
            // tag wraps to the MRU slot, everything younger ages by one.
            set[..=pos].rotate_right(1);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            if len == ways {
                // Full: rotate the whole set (the LRU victim's slot wraps
                // to the front) and overwrite it with the new tag.
                set.rotate_right(1);
                set[0] = tag;
            } else {
                // Not full: grow the occupied prefix by one slot, rotate
                // the stale slot to the front, overwrite it.
                let set = &mut self.tags[base..base + len + 1];
                set.rotate_right(1);
                set[0] = tag;
                self.lens[set_idx] = (len + 1) as u32;
            }
            false
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio = misses / accesses (0 when nothing accessed).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Number of resident lines (for capacity invariants).
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Geometry of this level.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Forget all contents and counts. Stale tags stay in `tags` but are
    /// unreachable once every occupancy count is zero.
    pub fn reset(&mut self) {
        self.lens.fill(0);
        self.hits = 0;
        self.misses = 0;
    }
}

/// Geometry of a TLB: entry count × page size, fully associative LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Page size in bytes.
    pub page_size: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        // Skylake's data STLB: 1536 entries, 4 KiB pages.
        Self {
            entries: 1536,
            page_size: 4096,
        }
    }
}

/// Fully-associative LRU TLB simulator.
#[derive(Debug, Clone)]
pub struct TlbSim {
    config: TlbConfig,
    pages: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl TlbSim {
    /// Empty TLB.
    pub fn new(config: TlbConfig) -> Self {
        assert!(config.page_size.is_power_of_two());
        assert!(config.entries > 0);
        Self {
            config,
            pages: Vec::with_capacity(config.entries),
            hits: 0,
            misses: 0,
        }
    }

    /// Translate one address; returns `true` on TLB hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let page = addr / self.config.page_size as u64;
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(pos);
            self.pages.insert(0, page);
            self.hits += 1;
            true
        } else {
            if self.pages.len() == self.config.entries {
                self.pages.pop();
            }
            self.pages.insert(0, page);
            self.misses += 1;
            false
        }
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

/// Per-level hit/miss totals from a hierarchy run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyCounts {
    /// Total accesses issued to L1.
    pub accesses: u64,
    /// L1 misses (`PAPI_L1_DCM`).
    pub l1_misses: u64,
    /// L2 misses (`PAPI_L2_DCM`).
    pub l2_misses: u64,
    /// L3 accesses (`PAPI_L3_TCA`) — equals L2 misses when an L3 exists.
    pub l3_accesses: u64,
    /// L3 misses (`PAPI_L3_TCM`); for devices without L3 this is the L2 miss
    /// count (i.e. traffic to DRAM).
    pub l3_misses: u64,
    /// TLB misses (`PAPI_TLB_DM`).
    pub tlb_misses: u64,
}

/// An inclusive multi-level hierarchy: L1 → L2 → (optional L3), plus a TLB
/// consulted on every access.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: CacheSim,
    l2: CacheSim,
    l3: Option<CacheSim>,
    tlb: TlbSim,
}

impl CacheHierarchy {
    /// Build from per-level configs. `l3` is `None` for GPUs/KNL.
    pub fn new(l1: CacheConfig, l2: CacheConfig, l3: Option<CacheConfig>, tlb: TlbConfig) -> Self {
        Self {
            l1: CacheSim::new(l1),
            l2: CacheSim::new(l2),
            l3: l3.map(CacheSim::new),
            tlb: TlbSim::new(tlb),
        }
    }

    /// The hierarchy of a catalog device: L1d/L2/L3 sizes from Table 1 with
    /// conventional associativities (8/8/16-way, 64 B lines).
    pub fn for_device(spec: &crate::catalog::DeviceSpec) -> Self {
        let l1 = CacheConfig::kib(spec.l1_kib as usize, 8);
        let l2 = CacheConfig::kib(spec.l2_kib as usize, 8);
        let l3 = (spec.l3_kib > 0).then(|| CacheConfig::kib(spec.l3_kib as usize, 16));
        Self::new(l1, l2, l3, TlbConfig::default())
    }

    /// Run one access through the hierarchy, updating all levels.
    pub fn access(&mut self, addr: u64) {
        self.tlb.access(addr);
        if self.l1.access(addr) {
            return;
        }
        if self.l2.access(addr) {
            return;
        }
        if let Some(l3) = &mut self.l3 {
            l3.access(addr);
        }
    }

    /// Run a whole trace.
    pub fn run_trace(&mut self, trace: impl IntoIterator<Item = u64>) {
        for a in trace {
            self.access(a);
        }
    }

    /// Current counts in PAPI vocabulary.
    pub fn counts(&self) -> HierarchyCounts {
        let accesses = self.l1.hits() + self.l1.misses();
        let l1_misses = self.l1.misses();
        let l2_misses = self.l2.misses();
        let (l3_accesses, l3_misses) = match &self.l3 {
            Some(l3) => (l3.hits() + l3.misses(), l3.misses()),
            None => (0, l2_misses),
        };
        HierarchyCounts {
            accesses,
            l1_misses,
            l2_misses,
            l3_accesses,
            l3_misses,
            tlb_misses: self.tlb.misses(),
        }
    }

    /// Forget all contents and counts.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        if let Some(l3) = &mut self.l3 {
            l3.reset();
        }
        self.tlb = TlbSim::new(TlbConfig::default());
    }
}

/// Generate a sequential read trace over `bytes` bytes starting at `base`,
/// striding by `stride` — the access-pattern building block used by sizing
/// verification tests.
pub fn streaming_trace(base: u64, bytes: usize, stride: usize) -> impl Iterator<Item = u64> {
    assert!(stride > 0);
    (0..bytes / stride).map(move |i| base + (i * stride) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> CacheSim {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        CacheSim::new(CacheConfig {
            capacity: 512,
            line_size: 64,
            ways: 2,
        })
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::kib(32, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(tiny_cache().config().sets(), 4);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny_cache();
        assert!(!c.access(0x1000)); // cold miss
        assert!(c.access(0x1000)); // hit
        assert!(c.access(0x1020)); // same 64 B line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny_cache();
        // Three lines mapping to the same set (stride = sets × line = 256 B).
        let (a, b, d) = (0x0, 0x100, 0x200);
        c.access(a); // miss, set = {a}
        c.access(b); // miss, set = {b, a}
        c.access(a); // hit, set = {a, b}
        c.access(d); // miss, evicts LRU = b
        assert!(c.access(a), "a must survive");
        assert!(!c.access(b), "b was the LRU victim");
    }

    /// The pre-rotate implementation, kept verbatim as a reference model:
    /// per-set `Vec` recency lists updated with `remove` + `insert(0, _)`.
    struct ReferenceLru {
        sets: Vec<Vec<u64>>,
        ways: usize,
        num_sets: u64,
        line_shift: u32,
    }

    impl ReferenceLru {
        fn new(config: CacheConfig) -> Self {
            Self {
                sets: vec![Vec::new(); config.sets()],
                ways: config.ways,
                num_sets: config.sets() as u64,
                line_shift: config.line_size.trailing_zeros(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr >> self.line_shift;
            let set = &mut self.sets[(line % self.num_sets) as usize];
            let tag = line / self.num_sets;
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                set.remove(pos);
                set.insert(0, tag);
                true
            } else {
                if set.len() == self.ways {
                    set.pop();
                }
                set.insert(0, tag);
                false
            }
        }
    }

    #[test]
    fn rotate_lru_matches_remove_insert_reference() {
        // Mixed trace over several geometries: every access must produce the
        // same hit/miss outcome as the old remove+insert(0) formulation.
        for cfg in [
            CacheConfig {
                capacity: 512,
                line_size: 64,
                ways: 2,
            },
            CacheConfig {
                capacity: 2048,
                line_size: 32,
                ways: 4,
            },
            CacheConfig::kib(48, 6), // 96 sets, non-power-of-two
        ] {
            let mut fast = CacheSim::new(cfg);
            let mut reference = ReferenceLru::new(cfg);
            // Deterministic LCG mixing streaming, strided, and re-touch
            // phases so hits, cold misses, and capacity misses all occur.
            let mut state = 0x2545_f491_4f6c_dd1du64;
            let mut addrs = Vec::new();
            for i in 0..4_000u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = match i % 4 {
                    0 => i * 64,                                               // streaming
                    1 => (i % 37) * cfg.line_size as u64,                      // small working set
                    2 => state % (16 * 1024), // random within 16 KiB
                    _ => *addrs.get((state % (i + 1)) as usize).unwrap_or(&0), // re-touch
                };
                addrs.push(addr);
                assert_eq!(
                    fast.access(addr),
                    reference.access(addr),
                    "divergence at access #{i} (addr {addr:#x}, geometry {cfg:?})"
                );
            }
            assert_eq!(
                fast.resident_lines(),
                reference.sets.iter().map(Vec::len).sum::<usize>()
            );
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny_cache();
        for i in 0..10_000u64 {
            c.access(i * 64);
        }
        assert!(c.resident_lines() <= 512 / 64);
    }

    #[test]
    fn working_set_fitting_in_cache_hits_on_second_pass() {
        // This is the §4.4 property: a working set within capacity has ~zero
        // misses after warm-up.
        let cfg = CacheConfig::kib(32, 8);
        let mut c = CacheSim::new(cfg);
        let bytes = 16 * 1024; // half of L1
        for a in streaming_trace(0, bytes, 64) {
            c.access(a);
        }
        let cold_misses = c.misses();
        for a in streaming_trace(0, bytes, 64) {
            c.access(a);
        }
        assert_eq!(c.misses(), cold_misses, "second pass must be all hits");
    }

    #[test]
    fn working_set_exceeding_cache_thrashes() {
        // 64 KiB streamed through a 32 KiB LRU cache misses on every line of
        // every pass (the classic LRU streaming pathology).
        let cfg = CacheConfig::kib(32, 8);
        let mut c = CacheSim::new(cfg);
        let bytes = 64 * 1024;
        for _ in 0..3 {
            for a in streaming_trace(0, bytes, 64) {
                c.access(a);
            }
        }
        assert!(
            c.miss_ratio() > 0.99,
            "streaming over-capacity must thrash, ratio = {}",
            c.miss_ratio()
        );
    }

    #[test]
    fn hierarchy_l1_miss_l2_hit() {
        // Working set bigger than L1 but inside L2: L2 absorbs the misses.
        let h1 = CacheConfig::kib(32, 8);
        let h2 = CacheConfig::kib(256, 8);
        let mut h = CacheHierarchy::new(h1, h2, None, TlbConfig::default());
        let bytes = 128 * 1024;
        // two passes: second pass misses L1 (thrash) but hits L2
        for _ in 0..2 {
            h.run_trace(streaming_trace(0, bytes, 64));
        }
        let c = h.counts();
        assert!(c.l1_misses > 0);
        // All second-pass L1 misses must hit in L2: L2 misses stay at the
        // cold-fill count of bytes/64 lines.
        assert_eq!(c.l2_misses, (bytes / 64) as u64);
    }

    #[test]
    fn hierarchy_counts_without_l3() {
        let h1 = CacheConfig::kib(16, 8); // AMD-style small L1
        let h2 = CacheConfig::kib(1024, 8);
        let mut h = CacheHierarchy::new(h1, h2, None, TlbConfig::default());
        h.run_trace(streaming_trace(0, 4096, 64));
        let c = h.counts();
        assert_eq!(c.l3_accesses, 0);
        assert_eq!(c.l3_misses, c.l2_misses);
    }

    #[test]
    fn device_hierarchy_matches_spec() {
        let skylake = crate::catalog::DeviceId::by_name("i7-6700K")
            .unwrap()
            .spec();
        let h = CacheHierarchy::for_device(skylake);
        assert_eq!(h.l1.config().capacity, 32 * 1024);
        assert_eq!(h.l2.config().capacity, 256 * 1024);
        assert!(h.l3.is_some());
        let gtx = crate::catalog::DeviceId::by_name("GTX 1080")
            .unwrap()
            .spec();
        assert!(CacheHierarchy::for_device(gtx).l3.is_none());
    }

    #[test]
    fn tlb_tracks_pages() {
        let mut t = TlbSim::new(TlbConfig {
            entries: 2,
            page_size: 4096,
        });
        assert!(!t.access(0)); // page 0 miss
        assert!(t.access(64)); // same page hit
        t.access(4096); // page 1 miss
        t.access(8192); // page 2 miss, evicts page 0 (LRU)
        assert!(!t.access(0), "page 0 must have been evicted");
        assert_eq!(t.misses(), 4);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = tiny_cache();
        c.access(0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0);
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0), "after reset everything is cold");
    }
}

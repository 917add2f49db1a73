//! One-pass reuse-distance (stack-distance) cache engine.
//!
//! The exact simulator in [`crate::cache`] replays every synthesized
//! address through a set-associative LRU model once per cache level, per
//! device — O(devices × levels × trace). A classic Mattson stack-distance
//! analysis gets the same information from *one* pass over the trace: for
//! every access, the number of distinct lines touched since the previous
//! access to the same line (its *reuse distance* `d`, 1-based, counting
//! the line itself). A fully-associative LRU cache of `C` lines hits
//! exactly when `d ≤ C`, so a single compact histogram of reuse distances
//! answers hit/miss counts for **any** capacity — all fifteen catalog
//! devices from one analysis.
//!
//! Set-associative levels need a correction: a cache of `S` sets × `A`
//! ways hits when at most `A − 1` of the `d − 1` intervening lines map to
//! the victim's set. Hill & Smith model the intervening lines as landing
//! in sets independently, giving the binomial mapping
//! `P(hit | d) = P(Binom(d − 1, 1/S) ≤ A − 1)`. That assumption breaks
//! for our traces precisely where the paper's §4.4 sizing lives: a
//! problem sized *exactly* to a cache sweeps a contiguous region whose
//! lines spread **evenly** over the sets (`⌊L/S⌋` or `⌈L/S⌉` per set,
//! never a binomial tail), so a working set equal to capacity hits 100 %
//! where the binomial predicts ≈ 47 % (and would misclassify fft medium,
//! which is exactly the 8 MiB L3). We therefore generalize the mapping to
//! the finite-region hypergeometric: the `d − 1` intervening distinct
//! lines are a uniform subset of the `L − 1` other lines of an `L`-line
//! region, so the count landing in the victim's set (universe load `u`)
//! is `Hypergeom(L − 1, u − 1, d − 1)`. As `L → ∞` this converges to the
//! Hill–Smith binomial; at `d = L` it degenerates to the exact balanced
//! result. Fully-associative levels (`S = 1`, and the TLB) skip the
//! correction entirely and use the exact `d ≤ C` rule.
//!
//! Known approximations, validated against [`crate::cache::CacheSim`] as
//! oracle in `tests/stackdist.rs` (≤ 1 % absolute per-level hit-ratio
//! error on the trace corpus):
//!
//! * outer levels are analyzed against the *full* access stream rather
//!   than the inner level's miss stream (exact for working sets that
//!   thrash the inner level — every access reaches the outer level — and
//!   for working sets the inner level absorbs — the outer level sees no
//!   warm traffic either way);
//! * the intervening-line subset is modeled as uniform over the region,
//!   which is exact for the deterministic sweep traces and a close fit
//!   for the LCG-scrambled ones.
//!
//! On top of the analysis sit a [`HistogramCache`] (memoization keyed by
//! value: each distinct `(pattern, working set, trace cap)` is analysed
//! once and reused across every device, and each `(engine, profile,
//! shape)` answer is derived once and looked up afterwards) and the
//! [`CacheEngine`] each caller passes: stack-distance on every product
//! path, the exact simulator as the oracle tests pass explicitly (and as
//! the arm stack-distance delegates to below 1 MiB).

use crate::cache::{CacheConfig, CacheHierarchy, HierarchyCounts, TlbConfig};
use crate::catalog::DeviceSpec;
use crate::profile::AccessPattern;
use eod_telemetry::metrics::{Counter, Gauge, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Default trace-length cap (bytes of footprint actually swept): the same
/// 64 MiB the §4.4 verification path has always used, preserving every
/// capacity relationship in the Table 1 catalog (largest L3 is 45 MiB).
pub const DEFAULT_TRACE_CAP: u64 = 64 << 20;

/// Cache-line size assumed throughout (bytes).
const LINE: u64 = 64;

/// Footprint (in lines) below which the `StackDistance` engine delegates
/// to the memoized exact simulator. Two reasons, both principled: a
/// two-pass simulation of < 32 K accesses costs about as much as the
/// analytic derivation itself, so there is nothing to win; and at that
/// scale the single-realization variance of the concrete trace (±2σ ≈
/// 2·√(n·p·(1−p)) counts) exceeds the 1 % tolerance the analytic
/// expectation is held to, so the simulator is also the more faithful
/// answer. 16 384 lines = 1 MiB of footprint.
pub const ANALYTIC_MIN_LINES: u64 = 16 << 10;

// ---------------------------------------------------------------------------
// Lazy trace generation
// ---------------------------------------------------------------------------

/// Which generator shape a [`TracePass`] uses.
#[derive(Debug, Clone)]
enum PassKind {
    /// Unit-stride sweep: `0, 64, 128, …`.
    Streaming,
    /// Column-walk with a 4 KiB row stride: visits line `col + row·step`
    /// for each column, advancing the column after each wrap, touching
    /// every line exactly once per pass.
    Strided {
        /// Row stride in lines (4 KiB / 64 B, clamped to the footprint).
        step: u64,
        /// Current column (base offset in lines).
        col: u64,
        /// Next line index to emit.
        idx: u64,
    },
    /// Deterministic hash scramble over the footprint's lines (with
    /// repetition — the classic gather shape). A splitmix64 finalizer
    /// over the access index, not an LCG: an LCG's low bits cycle with
    /// tiny periods, which makes `(state % lines) % sets` visit cache
    /// sets in a fixed round-robin instead of uniformly.
    Random,
}

/// One lazy pass of a synthetic address trace over a working set — the
/// streaming replacement for the old materialized `Vec<u64>` passes.
///
/// Every generator touches addresses inside `[0, lines·64)`; the
/// `Streaming` and `Strided` shapes touch each line exactly once per
/// pass, `Random`/`Gather` draw `lines` samples with repetition. The
/// `Random` sequence is bit-identical to the pre-engine materialized
/// trace so the exact oracle's results are unchanged.
#[derive(Debug, Clone)]
pub struct TracePass {
    kind: PassKind,
    lines: u64,
    emitted: u64,
}

impl TracePass {
    /// A one-pass trace for `pattern` over `min(working_set, cap_bytes)`
    /// bytes (at least one line).
    pub fn new(pattern: AccessPattern, working_set: u64, cap_bytes: u64) -> Self {
        let lines = effective_lines(working_set, cap_bytes);
        let kind = match pattern {
            AccessPattern::Streaming => PassKind::Streaming,
            AccessPattern::Strided => PassKind::Strided {
                step: (4096 / LINE).min(lines).max(1),
                col: 0,
                idx: 0,
            },
            AccessPattern::Gather | AccessPattern::Random => PassKind::Random,
        };
        Self {
            kind,
            lines,
            emitted: 0,
        }
    }

    /// Footprint of the pass in 64 B lines (also its length in accesses).
    pub fn lines(&self) -> u64 {
        self.lines
    }
}

impl Iterator for TracePass {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.emitted == self.lines {
            return None;
        }
        self.emitted += 1;
        let addr = match &mut self.kind {
            PassKind::Streaming => (self.emitted - 1) * LINE,
            PassKind::Strided { step, col, idx } => {
                let line = *idx;
                *idx += *step;
                if *idx >= self.lines {
                    *col += 1;
                    *idx = *col;
                }
                line * LINE
            }
            PassKind::Random => (splitmix64(self.emitted - 1) % self.lines) * LINE,
        };
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.lines - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TracePass {}

/// Footprint in lines after applying the trace cap and the one-line floor.
fn effective_lines(working_set: u64, cap_bytes: u64) -> u64 {
    (working_set.min(cap_bytes).max(LINE) / LINE).max(1)
}

/// The splitmix64 output finalizer: a stateless, high-quality scramble of
/// an index — every output bit depends on every input bit.
fn splitmix64(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Stack-distance analysis
// ---------------------------------------------------------------------------

/// Fenwick (binary-indexed) tree over trace time slots, counting one
/// marker at each unit's most recent access time.
struct Fenwick {
    tree: Vec<i32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of markers at positions `0..=i`.
    fn prefix(&self, i: usize) -> i64 {
        let mut i = i + 1;
        let mut s = 0i64;
        while i > 0 {
            s += i64::from(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Streaming Mattson analyzer at one granularity: feed addresses in trace
/// order, get each access's reuse distance (`None` for a first touch).
///
/// Distances are 1-based distinct-unit counts including the unit itself,
/// so a fully-associative LRU of `C` units hits exactly when `d ≤ C` —
/// the invariant the property tests pin against the recency-list
/// reference.
pub struct ReuseAnalyzer {
    shift: u32,
    /// `unit → last access time`, dense (units are region-bounded).
    last: Vec<u32>,
    fen: Fenwick,
    t: usize,
    hist: HashMap<u64, u64>,
    cold: u64,
    region_units: u64,
}

/// Sentinel for "never accessed" in the dense last-access table.
const NEVER: u32 = u32::MAX;

impl ReuseAnalyzer {
    /// Analyzer for addresses in `[0, region_units << shift)` over a trace
    /// of at most `max_len` accesses (the Fenwick tree is preallocated).
    pub fn new(shift: u32, region_units: u64, max_len: usize) -> Self {
        Self {
            shift,
            last: vec![NEVER; region_units as usize],
            fen: Fenwick::new(max_len),
            t: 0,
            hist: HashMap::new(),
            cold: 0,
            region_units,
        }
    }

    /// Record one access; returns its reuse distance, `None` when cold.
    pub fn record(&mut self, addr: u64) -> Option<u64> {
        let unit = (addr >> self.shift) as usize;
        assert!(
            unit < self.last.len(),
            "address {addr:#x} outside the analyzer's region"
        );
        let d = match self.last[unit] {
            NEVER => {
                self.cold += 1;
                None
            }
            prev => {
                let prev = prev as usize;
                // Units touched strictly between the two accesses carry a
                // marker at their most recent access time ∈ (prev, t).
                let between = self.fen.prefix(self.t - 1) - self.fen.prefix(prev);
                let d = between as u64 + 1;
                *self.hist.entry(d).or_default() += 1;
                self.fen.add(prev, -1);
                Some(d)
            }
        };
        self.fen.add(self.t, 1);
        self.last[unit] = self.t as u32;
        self.t += 1;
        d
    }

    /// Distinct units touched so far.
    pub fn footprint(&self) -> u64 {
        self.cold
    }

    /// Snapshot of the (distance → count) map and cold count so far.
    fn checkpoint(&self) -> (HashMap<u64, u64>, u64) {
        (self.hist.clone(), self.cold)
    }

    /// Finalize a checkpoint itself into a histogram (everything recorded
    /// *up to* that point).
    fn histogram_at(&self, at: &(HashMap<u64, u64>, u64)) -> ReuseHistogram {
        let mut entries: Vec<(u64, u64)> = at.0.iter().map(|(&d, &c)| (d, c)).collect();
        entries.sort_unstable();
        ReuseHistogram::from_entries(entries, at.1, self.region_units)
    }

    /// Finalize the accesses recorded *since* `from` into a histogram.
    fn histogram_since(&self, from: &(HashMap<u64, u64>, u64)) -> ReuseHistogram {
        let mut entries: Vec<(u64, u64)> = self
            .hist
            .iter()
            .map(|(&d, &c)| (d, c - from.0.get(&d).copied().unwrap_or(0)))
            .filter(|&(_, c)| c > 0)
            .collect();
        entries.sort_unstable();
        ReuseHistogram::from_entries(entries, self.cold - from.1, self.region_units)
    }
}

/// Compact reuse-distance histogram for one trace pass at one granularity.
///
/// Holds the exact sparse `(distance, count)` entries. The trace cap
/// bounds distinct distances (≤ region lines, itself ≤ cap/64), so the
/// set-associativity correction is evaluated per entry exactly; the
/// `hit_probability` early-outs skip the hypergeometric work outside the
/// transition band `ways < d ≤ 4·sets·ways`.
#[derive(Debug, Clone)]
pub struct ReuseHistogram {
    /// Sorted `(distance, count)` for finite distances.
    entries: Vec<(u64, u64)>,
    /// Cumulative counts aligned with `entries`.
    cum: Vec<u64>,
    /// First-touch (infinite-distance) accesses.
    cold: u64,
    /// Total accesses in the pass (finite + cold).
    total: u64,
    /// Size of the contiguous line region the trace draws from, in units.
    region: u64,
}

impl ReuseHistogram {
    fn from_entries(entries: Vec<(u64, u64)>, cold: u64, region: u64) -> Self {
        let mut cum = Vec::with_capacity(entries.len());
        let mut acc = 0u64;
        for &(_, c) in &entries {
            acc += c;
            cum.push(acc);
        }
        Self {
            entries,
            cum,
            cold,
            total: acc + cold,
            region,
        }
    }

    /// Exact fully-associative LRU hits for a capacity of `units` lines
    /// (or TLB entries): the number of accesses with `d ≤ units`.
    pub fn hits_within(&self, units: u64) -> u64 {
        match self.entries.partition_point(|&(d, _)| d <= units) {
            0 => 0,
            i => self.cum[i - 1],
        }
    }

    /// Expected hits in a set-associative level: exact (`d ≤ C`) when the
    /// level is fully associative, otherwise the hypergeometric
    /// Hill–Smith mapping summed over the sparse entries.
    pub fn expected_hits(&self, config: &CacheConfig) -> f64 {
        let sets = config.sets() as u64;
        let capacity_units = (config.capacity / config.line_size) as u64;
        if sets == 1 {
            return self.hits_within(capacity_units) as f64;
        }
        let ways = config.ways as u64;
        self.entries
            .iter()
            .map(|&(d, c)| c as f64 * hit_probability(d, self.region, sets, ways))
            .sum()
    }

    /// Total accesses in the pass (finite + cold).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// First-touch (compulsory-miss) accesses.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Distinct `(distance, count)` entries (sorted by distance).
    pub fn entries(&self) -> &[(u64, u64)] {
        &self.entries
    }

    /// Heap bytes held by the entries and their cumulative counts.
    fn bytes(&self) -> usize {
        self.entries.len() * size_of::<(u64, u64)>() + self.cum.len() * size_of::<u64>()
    }
}

/// `ln Γ(x)` via the Lanczos approximation (g = 7, 9 terms); |err| < 1e-10
/// over the positive reals, ample for probability mass ratios.
#[allow(clippy::excessive_precision)] // published Lanczos constants, verbatim
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 8] = [
        676.5203681218851,
        -1259.1392167224028,
        771.32342877765313,
        -176.61502916214059,
        12.507343278686905,
        -0.13857109526572012,
        9.9843695780195716e-6,
        1.5056327351493116e-7,
    ];
    let x = x - 1.0;
    let mut a = 0.99999999999980993;
    for (i, &c) in COEF.iter().enumerate() {
        a += c / (x + (i as f64) + 1.0);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// `ln C(n, k)` for real-valued (integer-ish) arguments.
fn ln_choose(n: f64, k: f64) -> f64 {
    ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0)
}

/// `P(X ≤ m)` for `X ~ Hypergeom(N, K, n)` (population `N`, `K` marked,
/// `n` drawn). Computed from the smallest reachable value via the PMF
/// ratio recurrence; `m` is small (≤ ways − 1) so the sum is short.
fn hyper_cdf(n_pop: u64, k_marked: u64, n_draw: u64, m: u64) -> f64 {
    let (nn, kk, n) = (n_pop as f64, k_marked as f64, n_draw as f64);
    if m >= k_marked.min(n_draw) {
        return 1.0;
    }
    let k_min = n_draw.saturating_sub(n_pop - k_marked);
    if k_min > m {
        return 0.0;
    }
    let k0 = k_min as f64;
    let mut p = (ln_choose(kk, k0) + ln_choose(nn - kk, n - k0) - ln_choose(nn, n)).exp();
    let mut sum = p;
    let mut k = k0;
    while (k as u64) < m {
        // pmf(k+1)/pmf(k) = (K−k)(n−k) / ((k+1)(N−K−n+k+1))
        p *= (kk - k) * (n - k) / ((k + 1.0) * (nn - kk - n + k + 1.0));
        sum += p;
        k += 1.0;
    }
    sum.clamp(0.0, 1.0)
}

/// Probability that an access with reuse distance `d` (over a contiguous
/// region of `region` lines) hits in a cache of `sets × ways` lines — the
/// finite-region hypergeometric generalization of the Hill–Smith binomial
/// mapping (see the module docs for the derivation and limits).
pub fn hit_probability(d: u64, region: u64, sets: u64, ways: u64) -> f64 {
    if d <= ways {
        return 1.0; // fits in any single set
    }
    let region = region.max(d);
    let u_lo = region / sets;
    let rem = region % sets; // sets carrying ⌈region/S⌉ lines
    let u_max = if rem == 0 { u_lo } else { u_lo + 1 };
    if u_max <= ways {
        return 1.0; // no set's population can ever exceed its ways
    }
    if d > 4 * sets * ways {
        return 0.0; // expected conflict load ≥ 4× ways: tail < 1e-4
    }
    // Weight each universe-load class by the fraction of lines living in
    // such sets; the accessed line's own set has u − 1 other lines, and
    // the d − 1 intervening distinct lines are a uniform subset of the
    // region − 1 others.
    let mut p = 0.0;
    if u_lo > 0 {
        let w_lo = ((sets - rem) * u_lo) as f64 / region as f64;
        if w_lo > 0.0 {
            p += w_lo * hyper_cdf(region - 1, u_lo - 1, d - 1, ways - 1);
        }
    }
    if rem > 0 {
        let w_hi = (rem * (u_lo + 1)) as f64 / region as f64;
        p += w_hi * hyper_cdf(region - 1, u_lo, d - 1, ways - 1);
    }
    p.clamp(0.0, 1.0)
}

// ---------------------------------------------------------------------------
// Two-pass trace analysis
// ---------------------------------------------------------------------------

/// Reuse histograms of the standard two-pass (cold + warm) verification
/// trace at line and page granularity — everything needed to derive
/// per-level hit/miss counts for any device hierarchy.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    /// Accesses per pass.
    pub pass_len: u64,
    /// Line-granular histogram of the first (cold) pass.
    pub line_cold: ReuseHistogram,
    /// Line-granular histogram of the second (steady-state) pass.
    pub line_warm: ReuseHistogram,
    /// Page-granular (4 KiB) histogram of the first pass.
    pub page_cold: ReuseHistogram,
    /// Page-granular histogram of the second pass.
    pub page_warm: ReuseHistogram,
}

impl TraceAnalysis {
    /// Heap bytes held by the four histograms — what the
    /// [`HistogramCache`] budget counts.
    pub(crate) fn histogram_bytes(&self) -> usize {
        [
            &self.line_cold,
            &self.line_warm,
            &self.page_cold,
            &self.page_warm,
        ]
        .iter()
        .map(|h| h.bytes())
        .sum()
    }
}

/// Stream the two-pass trace for `(pattern, working_set)` once through
/// line- and page-granularity analyzers. No `Vec<u64>` is materialized.
pub fn analyze_trace(pattern: AccessPattern, working_set: u64, cap_bytes: u64) -> TraceAnalysis {
    let lines = effective_lines(working_set, cap_bytes);
    let pages = (((lines - 1) * LINE) >> 12) + 1;
    let max_len = (2 * lines) as usize;
    let mut line_an = ReuseAnalyzer::new(6, lines, max_len);
    let mut page_an = ReuseAnalyzer::new(12, pages, max_len);
    for addr in TracePass::new(pattern, working_set, cap_bytes) {
        line_an.record(addr);
        page_an.record(addr);
    }
    let line_mark = line_an.checkpoint();
    let page_mark = page_an.checkpoint();
    for addr in TracePass::new(pattern, working_set, cap_bytes) {
        line_an.record(addr);
        page_an.record(addr);
    }
    TraceAnalysis {
        pass_len: lines,
        line_cold: line_an.histogram_at(&line_mark),
        line_warm: line_an.histogram_since(&line_mark),
        page_cold: page_an.histogram_at(&page_mark),
        page_warm: page_an.histogram_since(&page_mark),
    }
}

// ---------------------------------------------------------------------------
// Hierarchy shapes and per-level derivation
// ---------------------------------------------------------------------------

/// The geometry of a device's cache hierarchy — the static shape behind a
/// [`CacheHierarchy`], usable both to build the exact simulator and to
/// evaluate a [`TraceAnalysis`] analytically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HierarchyShape {
    /// L1 data cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L3 geometry (`None` for GPUs/KNL).
    pub l3: Option<CacheConfig>,
    /// TLB geometry (fully associative).
    pub tlb: TlbConfig,
}

impl HierarchyShape {
    /// The shape of a catalog device: L1d/L2/L3 sizes from Table 1 with
    /// conventional associativities (8/8/16-way, 64 B lines).
    pub fn for_spec(spec: &DeviceSpec) -> Self {
        Self {
            l1: CacheConfig::kib(spec.l1_kib as usize, 8),
            l2: CacheConfig::kib(spec.l2_kib as usize, 8),
            l3: (spec.l3_kib > 0).then(|| CacheConfig::kib(spec.l3_kib as usize, 16)),
            tlb: TlbConfig::default(),
        }
    }

    /// Build the exact simulator for this shape.
    pub fn build(&self) -> CacheHierarchy {
        CacheHierarchy::new(self.l1, self.l2, self.l3, self.tlb)
    }
}

/// Cumulative hierarchy counts snapshotted after each of the two passes —
/// the exact shape `cachesim::verify_group` has always differenced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TwoPassCounts {
    /// Counts after the first (warming) pass.
    pub cold: HierarchyCounts,
    /// Counts after the second (steady-state) pass.
    pub total: HierarchyCounts,
}

impl TwoPassCounts {
    /// Steady-state (second-pass) counts: `total − cold` per field.
    pub fn warm(&self) -> HierarchyCounts {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        HierarchyCounts {
            accesses: d(self.total.accesses, self.cold.accesses),
            l1_misses: d(self.total.l1_misses, self.cold.l1_misses),
            l2_misses: d(self.total.l2_misses, self.cold.l2_misses),
            l3_accesses: d(self.total.l3_accesses, self.cold.l3_accesses),
            l3_misses: d(self.total.l3_misses, self.cold.l3_misses),
            tlb_misses: d(self.total.tlb_misses, self.cold.tlb_misses),
        }
    }
}

/// Expected hierarchy counts of one pass, derived from its histograms.
fn derive_pass(
    line: &ReuseHistogram,
    page: &ReuseHistogram,
    shape: &HierarchyShape,
) -> HierarchyCounts {
    let n = line.total() as f64;
    let l1m = (n - line.expected_hits(&shape.l1)).max(0.0);
    // Monotonicity clamps keep the inclusive-hierarchy invariant
    // (misses(outer) ≤ misses(inner)) under the correction's rounding.
    let l2m = (n - line.expected_hits(&shape.l2)).max(0.0).min(l1m);
    let (l3a, l3m) = match &shape.l3 {
        Some(c3) => (l2m, (n - line.expected_hits(c3)).max(0.0).min(l2m)),
        None => (0.0, l2m),
    };
    let tlb = page.total() - page.hits_within(shape.tlb.entries as u64);
    HierarchyCounts {
        accesses: line.total(),
        l1_misses: l1m.round() as u64,
        l2_misses: l2m.round() as u64,
        l3_accesses: l3a.round() as u64,
        l3_misses: l3m.round() as u64,
        tlb_misses: tlb,
    }
}

#[cfg(test)]
thread_local! {
    /// `derive_counts` evaluations made by the current thread.
    static DERIVATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `derive_counts` evaluations the calling thread has made — the cost the
/// counts memo exists to remove, counted rather than timed.
#[cfg(test)]
pub(crate) fn derivations() -> u64 {
    DERIVATIONS.with(|n| n.get())
}

/// Derive both passes' cumulative counts from an analysis.
pub fn derive_counts(analysis: &TraceAnalysis, shape: &HierarchyShape) -> TwoPassCounts {
    #[cfg(test)]
    DERIVATIONS.with(|n| n.set(n.get() + 1));
    let cold = derive_pass(&analysis.line_cold, &analysis.page_cold, shape);
    let warm = derive_pass(&analysis.line_warm, &analysis.page_warm, shape);
    let add = |a: u64, b: u64| a + b;
    TwoPassCounts {
        total: HierarchyCounts {
            accesses: add(cold.accesses, warm.accesses),
            l1_misses: add(cold.l1_misses, warm.l1_misses),
            l2_misses: add(cold.l2_misses, warm.l2_misses),
            l3_accesses: add(cold.l3_accesses, warm.l3_accesses),
            l3_misses: add(cold.l3_misses, warm.l3_misses),
            tlb_misses: add(cold.tlb_misses, warm.tlb_misses),
        },
        cold,
    }
}

// ---------------------------------------------------------------------------
// Engine choice
// ---------------------------------------------------------------------------

/// Which cache model produces hierarchy miss counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheEngine {
    /// Replay the trace through the set-associative LRU simulator —
    /// the oracle and ablation path.
    Exact,
    /// One-pass stack-distance analysis with the hypergeometric
    /// set-associativity correction (what counter synthesis uses).
    StackDistance,
}

impl CacheEngine {
    /// Name used in trace spans and reports.
    pub fn label(self) -> &'static str {
        match self {
            CacheEngine::Exact => "exact",
            CacheEngine::StackDistance => "stackdist",
        }
    }
}

// ---------------------------------------------------------------------------
// Memoization
// ---------------------------------------------------------------------------

/// Byte budget for the histogram entries of memoized analyses. Irregular
/// analyses are large (≈ 16.7 MiB for a ≥ 64 MiB `Random` working set), so
/// a long-lived server fed footprint sweeps must not keep one per grid
/// point forever; 256 MiB holds ≈ 15 worst-case analyses.
pub const HISTOGRAM_BUDGET_BYTES: usize = 256 << 20;

/// How [`two_pass_counts_traced`] produced its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountsSource {
    /// The exact simulator ran (or its memoized result was returned): no
    /// histogram was consulted.
    Simulated,
    /// The reuse-distance analysis was computed for this call.
    Computed,
    /// A memoized analysis, or counts derived from one earlier, answered.
    Memoized,
}

/// The pattern whose trace generator `pattern` uses. `Gather` and `Random`
/// draw the identical [`PassKind::Random`] trace, so they share memo
/// entries.
fn trace_pattern(pattern: AccessPattern) -> AccessPattern {
    match pattern {
        AccessPattern::Gather => AccessPattern::Random,
        p => p,
    }
}

/// `(trace pattern, working set, trace cap)` — identifies one trace.
type ProfileKey = (AccessPattern, u64, u64);
/// One trace evaluated by one engine against one hierarchy geometry.
type CountsKey = (CacheEngine, AccessPattern, u64, u64, HierarchyShape);
/// Inserted under the map lock, initialised outside it, so concurrent
/// first callers of one profile run one analysis between them.
type AnalysisCell = Arc<OnceLock<Arc<TraceAnalysis>>>;

#[derive(Default)]
struct Analyses {
    cells: HashMap<ProfileKey, AnalysisCell>,
    /// Keys in insertion order — the eviction order.
    order: VecDeque<ProfileKey>,
    /// Histogram bytes held by the initialised cells.
    bytes: usize,
}

/// Memo cache for trace analyses and for the two-pass counts either engine
/// derives from a trace, keyed by value — `analyses` by `(pattern, working
/// set, trace cap)`, `counts` by `(engine, pattern, working set, trace cap,
/// shape)` — so one histogram serves every device and a repeated
/// `(profile, shape)` query is a lookup. Keys are compared for equality: a
/// digest standing in for identity would hand a colliding workload another
/// workload's histogram.
///
/// `analyses` is bounded by a byte budget ([`HISTOGRAM_BUDGET_BYTES`]
/// unless built [`HistogramCache::with_budget`]), oldest evicted first; `counts` values are 96 bytes and are kept, so an evicted profile
/// is re-analysed only when a *new* shape asks about it.
///
/// Hit/miss counters are telemetry [`Counter`]s so the sweep paths (and
/// the memo-cache tests) can observe reuse directly.
pub struct HistogramCache {
    analyses: Mutex<Analyses>,
    /// Histogram bytes `analyses` may hold.
    budget: usize,
    counts: Mutex<HashMap<CountsKey, TwoPassCounts>>,
    registry: Registry,
    /// Analysis lookups answered by an analysis another call produced.
    pub hits: Counter,
    /// Analyses computed (one per distinct profile while it stays cached).
    pub misses: Counter,
    /// `eod_devsim_histogram_cache_bytes`: histogram bytes memoized.
    pub bytes: Arc<Gauge>,
    /// `eod_devsim_histogram_cache_entries`: analyses memoized.
    pub entries: Arc<Gauge>,
}

impl HistogramCache {
    /// An empty cache with zeroed counters and the
    /// [`HISTOGRAM_BUDGET_BYTES`] budget.
    pub fn new() -> Self {
        Self::with_budget(HISTOGRAM_BUDGET_BYTES)
    }

    /// An empty cache holding at most `budget` bytes of histograms.
    pub fn with_budget(budget: usize) -> Self {
        let registry = Registry::new();
        let bytes = registry.gauge(
            "eod_devsim_histogram_cache_bytes",
            "Bytes of reuse-distance histogram entries held by memoized trace analyses",
        );
        let entries = registry.gauge(
            "eod_devsim_histogram_cache_entries",
            "Trace analyses currently memoized",
        );
        Self {
            analyses: Mutex::default(),
            budget,
            counts: Mutex::default(),
            registry,
            hits: Counter::new(),
            misses: Counter::new(),
            bytes,
            entries,
        }
    }

    /// The process-wide cache used by the default counter-synthesis and
    /// sweep paths.
    pub fn global() -> &'static HistogramCache {
        static GLOBAL: OnceLock<HistogramCache> = OnceLock::new();
        GLOBAL.get_or_init(HistogramCache::new)
    }

    fn lock_analyses(&self) -> MutexGuard<'_, Analyses> {
        self.analyses.lock().expect("analyses lock poisoned")
    }

    fn lock_counts(&self) -> MutexGuard<'_, HashMap<CountsKey, TwoPassCounts>> {
        self.counts.lock().expect("counts lock poisoned")
    }

    fn publish(&self, a: &Analyses) {
        self.bytes.set(a.bytes as f64);
        self.entries.set(a.cells.len() as f64);
    }

    /// Fetch or compute the analysis for `(pattern, working_set, cap)`,
    /// and say which happened ([`CountsSource::Computed`] or
    /// [`CountsSource::Memoized`]).
    pub fn get_or_analyze(
        &self,
        pattern: AccessPattern,
        working_set: u64,
        cap_bytes: u64,
    ) -> (Arc<TraceAnalysis>, CountsSource) {
        let key = (trace_pattern(pattern), working_set, cap_bytes);
        let cell = {
            let mut a = self.lock_analyses();
            match a.cells.get(&key) {
                Some(cell) => Arc::clone(cell),
                None => {
                    let cell = AnalysisCell::default();
                    a.cells.insert(key, Arc::clone(&cell));
                    a.order.push_back(key);
                    cell
                }
            }
        };
        // Analyze outside the map lock: concurrent sweep workers on
        // *different* profiles must not serialize on one histogram's
        // construction; workers on the *same* profile wait on its cell.
        let mut computed = false;
        let analysis = Arc::clone(cell.get_or_init(|| {
            computed = true;
            Arc::new(analyze_trace(key.0, working_set, cap_bytes))
        }));
        if !computed {
            self.hits.inc();
            return (analysis, CountsSource::Memoized);
        }
        self.misses.inc();
        let mut a = self.lock_analyses();
        // A `clear` or an eviction may have dropped the cell meanwhile.
        if a.cells.get(&key).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
            a.bytes += analysis.histogram_bytes();
            while a.bytes > self.budget {
                let oldest = a.order.pop_front().expect("bytes held imply a key");
                let evicted = a.cells.remove(&oldest).expect("ordered keys are cached");
                a.bytes -= evicted.get().map_or(0, |e| e.histogram_bytes());
            }
            self.publish(&a);
        }
        (analysis, CountsSource::Computed)
    }

    /// Number of distinct analyses currently memoized.
    pub fn len(&self) -> usize {
        self.lock_analyses().cells.len()
    }

    /// Whether the cache holds no analyses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all memoized analyses and counts (counters keep their totals
    /// — they are lifetime counters, not gauges).
    pub fn clear(&self) {
        let mut a = self.lock_analyses();
        *a = Analyses::default();
        self.publish(&a);
        drop(a);
        self.lock_counts().clear();
    }

    /// Prometheus text exposition of the `eod_devsim_histogram_cache_*`
    /// gauges.
    pub fn metrics_text(&self) -> String {
        self.registry.render()
    }
}

impl Default for HistogramCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Two-pass hierarchy counts for `(pattern, working_set)` on `shape`, via
/// the selected engine and memo cache, with how the answer was produced.
///
/// A repeated `(engine, profile, shape)` query is one map lookup. On a
/// miss the `Exact` arm streams the lazy trace twice through the simulator
/// and snapshots its cumulative counts after each pass — byte-for-byte the
/// behaviour of the old materialized-trace verification path — and the
/// `StackDistance` arm derives the same counts analytically from the
/// memoized histogram. Memoizing cannot change either answer: both are
/// deterministic functions of the key.
pub fn two_pass_counts_traced(
    engine: CacheEngine,
    pattern: AccessPattern,
    working_set: u64,
    cap_bytes: u64,
    shape: &HierarchyShape,
    cache: &HistogramCache,
) -> (TwoPassCounts, CountsSource) {
    // Tiny traces: the analytic expectation cannot track one concrete
    // realization to within tolerance, and simulating them is just as
    // cheap — delegate to the exact arm below 1 MiB.
    let engine = if engine == CacheEngine::StackDistance
        && effective_lines(working_set, cap_bytes) < ANALYTIC_MIN_LINES
    {
        CacheEngine::Exact
    } else {
        engine
    };
    let pattern = trace_pattern(pattern);
    let key = (engine, pattern, working_set, cap_bytes, *shape);
    if let Some(counts) = cache.lock_counts().get(&key) {
        let source = match engine {
            CacheEngine::Exact => CountsSource::Simulated,
            CacheEngine::StackDistance => CountsSource::Memoized,
        };
        return (counts.clone(), source);
    }
    // Compute outside the lock: a 40 ms derivation or a two-pass
    // simulation must not stall lookups of other keys.
    let (counts, source) = match engine {
        CacheEngine::StackDistance => {
            let (analysis, source) = cache.get_or_analyze(pattern, working_set, cap_bytes);
            (derive_counts(&analysis, shape), source)
        }
        CacheEngine::Exact => {
            let mut h = shape.build();
            h.run_trace(TracePass::new(pattern, working_set, cap_bytes));
            let cold = h.counts();
            h.run_trace(TracePass::new(pattern, working_set, cap_bytes));
            let counts = TwoPassCounts {
                cold,
                total: h.counts(),
            };
            (counts, CountsSource::Simulated)
        }
    };
    cache.lock_counts().insert(key, counts.clone());
    (counts, source)
}

/// [`two_pass_counts_traced`] without the provenance.
pub fn two_pass_counts(
    engine: CacheEngine,
    pattern: AccessPattern,
    working_set: u64,
    cap_bytes: u64,
    shape: &HierarchyShape,
    cache: &HistogramCache,
) -> TwoPassCounts {
    two_pass_counts_traced(engine, pattern, working_set, cap_bytes, shape, cache).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_pass_is_unit_stride() {
        let t: Vec<u64> = TracePass::new(AccessPattern::Streaming, 128 * 1024, 1 << 30).collect();
        assert_eq!(t.len(), 2048);
        assert!(t.windows(2).all(|w| w[1] == w[0] + 64));
    }

    #[test]
    fn strided_pass_touches_every_line_exactly_once() {
        // Footprints that are multiples of 4 KiB (the old bug's trigger),
        // smaller than one 4 KiB stride, and ragged.
        for ws in [4096u64, 8192, 128 * 1024, 130 * 64, 64, 640, 1 << 20] {
            let lines = ws / 64;
            let mut seen = vec![0u32; lines as usize];
            for addr in TracePass::new(AccessPattern::Strided, ws, 1 << 30) {
                assert_eq!(addr % 64, 0);
                seen[(addr / 64) as usize] += 1;
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "ws={ws}: every line exactly once per pass"
            );
        }
    }

    #[test]
    fn strided_pass_walks_4kib_columns() {
        let t: Vec<u64> = TracePass::new(AccessPattern::Strided, 128 * 1024, 1 << 30).collect();
        assert_eq!(t[0], 0);
        assert_eq!(t[1], 4096, "row stride is 4 KiB");
        assert_eq!(t.len(), 2048);
    }

    #[test]
    fn random_pass_is_deterministic_uniform_and_set_balanced() {
        let a: Vec<u64> = TracePass::new(AccessPattern::Random, 128 * 1024, 1 << 30).collect();
        let b: Vec<u64> = TracePass::new(AccessPattern::Random, 128 * 1024, 1 << 30).collect();
        assert_eq!(a, b, "deterministic across instantiations");
        assert_eq!(a.len(), 2048);
        assert!(a.iter().all(|&x| x < 128 * 1024 && x % 64 == 0));
        assert!(a.windows(2).any(|w| w[1] != w[0] + 64), "not sequential");
        // The old LCG's low bits made `(line % sets)` a fixed round-robin
        // (period = sets); the scramble must not repeat that pathology.
        let sets = 64u64;
        let mut per_set = vec![0u64; sets as usize];
        for &addr in &a {
            per_set[((addr / 64) % sets) as usize] += 1;
        }
        let (min, max) = (per_set.iter().min().unwrap(), per_set.iter().max().unwrap());
        assert!(
            *max > *min,
            "a perfectly even visit count means round-robin"
        );
        assert!(*max < 3 * a.len() as u64 / sets, "roughly uniform");
    }

    #[test]
    fn reuse_distances_are_distinct_line_counts() {
        // A B C A → d(A) = 3; B → 3; then A again immediately → 1.
        let mut an = ReuseAnalyzer::new(6, 16, 16);
        assert_eq!(an.record(0), None);
        assert_eq!(an.record(64), None);
        assert_eq!(an.record(128), None);
        assert_eq!(an.record(0), Some(3));
        assert_eq!(an.record(64), Some(3));
        assert_eq!(an.record(64), Some(1));
        assert_eq!(an.footprint(), 3);
    }

    #[test]
    fn histogram_prefix_queries_are_exact() {
        let h = ReuseHistogram::from_entries(vec![(1, 10), (4, 5), (9, 2)], 3, 16);
        assert_eq!(h.total(), 20);
        assert_eq!(h.cold(), 3);
        assert_eq!(h.hits_within(0), 0);
        assert_eq!(h.hits_within(1), 10);
        assert_eq!(h.hits_within(3), 10);
        assert_eq!(h.hits_within(4), 15);
        assert_eq!(h.hits_within(100), 17);
    }

    #[test]
    fn hypergeometric_degenerates_to_balanced_sweep() {
        // Full-region sweep (d = region): the intervening set is the whole
        // region, so the set population is exactly u. u ≤ ways → hit.
        let (sets, ways) = (8192, 16);
        assert_eq!(hit_probability(sets * ways, sets * ways, sets, ways), 1.0);
        // One extra line beyond capacity: the overloaded sets (17 lines in
        // 16 ways) thrash; with rem = 1 set, miss weight = 17/region.
        let region = sets * ways + 1;
        let p = hit_probability(region, region, sets, ways);
        let expect = 1.0 - 17.0 / region as f64;
        assert!((p - expect).abs() < 1e-9, "p={p} expect={expect}");
    }

    #[test]
    fn hypergeometric_approaches_binomial_for_huge_regions() {
        // Region ≫ d: compare to the plain Hill–Smith binomial.
        let (d, sets, ways) = (600u64, 64u64, 8u64);
        let p_s = 1.0 / sets as f64;
        let n = (d - 1) as f64;
        let mut binom = 0.0;
        let mut term = (1.0 - p_s).powf(n);
        for k in 0..ways {
            binom += term;
            let kf = k as f64;
            term *= (n - kf) / (kf + 1.0) * p_s / (1.0 - p_s);
        }
        let p = hit_probability(d, 100_000_000, sets, ways);
        assert!((p - binom).abs() < 1e-3, "hyper {p} vs binom {binom}");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for (n, f) in [(1u64, 1.0f64), (5, 24.0), (10, 362880.0)] {
            assert!((ln_gamma(n as f64) - f.ln()).abs() < 1e-9);
        }
    }

    #[test]
    fn warm_pass_histogram_is_separated_from_cold() {
        let a = analyze_trace(AccessPattern::Streaming, 64 * 1024, 1 << 30);
        assert_eq!(a.pass_len, 1024);
        // Pass 1 is entirely cold; pass 2 is entirely finite at d = 1024.
        assert_eq!(a.line_cold.cold(), 1024);
        assert_eq!(a.line_cold.entries().len(), 0);
        assert_eq!(a.line_warm.cold(), 0);
        assert_eq!(a.line_warm.entries(), &[(1024, 1024)]);
    }

    fn i7() -> HierarchyShape {
        let spec = crate::catalog::DeviceId::by_name("i7-6700K")
            .unwrap()
            .spec();
        HierarchyShape::for_spec(spec)
    }

    #[test]
    fn repeated_query_is_a_lookup_and_clear_empties_counts() {
        let cache = HistogramCache::new();
        let query = |pattern, ws| {
            let before = derivations();
            let (counts, source) = two_pass_counts_traced(
                CacheEngine::StackDistance,
                pattern,
                ws,
                DEFAULT_TRACE_CAP,
                &i7(),
                &cache,
            );
            (counts, source, derivations() - before)
        };
        let (first, source, derived) = query(AccessPattern::Gather, 2 << 20);
        assert_eq!((source, derived), (CountsSource::Computed, 1));
        let (again, source, derived) = query(AccessPattern::Gather, 2 << 20);
        assert_eq!((source, derived), (CountsSource::Memoized, 0));
        assert_eq!(again, first);
        // `Random` draws the same trace, so it is the same entry.
        let (random, source, derived) = query(AccessPattern::Random, 2 << 20);
        assert_eq!((source, derived), (CountsSource::Memoized, 0));
        assert_eq!(random, first);
        // Under `ANALYTIC_MIN_LINES` the exact arm answers, memoized too.
        let (tiny, source, derived) = query(AccessPattern::Strided, 300 << 10);
        assert_eq!((source, derived), (CountsSource::Simulated, 0));
        assert_eq!(query(AccessPattern::Strided, 300 << 10).0, tiny);
        assert_eq!(cache.len(), 1, "the exact arm stores no analysis");

        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes.get(), 0.0);
        let (after, source, derived) = query(AccessPattern::Gather, 2 << 20);
        assert_eq!(
            (source, derived),
            (CountsSource::Computed, 1),
            "clear must drop the counts too, not only the analyses"
        );
        assert_eq!(after, first);
    }

    #[test]
    fn gauges_track_the_memoized_analyses() {
        let cache = HistogramCache::new();
        let (a, _) = cache.get_or_analyze(AccessPattern::Random, 2 << 20, DEFAULT_TRACE_CAP);
        let (b, _) = cache.get_or_analyze(AccessPattern::Streaming, 2 << 20, DEFAULT_TRACE_CAP);
        let held = a.histogram_bytes() + b.histogram_bytes();
        assert!(a.histogram_bytes() > 100 * b.histogram_bytes());
        assert_eq!(cache.bytes.get(), held as f64);
        assert_eq!(cache.entries.get(), 2.0);
        let text = cache.metrics_text();
        assert!(
            text.contains(&format!("eod_devsim_histogram_cache_bytes {held}\n")),
            "{text}"
        );
        assert!(
            text.contains("eod_devsim_histogram_cache_entries 2\n"),
            "{text}"
        );
    }
}

//! Oracle-equivalence and memo-cache tests for the reuse-distance engine.
//!
//! The stack-distance engine's acceptance bar (DESIGN.md "Reuse-distance
//! cache engine"): per-level steady-state hit-ratio error vs the exact
//! set-associative simulator within 1 % absolute over the trace corpus,
//! and the same resolved innermost-fitting level everywhere. The corpus
//! deliberately includes the §4.4 boundary cases (working set exactly at
//! and just beyond a level's capacity) where the naive binomial
//! correction fails.

use eod_devsim::catalog::DeviceId;
use eod_devsim::profile::AccessPattern;
use eod_devsim::stackdist::{
    analyze_trace, derive_counts, two_pass_counts, two_pass_counts_traced, CacheEngine,
    CountsSource, HierarchyShape, HistogramCache, TracePass, TwoPassCounts, ANALYTIC_MIN_LINES,
    DEFAULT_TRACE_CAP, HISTOGRAM_BUDGET_BYTES,
};
use std::sync::Barrier;

/// Working sets probing every capacity relationship of the Skylake-style
/// hierarchy: inside L1, exactly L1, just past L1, inside/at/past L2,
/// mid-L3, *exactly* L3 (the fft-medium boundary), just past, and DRAM.
const WORKING_SETS: &[u64] = &[
    16 << 10,
    32 << 10,
    40 << 10,
    200 << 10,
    256 << 10,
    320 << 10,
    4 << 20,
    8 << 20,
    (8 << 20) + (64 << 10),
    12 << 20,
    32 << 20,
];

const PATTERNS: &[AccessPattern] = &[
    AccessPattern::Streaming,
    AccessPattern::Strided,
    AccessPattern::Random,
    AccessPattern::Gather,
];

/// Hierarchies under test: the Skylake verify shape, a no-L3 GPU, a
/// small-L1 discrete part, and the KNL-style CPU.
fn shapes() -> Vec<(String, HierarchyShape)> {
    ["i7-6700K", "GTX 1080", "R9 Fury X", "Xeon Phi 7210"]
        .iter()
        .map(|name| {
            let spec = DeviceId::by_name(name).expect("catalog device").spec();
            (name.to_string(), HierarchyShape::for_spec(spec))
        })
        .collect()
}

/// Warm-pass per-level miss ratios in the verify path's vocabulary.
fn ratios(c: &eod_devsim::cache::HierarchyCounts) -> (f64, f64, f64) {
    let accesses = (c.accesses as f64).max(1.0);
    let l1m = c.l1_misses as f64;
    let l2m = c.l2_misses as f64;
    let l3m = c.l3_misses as f64;
    (l1m / accesses, l2m / l1m.max(1.0), l3m / l2m.max(1.0))
}

fn resolved_level(r1: f64, r2: f64, r3: f64) -> u8 {
    if r1 < 0.05 {
        1
    } else if r2 < 0.05 {
        2
    } else if r3 < 0.05 {
        3
    } else {
        4
    }
}

#[test]
fn stackdist_matches_exact_oracle_within_tolerance() {
    let cache = HistogramCache::new();
    let mut worst: (f64, String) = (0.0, String::new());
    for &(ref name, shape) in &shapes() {
        for &pattern in PATTERNS {
            for &ws in WORKING_SETS {
                let exact = two_pass_counts(
                    CacheEngine::Exact,
                    pattern,
                    ws,
                    DEFAULT_TRACE_CAP,
                    &shape,
                    &cache,
                )
                .warm();
                let sd = two_pass_counts(
                    CacheEngine::StackDistance,
                    pattern,
                    ws,
                    DEFAULT_TRACE_CAP,
                    &shape,
                    &cache,
                )
                .warm();
                let n = (exact.accesses as f64).max(1.0);
                assert_eq!(exact.accesses, sd.accesses, "{name} {pattern:?} {ws}");
                // Per-level hit-ratio error over the *full access stream*
                // (misses / accesses), the quantity both engines feed the
                // counter synthesis.
                for (lvl, a, b) in [
                    ("L1", exact.l1_misses, sd.l1_misses),
                    ("L2", exact.l2_misses, sd.l2_misses),
                    ("L3", exact.l3_misses, sd.l3_misses),
                    ("TLB", exact.tlb_misses, sd.tlb_misses),
                ] {
                    let err = (a as f64 - b as f64).abs() / n;
                    if err > worst.0 {
                        worst = (err, format!("{name} {pattern:?} ws={ws} {lvl}"));
                    }
                    assert!(
                        err <= 0.01,
                        "{name} {pattern:?} ws={ws} {lvl}: exact {a} vs stackdist {b} \
                         ({err:.4} > 0.01 absolute)"
                    );
                }
                let (e1, e2, e3) = ratios(&exact);
                let (s1, s2, s3) = ratios(&sd);
                assert_eq!(
                    resolved_level(e1, e2, e3),
                    resolved_level(s1, s2, s3),
                    "{name} {pattern:?} ws={ws}: resolved level diverged \
                     (exact {e1:.3}/{e2:.3}/{e3:.3} vs sd {s1:.3}/{s2:.3}/{s3:.3})"
                );
            }
        }
    }
    eprintln!("worst per-level error: {:.4} at {}", worst.0, worst.1);
}

/// The two-pass counts of a hand-driven simulator: no engine, no memo.
fn simulate(pattern: AccessPattern, ws: u64, shape: &HierarchyShape) -> TwoPassCounts {
    let mut h = shape.build();
    h.run_trace(TracePass::new(pattern, ws, DEFAULT_TRACE_CAP));
    let cold = h.counts();
    h.run_trace(TracePass::new(pattern, ws, DEFAULT_TRACE_CAP));
    TwoPassCounts {
        cold,
        total: h.counts(),
    }
}

#[test]
fn exact_engine_is_bit_identical_to_direct_simulation() {
    // The Exact arm must reproduce the simulator verbatim (it *is* the
    // simulator, memoized) — spot-check against a hand-driven hierarchy.
    let shape = HierarchyShape::for_spec(DeviceId::by_name("i7-6700K").unwrap().spec());
    let cache = HistogramCache::new();
    for &pattern in PATTERNS {
        let ws = 300 << 10;
        let counts = two_pass_counts(
            CacheEngine::Exact,
            pattern,
            ws,
            DEFAULT_TRACE_CAP,
            &shape,
            &cache,
        );
        assert_eq!(counts, simulate(pattern, ws, &shape), "{pattern:?}");
    }
}

/// `two_pass_counts_traced` under the default engine on the default cap.
fn query(
    pattern: AccessPattern,
    ws: u64,
    shape: &HierarchyShape,
    cache: &HistogramCache,
) -> (TwoPassCounts, CountsSource) {
    two_pass_counts_traced(
        CacheEngine::StackDistance,
        pattern,
        ws,
        DEFAULT_TRACE_CAP,
        shape,
        cache,
    )
}

#[test]
fn memo_cache_reuses_histograms_across_devices() {
    let cache = HistogramCache::new();
    let i7 = HierarchyShape::for_spec(DeviceId::by_name("i7-6700K").unwrap().spec());
    let gtx = HierarchyShape::for_spec(DeviceId::by_name("GTX 1080").unwrap().spec());
    let ws = 1 << 20;

    let (first, source) = query(AccessPattern::Streaming, ws, &i7, &cache);
    assert_eq!(source, CountsSource::Computed);
    assert_eq!(
        cache.misses.get(),
        1.0,
        "first device computes the histogram"
    );
    assert_eq!(cache.hits.get(), 0.0);

    // Same profile, different device: histogram cache hit.
    let (_, source) = query(AccessPattern::Streaming, ws, &gtx, &cache);
    assert_eq!(source, CountsSource::Memoized);
    assert_eq!(cache.misses.get(), 1.0, "second device reuses it");
    assert_eq!(cache.hits.get(), 1.0);
    assert_eq!(cache.len(), 1);

    // Same profile, same device: answered from the counts memo, which
    // does not consult the histogram cache at all.
    let (again, source) = query(AccessPattern::Streaming, ws, &i7, &cache);
    assert_eq!(source, CountsSource::Memoized);
    assert_eq!(again, first);
    assert_eq!((cache.hits.get(), cache.misses.get()), (1.0, 1.0));
}

#[test]
fn memo_cache_misses_on_differing_working_set_or_pattern() {
    let cache = HistogramCache::new();
    let (a, _) = cache.get_or_analyze(AccessPattern::Streaming, 1 << 20, DEFAULT_TRACE_CAP);
    let b = cache.get_or_analyze(AccessPattern::Streaming, 2 << 20, DEFAULT_TRACE_CAP);
    let (c, _) = cache.get_or_analyze(AccessPattern::Random, 1 << 20, DEFAULT_TRACE_CAP);
    assert_eq!(
        cache.misses.get(),
        3.0,
        "ws and pattern are part of the key"
    );
    assert_eq!(cache.hits.get(), 0.0);
    assert_eq!(cache.len(), 3);
    let (again, source) =
        cache.get_or_analyze(AccessPattern::Streaming, 1 << 20, DEFAULT_TRACE_CAP);
    assert!(std::sync::Arc::ptr_eq(&a, &again));
    assert_eq!(source, CountsSource::Memoized);
    assert_eq!(cache.hits.get(), 1.0);
    // Gather draws Random's trace, so it is Random's analysis.
    let (gather, _) = cache.get_or_analyze(AccessPattern::Gather, 1 << 20, DEFAULT_TRACE_CAP);
    assert!(std::sync::Arc::ptr_eq(&c, &gather));
    assert_eq!((cache.hits.get(), cache.len()), (2.0, 3));
    drop(b);
    cache.clear();
    assert!(cache.is_empty());
}

#[test]
fn concurrent_first_callers_share_one_analysis() {
    let cache = HistogramCache::new();
    let start = Barrier::new(4);
    let analyses: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    cache.get_or_analyze(AccessPattern::Random, 4 << 20, DEFAULT_TRACE_CAP)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(cache.misses.get(), 1.0, "misses count distinct analyses");
    assert_eq!(cache.hits.get(), 3.0);
    let computed = analyses
        .iter()
        .filter(|(_, source)| *source == CountsSource::Computed)
        .count();
    assert_eq!(computed, 1);
    assert!(analyses
        .iter()
        .all(|(a, _)| std::sync::Arc::ptr_eq(a, &analyses[0].0)));
}

/// Every distinct hierarchy geometry in the catalog.
fn catalog_shapes() -> Vec<HierarchyShape> {
    let mut shapes: Vec<HierarchyShape> = Vec::new();
    for id in DeviceId::all() {
        let shape = HierarchyShape::for_spec(id.spec());
        if !shapes.contains(&shape) {
            shapes.push(shape);
        }
    }
    shapes
}

#[test]
fn memoized_counts_equal_fresh_computation_bit_for_bit() {
    // Expected answers computed with no memo in the way: a fresh
    // derivation from a fresh analysis, or below the analytic floor a
    // fresh simulator run.
    let shapes = catalog_shapes();
    let mut expected: Vec<(AccessPattern, u64, HierarchyShape, TwoPassCounts)> = Vec::new();
    for &pattern in PATTERNS {
        for ws in [300u64 << 10, 1 << 20, 8 << 20, 48 << 20] {
            let analysis = (ws >> 6 >= ANALYTIC_MIN_LINES)
                .then(|| analyze_trace(pattern, ws, DEFAULT_TRACE_CAP));
            for shape in &shapes {
                let fresh = match &analysis {
                    Some(a) => derive_counts(a, shape),
                    None => simulate(pattern, ws, shape),
                };
                expected.push((pattern, ws, *shape, fresh));
            }
        }
    }
    // Gather and Random share memo entries; their answers must be equal
    // for that to be sound.
    for (pattern, ws, shape, counts) in &expected {
        if *pattern == AccessPattern::Gather {
            let random = expected
                .iter()
                .find(|e| (e.0, e.1, e.2) == (AccessPattern::Random, *ws, *shape))
                .unwrap();
            assert_eq!(*counts, random.3, "ws={ws}");
        }
    }

    // Four threads race over one empty cache, each asking every question
    // twice: first answers are computed (possibly concurrently), second
    // answers are lookups.
    let cache = HistogramCache::new();
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                start.wait();
                for (pattern, ws, shape, fresh) in &expected {
                    for call in 0..2 {
                        let (got, _) = query(*pattern, *ws, shape, &cache);
                        assert_eq!(got, *fresh, "{pattern:?} ws={ws} call {call}");
                    }
                }
            });
        }
    });
    assert_eq!(
        cache.misses.get(),
        9.0,
        "3 trace shapes x 3 analytic working sets, each analysed once"
    );
}

#[test]
fn analyses_are_evicted_oldest_first_and_counts_survive() {
    let i7 = HierarchyShape::for_spec(DeviceId::by_name("i7-6700K").unwrap().spec());
    let gtx = HierarchyShape::for_spec(DeviceId::by_name("GTX 1080").unwrap().spec());
    let cache = HistogramCache::new();
    // Forty distinct >= 64 MiB working sets: the worst-case analysis
    // (~16.7 MiB of histogram entries each), 2.6x the budget in all.
    let working_sets: Vec<u64> = (0..40).map(|i| (64 << 20) + i * 64).collect();
    let first: Vec<TwoPassCounts> = working_sets
        .iter()
        .map(|&ws| {
            let (counts, source) = query(AccessPattern::Random, ws, &i7, &cache);
            assert_eq!(source, CountsSource::Computed);
            assert!(cache.bytes.get() <= HISTOGRAM_BUDGET_BYTES as f64);
            counts
        })
        .collect();
    assert_eq!(cache.misses.get(), 40.0);
    assert!(cache.len() < 40, "the budget must have evicted analyses");
    assert!(
        cache.len() >= 10,
        "but not more than it had to: {}",
        cache.len()
    );
    assert_eq!(cache.entries.get(), cache.len() as f64);

    // Every earlier (profile, shape) still answers, without re-analysis.
    for (&ws, counts) in working_sets.iter().zip(&first) {
        let (again, source) = query(AccessPattern::Random, ws, &i7, &cache);
        assert_eq!(source, CountsSource::Memoized);
        assert_eq!(again, *counts);
    }
    assert_eq!(cache.misses.get(), 40.0);

    // Only a new shape needs the histogram: the newest profile still has
    // its analysis, the oldest was evicted and is analysed again.
    let (_, source) = query(AccessPattern::Random, working_sets[39], &gtx, &cache);
    assert_eq!(source, CountsSource::Memoized);
    let (_, source) = query(AccessPattern::Random, working_sets[0], &gtx, &cache);
    assert_eq!(source, CountsSource::Computed);
    assert_eq!(cache.misses.get(), 41.0);
    assert!(cache.bytes.get() <= HISTOGRAM_BUDGET_BYTES as f64);
}

//! Tables 1–3 and the §4.4 sizing methodology report.

use eod_core::args::{arguments_for, DeviceSelector};
use eod_core::sizes::{ProblemSize, ScaleTable};
use eod_core::sizing;
use eod_devsim::catalog::{CoreKind, CATALOG};
use eod_dwarfs::registry;
use std::fmt::Write as _;

/// Table 1 — the hardware catalog, printed with the paper's columns. The
/// whole catalog is listed (derived from [`CATALOG`], not a hardcoded 15);
/// rows past [`eod_devsim::catalog::PAPER_DEVICE_COUNT`] are post-paper
/// extension devices, marked with a trailing `§`.
pub fn table1() -> String {
    use eod_devsim::catalog::PAPER_DEVICE_COUNT;
    let mut out = String::from(
        "| Name | Vendor | Type | Series | Core Count | Clock (MHz) min/max/turbo | \
         Cache (KiB) L1/L2/L3 | TDP (W) | Launch |\n|---|---|---|---|---:|---|---|---:|---|\n",
    );
    for (i, d) in CATALOG.iter().enumerate() {
        let mark = match d.core_kind {
            CoreKind::HyperThreaded => "*",
            CoreKind::Cuda => "†",
            CoreKind::StreamProcessor => "∥",
            CoreKind::KnlThread => "‡",
        };
        let dash = |v: u32| {
            if v == 0 {
                "–".to_string()
            } else {
                v.to_string()
            }
        };
        let ext = if i >= PAPER_DEVICE_COUNT { "§" } else { "" };
        let _ = writeln!(
            out,
            "| {}{ext} | {} | {} | {} | {}{mark} | {}/{}/{} | {}/{}/{} | {} | Q{} {} |",
            d.name,
            d.vendor.name(),
            match d.class {
                eod_devsim::catalog::AcceleratorClass::Cpu => "CPU",
                eod_devsim::catalog::AcceleratorClass::Mic => "MIC",
                _ => "GPU",
            },
            d.series,
            d.core_count,
            d.clock_min_mhz,
            dash(d.clock_max_mhz),
            dash(d.clock_turbo_mhz),
            d.l1_kib,
            d.l2_kib,
            dash(d.l3_kib),
            d.tdp_w,
            d.launch.0,
            d.launch.1,
        );
    }
    if CATALOG.len() > PAPER_DEVICE_COUNT {
        out.push_str("\n§ post-Table-1 extension device (not in the paper).\n");
    }
    out
}

/// Table 2 — workload scale parameters Φ.
pub fn table2() -> String {
    let mut out =
        String::from("| Benchmark | tiny | small | medium | large |\n|---|---|---|---|---|\n");
    for row in ScaleTable::rows() {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} |",
            row[0], row[1], row[2], row[3], row[4]
        );
    }
    out
}

/// Table 3 — program arguments, rendered at every size with Φ substituted.
pub fn table3() -> String {
    let mut out = String::from("| Benchmark | Arguments (tiny … large) |\n|---|---|\n");
    for &name in eod_core::dwarf::benchmark_names() {
        let rendered: Vec<String> = ProblemSize::all()
            .iter()
            .filter_map(|&s| arguments_for(name, s))
            .collect();
        let _ = writeln!(out, "| {} | `{}` |", name, rendered.join("` · `"));
    }
    let sel = DeviceSelector {
        platform: 1,
        device: 0,
        type_id: Some(0),
    };
    let _ = writeln!(
        out,
        "\nDevice selection: `{}` (platform 1 device 0 = {}), as §4.4.5.",
        sel.render(),
        CATALOG[0].name
    );
    out
}

/// The §4.4 sizing report: every benchmark's predicted footprint per size,
/// against the Skylake cache targets.
pub fn sizing_report() -> String {
    let mut out = String::from(
        "| Benchmark | size | footprint (KiB) | target | fits |\n|---|---|---:|---|---|\n",
    );
    for bench in registry::all_benchmarks() {
        for &size in &bench.supported_sizes() {
            let w = bench.workload(size, 0);
            let bytes = w.footprint_bytes();
            let target = match size.target_cache_kib() {
                Some(k) => format!("≤ {k} KiB"),
                None => "≥ 32 MiB".to_string(),
            };
            let fits = if sizing::footprint_ok(size, bytes) {
                "yes"
            } else {
                "no*"
            };
            let _ = writeln!(
                out,
                "| {} | {} | {:.1} | {} | {} |",
                bench.name(),
                size.label(),
                bytes as f64 / 1024.0,
                target,
                fits
            );
        }
    }
    out.push_str(
        "\n`no*` rows reproduce the paper's own near-misses (kmeans and csr at \
         `large` are below the 4×L3 floor; csr `medium` overshoots L3 by <1 %).\n",
    );
    out
}

/// The §4.3 power-analysis report: reproduce the 50-samples-per-group
/// derivation.
pub fn power_report() -> String {
    use eod_scibench::power::{power_of_t_test, sample_size_for_power, TTestKind};
    let mut out = String::new();
    let n2 = sample_size_for_power(0.5, 0.05, 0.8, TTestKind::TwoSample);
    let n1 = sample_size_for_power(0.5, 0.05, 0.8, TTestKind::OneSample);
    let p50 = power_of_t_test(50, 0.5, 0.05, TTestKind::OneSample);
    let _ = writeln!(
        out,
        "t-test power calculation (α = 0.05, d = 0.5, power = 0.8):"
    );
    let _ = writeln!(out, "  two-sample design : n = {n2} per group");
    let _ = writeln!(out, "  one-sample design : n = {n1} per group");
    let _ = writeln!(
        out,
        "  the paper's n = 50 gives {:.1} % power in the one-sample design",
        p50 * 100.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_devices() {
        let t = table1();
        // Header (2 lines) + one row per catalog device + blank + footnote.
        assert_eq!(t.lines().count(), 2 + CATALOG.len() + 2);
        assert!(t.contains("Xeon E5-2697 v2"));
        assert!(t.contains("| 24* |"));
        assert!(t.contains("Q2 2016"));
        // Extension rows are present and marked.
        assert!(t.contains("| RTX 3090§ |"));
        assert!(t.contains("| Xeon Gold 6148§ |"));
        assert!(t.contains("post-Table-1 extension device"));
    }

    #[test]
    fn table2_matches_scale_table() {
        let t = table2();
        assert!(t.contains("| kmeans | 256 | 2048 | 65600 | 131072 |"));
        assert!(t.contains("| dwt | 72x54 |"));
        assert!(t.contains("| nqueens | 18 | – | – | – |"));
    }

    #[test]
    fn table3_renders_argument_grammar() {
        let t = table3();
        assert!(t.contains("-g -f 26 -p 256"));
        assert!(t.contains("-p 1 -d 0 -t 0"));
    }

    #[test]
    fn sizing_report_flags_known_near_misses() {
        let r = sizing_report();
        assert!(r.contains("| fft | tiny | 32.0 | ≤ 32 KiB | yes |"));
        assert!(r.contains("no*"), "the paper's near-misses are reported");
    }

    #[test]
    fn power_report_reproduces_sample_size() {
        let r = power_report();
        assert!(r.contains("n = 64") || r.contains("n = 63") || r.contains("n = 65"));
        assert!(r.contains("one-sample design : n = 3"));
    }
}

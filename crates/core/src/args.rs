//! Table 3 — program arguments.
//!
//! The paper runs every benchmark as `Benchmark Device -- Arguments`, where
//! the device selector is the uniform `-p <platform> -d <device> -t <type>`
//! triple and `Arguments` comes from Table 3 with the scale parameter Φ
//! substituted from Table 2. This module reproduces that grammar so the
//! harness CLI accepts and prints the same invocations.

use crate::sizes::{ProblemSize, ScaleTable};

/// The uniform device selector (§4.4.5): `-p 1 -d 0 -t 0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSelector {
    /// Platform index (`-p`).
    pub platform: usize,
    /// Device index (`-d`).
    pub device: usize,
    /// Device type filter (`-t`): 0 = CPU, 1 = GPU, 2 = MIC. Optional and
    /// informational in this runtime; selection is by platform/device
    /// index.
    pub type_id: Option<usize>,
}

impl DeviceSelector {
    /// Render as the paper prints it.
    pub fn render(&self) -> String {
        let mut s = format!("-p {} -d {}", self.platform, self.device);
        if let Some(t) = self.type_id {
            s += &format!(" -t {t}");
        }
        s
    }

    /// Parse a `-p P -d D [-t T]` string (flags in any order). Any other
    /// token, a flag without a number, or a missing `-p`/`-d` is refused.
    pub fn parse(s: &str) -> Option<Self> {
        let tokens: Vec<&str> = s.split_whitespace().collect();
        let (mut p, mut d, mut t) = (None, None, None);
        for pair in tokens.chunks(2) {
            let value = pair.get(1)?.parse().ok()?;
            match pair[0] {
                "-p" => p = Some(value),
                "-d" => d = Some(value),
                "-t" => t = Some(value),
                _ => return None,
            }
        }
        Some(Self {
            platform: p?,
            device: d?,
            type_id: t,
        })
    }
}

/// Render the Table 3 argument string for a benchmark at a problem size.
/// Returns `None` for unknown benchmarks or unsupported sizes (nqueens
/// beyond tiny).
pub fn arguments_for(benchmark: &str, size: ProblemSize) -> Option<String> {
    let i = ScaleTable::index(size);
    Some(match benchmark {
        "kmeans" => format!(
            "-g -f {} -p {}",
            ScaleTable::KMEANS_FEATURES,
            ScaleTable::KMEANS_POINTS[i]
        ),
        "lud" => format!("-s {}", ScaleTable::LUD_ORDER[i]),
        "csr" => format!("-i createcsr_n_{}_d_5000.mat", ScaleTable::CSR_ORDER[i]),
        "fft" => format!("{}", ScaleTable::FFT_LEN[i]),
        "dwt" => {
            let (w, h) = ScaleTable::DWT_DIMS[i];
            format!("-l {} {}x{}-gum.ppm", ScaleTable::DWT_LEVELS, w, h)
        }
        "srad" => {
            let (r, c) = ScaleTable::SRAD_DIMS[i];
            format!("{r} {c} 0 127 0 127 0.5 1")
        }
        "crc" => format!(
            "-i {} {}.txt",
            ScaleTable::CRC_INNER_ITERS,
            ScaleTable::CRC_BYTES[i]
        ),
        "nw" => format!("{} {}", ScaleTable::NW_LEN[i], ScaleTable::NW_PENALTY),
        "gem" => format!("{} 80 1 0", ScaleTable::GEM_MOLECULES[i]),
        "nqueens" => {
            if size != ProblemSize::Tiny {
                return None;
            }
            format!("{}", ScaleTable::NQUEENS_N)
        }
        "hmm" => {
            let (n, s) = ScaleTable::HMM_DIMS[i];
            format!("-n {n} -s {s} -v s")
        }
        _ => return None,
    })
}

/// The full command line the paper would run for one experiment.
pub fn command_line(
    benchmark: &str,
    selector: DeviceSelector,
    size: ProblemSize,
) -> Option<String> {
    Some(format!(
        "{} {} -- {}",
        benchmark,
        selector.render(),
        arguments_for(benchmark, size)?
    ))
}

/// A fully parsed Table 3 argument string — the inverse of
/// [`arguments_for`]. The harness uses this to configure workloads from
/// the exact command lines the paper publishes.
#[derive(Debug, Clone, PartialEq)]
pub enum ParsedArgs {
    /// `kmeans -g -f <features> -p <points>`
    Kmeans {
        /// `-g`: generate the feature space (always true in this suite).
        generated: bool,
        /// Feature count Fn.
        features: usize,
        /// Point count Pn.
        points: usize,
    },
    /// `lud -s <n>`
    Lud {
        /// Matrix order.
        n: usize,
    },
    /// `csr -i <file>` where the file name encodes `createcsr -n <n> -d 5000`.
    Csr {
        /// Matrix order recovered from the generated file name.
        n: usize,
    },
    /// `fft <n>`
    Fft {
        /// Transform length.
        n: usize,
    },
    /// `dwt -l <levels> <W>x<H>-gum.ppm`
    Dwt {
        /// Decomposition levels.
        levels: usize,
        /// Image width.
        w: usize,
        /// Image height.
        h: usize,
    },
    /// `srad <rows> <cols> <r1> <r2> <c1> <c2> <lambda> <iters>`
    Srad {
        /// Grid rows.
        rows: usize,
        /// Grid cols.
        cols: usize,
        /// ROI bounds (r1, r2, c1, c2).
        roi: (usize, usize, usize, usize),
        /// Diffusion rate λ.
        lambda: f32,
        /// Iteration count.
        iters: usize,
    },
    /// `crc -i <iters> <bytes>.txt`
    Crc {
        /// Inner repetition count.
        inner_iters: usize,
        /// Message length recovered from the file name.
        bytes: usize,
    },
    /// `nw <n> <penalty>`
    Nw {
        /// Sequence length.
        n: usize,
        /// Gap penalty.
        penalty: i32,
    },
    /// `gem <molecule> <resolution> <probe> <flag>`
    Gem {
        /// Molecule identifier (one of the Table 2 names).
        molecule: String,
    },
    /// `nqueens <n>`
    Nqueens {
        /// Board size.
        n: usize,
    },
    /// `hmm -n <states> -s <symbols> -v s`
    Hmm {
        /// Hidden state count.
        states: usize,
        /// Output symbol count.
        symbols: usize,
    },
}

/// Parse a Table 3 argument string for a benchmark. Returns `None` on any
/// grammar violation. Round-trips with [`arguments_for`].
pub fn parse_arguments(benchmark: &str, args: &str) -> Option<ParsedArgs> {
    let tok: Vec<&str> = args.split_whitespace().collect();
    let flag_value = |flag: &str| -> Option<&str> {
        tok.iter()
            .position(|&t| t == flag)
            .and_then(|i| tok.get(i + 1))
            .copied()
    };
    match benchmark {
        "kmeans" => Some(ParsedArgs::Kmeans {
            generated: tok.contains(&"-g"),
            features: flag_value("-f")?.parse().ok()?,
            points: flag_value("-p")?.parse().ok()?,
        }),
        "lud" => Some(ParsedArgs::Lud {
            n: flag_value("-s")?.parse().ok()?,
        }),
        "csr" => {
            // createcsr_n_<N>_d_5000.mat (our rendering) or any name
            // containing `_n_<N>_`.
            let file = flag_value("-i")?;
            let n = file
                .split("_n_")
                .nth(1)?
                .split(['_', '.'])
                .next()?
                .parse()
                .ok()?;
            Some(ParsedArgs::Csr { n })
        }
        "fft" => Some(ParsedArgs::Fft {
            n: tok.first()?.parse().ok()?,
        }),
        "dwt" => {
            let levels = flag_value("-l")?.parse().ok()?;
            let image = tok.last()?;
            let dims = image.split('-').next()?;
            let (w, h) = dims.split_once('x')?;
            Some(ParsedArgs::Dwt {
                levels,
                w: w.parse().ok()?,
                h: h.parse().ok()?,
            })
        }
        "srad" => {
            if tok.len() != 8 {
                return None;
            }
            Some(ParsedArgs::Srad {
                rows: tok[0].parse().ok()?,
                cols: tok[1].parse().ok()?,
                roi: (
                    tok[2].parse().ok()?,
                    tok[3].parse().ok()?,
                    tok[4].parse().ok()?,
                    tok[5].parse().ok()?,
                ),
                lambda: tok[6].parse().ok()?,
                iters: tok[7].parse().ok()?,
            })
        }
        "crc" => {
            let inner_iters = flag_value("-i")?.parse().ok()?;
            let file = tok.last()?;
            let bytes = file.strip_suffix(".txt")?.parse().ok()?;
            Some(ParsedArgs::Crc { inner_iters, bytes })
        }
        "nw" => {
            if tok.len() != 2 {
                return None;
            }
            Some(ParsedArgs::Nw {
                n: tok[0].parse().ok()?,
                penalty: tok[1].parse().ok()?,
            })
        }
        "gem" => Some(ParsedArgs::Gem {
            molecule: tok.first()?.to_string(),
        }),
        "nqueens" => Some(ParsedArgs::Nqueens {
            n: tok.first()?.parse().ok()?,
        }),
        "hmm" => Some(ParsedArgs::Hmm {
            states: flag_value("-n")?.parse().ok()?,
            symbols: flag_value("-s")?.parse().ok()?,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_roundtrip() {
        let s = DeviceSelector {
            platform: 1,
            device: 0,
            type_id: Some(1),
        };
        assert_eq!(s.render(), "-p 1 -d 0 -t 1");
        assert_eq!(DeviceSelector::parse("-p 1 -d 0 -t 1"), Some(s));
        assert_eq!(
            DeviceSelector::parse("-d 0 -t 1 -p 1"),
            Some(s),
            "any order"
        );
        assert_eq!(DeviceSelector::parse("-x 1 -d 0 -t 0"), None);
    }

    #[test]
    fn selector_type_is_optional() {
        let s = DeviceSelector::parse("-p 1 -d 4").unwrap();
        assert_eq!((s.platform, s.device, s.type_id), (1, 4, None));
        assert_eq!(s.render(), "-p 1 -d 4");
        assert_eq!(DeviceSelector::parse(&s.render()), Some(s));
        assert_eq!(DeviceSelector::parse("-d 4 -p 1"), Some(s), "any order");
        assert_eq!(DeviceSelector::parse("-p 1 -t 0"), None, "-d is not");
    }

    #[test]
    fn selector_rejects_unknown_or_incomplete_tokens() {
        for bad in [
            "-p 1 -d 4 -x 0",
            "-p 1 -d 4 extra",
            "-p 1 -d 4 -t",
            "-p 1 -d four",
            "-p 1 -d 4 -t gpu",
            "",
        ] {
            assert_eq!(DeviceSelector::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn table3_renderings() {
        use ProblemSize::*;
        assert_eq!(
            arguments_for("kmeans", Medium).unwrap(),
            "-g -f 26 -p 65600"
        );
        assert_eq!(arguments_for("lud", Large).unwrap(), "-s 4096");
        assert_eq!(arguments_for("fft", Tiny).unwrap(), "2048");
        assert_eq!(
            arguments_for("srad", Small).unwrap(),
            "128 80 0 127 0 127 0.5 1"
        );
        assert_eq!(arguments_for("crc", Tiny).unwrap(), "-i 1000 2000.txt");
        assert_eq!(arguments_for("nw", Large).unwrap(), "4096 10");
        assert_eq!(arguments_for("gem", Large).unwrap(), "1KX5 80 1 0");
        assert_eq!(arguments_for("nqueens", Tiny).unwrap(), "18");
        assert_eq!(arguments_for("nqueens", Small), None, "tiny-only");
        assert_eq!(arguments_for("hmm", Tiny).unwrap(), "-n 8 -s 1 -v s");
        assert_eq!(
            arguments_for("dwt", Large).unwrap(),
            "-l 3 3648x2736-gum.ppm"
        );
        assert!(arguments_for("unknown", Tiny).is_none());
    }

    #[test]
    fn parse_inverts_render_for_every_benchmark_and_size() {
        use crate::dwarf::benchmark_names;
        for &b in benchmark_names() {
            for &size in ProblemSize::all() {
                let Some(rendered) = arguments_for(b, size) else {
                    continue; // nqueens beyond tiny
                };
                let parsed = parse_arguments(b, &rendered)
                    .unwrap_or_else(|| panic!("{b} {size:?}: {rendered:?}"));
                // Spot-check the scale parameter survived.
                let i = ScaleTable::index(size);
                match (&parsed, b) {
                    (
                        ParsedArgs::Kmeans {
                            points,
                            features,
                            generated,
                        },
                        _,
                    ) => {
                        assert_eq!(*points, ScaleTable::KMEANS_POINTS[i]);
                        assert_eq!(*features, ScaleTable::KMEANS_FEATURES);
                        assert!(generated);
                    }
                    (ParsedArgs::Lud { n }, _) => assert_eq!(*n, ScaleTable::LUD_ORDER[i]),
                    (ParsedArgs::Csr { n }, _) => assert_eq!(*n, ScaleTable::CSR_ORDER[i]),
                    (ParsedArgs::Fft { n }, _) => assert_eq!(*n, ScaleTable::FFT_LEN[i]),
                    (ParsedArgs::Dwt { levels, w, h }, _) => {
                        assert_eq!(*levels, 3);
                        assert_eq!((*w, *h), ScaleTable::DWT_DIMS[i]);
                    }
                    (
                        ParsedArgs::Srad {
                            rows, cols, lambda, ..
                        },
                        _,
                    ) => {
                        assert_eq!((*rows, *cols), ScaleTable::SRAD_DIMS[i]);
                        assert_eq!(*lambda, 0.5);
                    }
                    (ParsedArgs::Crc { inner_iters, bytes }, _) => {
                        assert_eq!(*inner_iters, 1000);
                        assert_eq!(*bytes, ScaleTable::CRC_BYTES[i]);
                    }
                    (ParsedArgs::Nw { n, penalty }, _) => {
                        assert_eq!(*n, ScaleTable::NW_LEN[i]);
                        assert_eq!(*penalty, 10);
                    }
                    (ParsedArgs::Gem { molecule }, _) => {
                        assert_eq!(molecule, ScaleTable::GEM_MOLECULES[i]);
                    }
                    (ParsedArgs::Nqueens { n }, _) => assert_eq!(*n, 18),
                    (ParsedArgs::Hmm { states, symbols }, _) => {
                        assert_eq!((*states, *symbols), ScaleTable::HMM_DIMS[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_arguments("kmeans", "-f x -p 10"), None);
        assert_eq!(parse_arguments("srad", "1 2 3"), None, "arity");
        assert_eq!(parse_arguments("crc", "-i 10 nosuffix"), None);
        assert_eq!(parse_arguments("unknown", "1"), None);
        assert_eq!(parse_arguments("nw", "100"), None);
    }

    #[test]
    fn command_line_shape() {
        let cl = command_line(
            "kmeans",
            DeviceSelector {
                platform: 1,
                device: 0,
                type_id: Some(0),
            },
            ProblemSize::Tiny,
        )
        .unwrap();
        assert_eq!(cl, "kmeans -p 1 -d 0 -t 0 -- -g -f 26 -p 256");
    }
}

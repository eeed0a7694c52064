//! Shared infrastructure for the figure/table regeneration binaries and
//! the gated perf binaries.
//!
//! Every `fig*`/`table*` binary accepts `--quick` (shrunken library sizes
//! for smoke runs); without it the paper-scale defaults of DESIGN.md are
//! used. Results are written as CSV into `results/` (`target/quick/` under
//! `--quick`) and rendered as ASCII tables/plots on stdout. The gated perf
//! binaries write one `case,metric,value` CSV each through [`emit`], which
//! the `bench_gate` binary checks against the repository's `BENCH_*.json`
//! pins (see [`gate`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod render;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use afp_circuits::{ArithKind, LibrarySource, LibrarySpec};
use approxfpgas::{Flow, FlowConfig, FlowOutcome};

/// Run the exploration flow of `config` on the library generated from
/// `spec`. This is the one front end (build, characterize, subset, split,
/// zoo) the experiment binaries share; they read `records`, `subset`,
/// `train`, `validate` and `zoo` from the outcome.
pub fn run_flow(config: &FlowConfig, spec: LibrarySpec) -> FlowOutcome {
    let source = LibrarySource::Generated(spec);
    Flow::new(config.clone())
        .run_source(&source)
        .expect("generated libraries stream")
}

/// Library sizing for a run (see DESIGN.md "Library sizing").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// 8-bit adder library size.
    pub add8: usize,
    /// 12-bit adder library size.
    pub add12: usize,
    /// 16-bit adder library size.
    pub add16: usize,
    /// 8x8 multiplier library size (the paper's 4,494).
    pub mul8: usize,
    /// 12x12 multiplier library size.
    pub mul12: usize,
    /// 16x16 multiplier library size.
    pub mul16: usize,
}

impl Scale {
    /// Paper-scale sizes.
    pub fn paper() -> Scale {
        Scale {
            add8: 500,
            add12: 1000,
            add16: 1200,
            mul8: 4494,
            mul12: 1200,
            mul16: 1500,
        }
    }

    /// Shrunken sizes for smoke runs (`--quick`).
    pub fn quick() -> Scale {
        Scale {
            add8: 80,
            add12: 90,
            add16: 100,
            mul8: 220,
            mul12: 120,
            mul16: 130,
        }
    }

    /// The paper's *full* 8x8 multiplier library (44,940 circuits, of
    /// which the paper's 4,494 are the 10% subset). Expensive: reserve
    /// for dedicated runs via `--paper-full`.
    pub fn paper_full() -> Scale {
        Scale {
            mul8: 44_940,
            ..Scale::paper()
        }
    }

    /// Select by command-line arguments: `--quick` selects the smoke
    /// sizes, `--paper-full` the full-library sizes, default is
    /// [`Scale::paper`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::quick()
        } else if std::env::args().any(|a| a == "--paper-full") {
            Scale::paper_full()
        } else {
            Scale::paper()
        }
    }

    /// The six library specs (kind, width, size) of Fig. 3 in paper order.
    pub fn all_specs(&self) -> Vec<LibrarySpec> {
        vec![
            LibrarySpec::new(ArithKind::Adder, 8, self.add8),
            LibrarySpec::new(ArithKind::Adder, 12, self.add12),
            LibrarySpec::new(ArithKind::Adder, 16, self.add16),
            LibrarySpec::new(ArithKind::Multiplier, 8, self.mul8),
            LibrarySpec::new(ArithKind::Multiplier, 12, self.mul12),
            LibrarySpec::new(ArithKind::Multiplier, 16, self.mul16),
        ]
    }

    /// Spec of the 8x8 multiplier library.
    pub fn mul8_spec(&self) -> LibrarySpec {
        LibrarySpec::new(ArithKind::Multiplier, 8, self.mul8)
    }

    /// Spec of the 16x16 multiplier library.
    pub fn mul16_spec(&self) -> LibrarySpec {
        LibrarySpec::new(ArithKind::Multiplier, 16, self.mul16)
    }
}

/// The workspace root: the nearest ancestor of the working directory
/// whose `Cargo.toml` declares `[workspace]` (the working directory itself
/// if none does).
pub fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|text| text.contains("[workspace]"))
        })
        .unwrap_or(&cwd)
        .to_path_buf()
}

/// Directory where result CSVs are written, created on demand:
/// `results/` at the workspace root, or `target/quick/` when `--quick` is
/// passed, so smoke runs never overwrite the committed artifacts.
pub fn results_dir() -> PathBuf {
    let quick = std::env::args().any(|a| a == "--quick");
    let dir = results_dir_for(&workspace_root(), quick);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn results_dir_for(root: &Path, quick: bool) -> PathBuf {
    root.join(if quick { "target/quick" } else { "results" })
}

/// Write rows as CSV under `results/<name>` (header first), creating the
/// parent directory.
///
/// # Errors
///
/// Returns a typed [`afp_obs::ObsError`] when the directory cannot be
/// created or the file cannot be written.
pub fn try_write_csv(
    name: &str,
    header: &[&str],
    rows: &[Vec<String>],
) -> Result<PathBuf, afp_obs::ObsError> {
    let path = results_dir().join(name);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|source| afp_obs::ObsError {
            op: "create results directory",
            path: parent.to_path_buf(),
            source,
        })?;
    }
    let io_err = |source| afp_obs::ObsError {
        op: "write csv",
        path: path.clone(),
        source,
    };
    let mut file = std::fs::File::create(&path).map_err(io_err)?;
    writeln!(file, "{}", header.join(",")).map_err(io_err)?;
    for row in rows {
        writeln!(file, "{}", row.join(",")).map_err(io_err)?;
    }
    println!("wrote {}", path.display());
    Ok(path)
}

/// [`try_write_csv`] for callers that want loud failure (the figure
/// binaries: a missing result file must abort the run).
///
/// # Panics
///
/// Panics with the typed error's message if the file cannot be written.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> PathBuf {
    try_write_csv(name, header, rows).unwrap_or_else(|e| panic!("{e}"))
}

/// Header of every perf bench's result CSV: one long-format row per
/// measured `(case, metric)`. Metric names carry their unit as a suffix
/// (`map_us`, `size_ratio`, `peak_resident`, `errors`).
pub(crate) const BENCH_HEADER: [&str; 3] = ["case", "metric", "value"];

/// Write a perf bench's `(case, metric, value)` rows to
/// `<results_dir>/<bench>.csv` and print them as a table. This is the file
/// `bench_gate` checks against `BENCH_*.json`.
///
/// # Panics
///
/// Panics with the typed error's message if the file cannot be written.
pub fn emit(bench: &str, rows: &[(&str, &str, f64)]) -> PathBuf {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|&(case, metric, value)| {
            // Two decimals at most; integral values (counts) print bare.
            let value = format!("{}", (value * 100.0).round() / 100.0);
            vec![case.to_string(), metric.to_string(), value]
        })
        .collect();
    let path = write_csv(&format!("{bench}.csv"), &BENCH_HEADER, &rows);
    println!("\n{}", render::table(&BENCH_HEADER, &rows));
    path
}

/// Format seconds as a human-readable duration (`12.3 h`, `4.5 d`, ...).
pub fn human_time(seconds: f64) -> String {
    if seconds < 120.0 {
        format!("{seconds:.1} s")
    } else if seconds < 2.0 * 3600.0 {
        format!("{:.1} min", seconds / 60.0)
    } else if seconds < 48.0 * 3600.0 {
        format!("{:.1} h", seconds / 3600.0)
    } else {
        format!("{:.1} d", seconds / 86400.0)
    }
}

/// Median-of-`runs` wall time of `iters` back-to-back calls of `f`, in
/// microseconds per call.
pub fn time_us(iters: u32, runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| afp_ord::asc(*a, *b));
    samples[samples.len() / 2]
}

/// Read the unsigned field `key` of section `section` out of a flat
/// `afp serve` `/stats` JSON document, without a JSON parser.
///
/// # Panics
///
/// Panics naming `section.key` when the section or the key is missing,
/// appears more than once, or holds no unsigned integer — a renamed or
/// duplicated key must fail loudly rather than read as 0.
pub fn stat_u64(stats: &str, section: &str, key: &str) -> u64 {
    let unique = |hay: &str, needle: &str| -> usize {
        let mut hits = hay.match_indices(needle).map(|(at, _)| at);
        match (hits.next(), hits.next()) {
            (Some(at), None) => at + needle.len(),
            (None, _) => panic!("/stats has no {section}.{key}: {stats}"),
            (Some(_), Some(_)) => panic!("/stats {section}.{key} is ambiguous: {stats}"),
        }
    };
    let body = &stats[unique(stats, &format!("\"{section}\":{{"))..];
    let body = &body[..body.find('}').unwrap_or(body.len())];
    let value = &body[unique(body, &format!("\"{key}\":"))..];
    let digits: String = value.chars().take_while(char::is_ascii_digit).collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("/stats {section}.{key} is not an unsigned integer: {stats}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let p = Scale::paper();
        let q = Scale::quick();
        assert!(q.mul8 < p.mul8);
        assert_eq!(p.mul8, 4494, "the paper's 8x8 multiplier count");
        assert_eq!(p.all_specs().len(), 6);
    }

    const STATS: &str = "{\"version\":1,\"stages\":[],\"serve\":{\"requests_served\":7},\
        \"estimate\":{\"model_cache_hits\":3},\"cache\":{\"hits\":5,\"misses\":2},\
        \"runtime\":{\"asic_synths\":4}}";

    #[test]
    fn stat_u64_reads_section_qualified_keys() {
        assert_eq!(stat_u64(STATS, "cache", "hits"), 5);
        assert_eq!(stat_u64(STATS, "estimate", "model_cache_hits"), 3);
        assert_eq!(stat_u64(STATS, "runtime", "asic_synths"), 4);
    }

    #[test]
    #[should_panic(expected = "/stats has no cache.entries")]
    fn stat_u64_panics_on_a_missing_key() {
        stat_u64(STATS, "cache", "entries");
    }

    #[test]
    #[should_panic(expected = "/stats has no serve.asic_synths")]
    fn stat_u64_does_not_fall_through_to_another_section() {
        stat_u64(STATS, "serve", "asic_synths");
    }

    #[test]
    #[should_panic(expected = "/stats cache.hits is ambiguous")]
    fn stat_u64_panics_on_an_ambiguous_key() {
        stat_u64("{\"cache\":{\"hits\":1,\"hits\":2}}", "cache", "hits");
    }

    #[test]
    #[should_panic(expected = "/stats runtime.asic_synths is ambiguous")]
    fn stat_u64_panics_on_a_duplicated_section() {
        stat_u64(
            &format!("{STATS},\"runtime\":{{}}"),
            "runtime",
            "asic_synths",
        );
    }

    #[test]
    fn quick_output_never_resolves_inside_results() {
        let root = Path::new("/repo");
        let canonical = results_dir_for(root, false);
        assert_eq!(canonical, root.join("results"));
        let quick = results_dir_for(root, true);
        assert!(!quick.starts_with(&canonical), "{}", quick.display());
        assert!(
            quick.starts_with(root.join("target")),
            "{}",
            quick.display()
        );
    }

    #[test]
    fn emit_writes_long_format_rows() {
        let p = emit("test_emit", &[("a", "n", 64.0), ("a", "t_us", 4.4321)]);
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "case,metric,value\na,n,64\na,t_us,4.43\n");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn human_time_ranges() {
        assert_eq!(human_time(10.0), "10.0 s");
        assert_eq!(human_time(600.0), "10.0 min");
        assert_eq!(human_time(7200.0), "2.0 h");
        assert_eq!(human_time(86400.0 * 82.4), "82.4 d");
    }

    #[test]
    fn csv_round_trip() {
        let p = write_csv(
            "test_roundtrip.csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()]],
        );
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn try_write_csv_creates_nested_dirs_and_types_errors() {
        // A name with a subdirectory: the parent is created on demand.
        let p = try_write_csv("test_nested/deep.csv", &["x"], &[vec!["1".into()]]).unwrap();
        assert_eq!(std::fs::read_to_string(&p).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
        // A path *under a file* cannot be created: typed error, no panic.
        let blocker = write_csv("test_blocker.csv", &["x"], &[]);
        let err = try_write_csv("test_blocker.csv/child.csv", &["x"], &[]).unwrap_err();
        assert!(err.to_string().contains("cannot"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
        let _ = std::fs::remove_file(blocker);
    }
}

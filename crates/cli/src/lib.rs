//! Implementation of the `afp` command-line tool.
//!
//! Subcommands (see `afp help`):
//!
//! * `library`  — enumerate an approximate-circuit library to Verilog + CSV
//! * `synth`    — ASIC/FPGA cost report for a structural Verilog file
//! * `error`    — behavioural error metrics of a circuit vs its golden
//!   function
//! * `map`      — LUT-map a Verilog file, verify equivalence, emit the
//!   mapped LUT netlist
//! * `flow`     — run the full ApproxFPGAs methodology on a library
//! * `serve`    — long-running characterization service (HTTP/1.1,
//!   keep-alive, optional `.afpm` model zoos for `GET /estimate`)
//! * `zoo`      — train a model zoo and persist it as a `.afpm` container
//! * `cache`    — inspect a characterization cache directory
//!
//! The parsing layer is deliberately dependency-free: flags are
//! `--name value` pairs, and each subcommand takes only the flags listed
//! for it — any other flag is an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use afp_circuits::{build_library, ArithCircuit, ArithKind, LibrarySource, LibrarySpec};
use afp_netlist::Netlist;
use afp_runtime::ReportSection;

/// A parsed command line: subcommand, flags and positional arguments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cli {
    /// The subcommand (first argument).
    pub command: String,
    /// `--flag value` pairs.
    pub flags: HashMap<String, String>,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
}

impl Cli {
    /// Parse raw arguments (without the program name).
    pub fn parse(args: &[String]) -> Cli {
        let mut cli = Cli {
            command: args.first().cloned().unwrap_or_default(),
            ..Cli::default()
        };
        let mut i = 1usize;
        while i < args.len() {
            if let Some(name) = args[i].strip_prefix("--") {
                if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                    cli.flags.insert(name.to_string(), args[i + 1].clone());
                    i += 2;
                } else {
                    cli.flags.insert(name.to_string(), "true".to_string());
                    i += 1;
                }
            } else {
                cli.positional.push(args[i].clone());
                i += 1;
            }
        }
        cli
    }

    /// A flag value, or `default` when absent.
    pub fn flag_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    fn usize_flag(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got `{v}`")),
        }
    }

    fn kind_flag(&self) -> Result<ArithKind, String> {
        match self.flag_or("kind", "add") {
            "add" | "adder" => Ok(ArithKind::Adder),
            "mul" | "mult" | "multiplier" => Ok(ArithKind::Multiplier),
            other => Err(format!("--kind must be add|mul, got `{other}`")),
        }
    }

    /// `--width` (default 8), inside `kind`'s operand-width domain.
    fn width_flag(&self, kind: ArithKind) -> Result<usize, String> {
        let width = self.usize_flag("width", 8)?;
        kind.check_width(width)
            .map_err(|e| format!("--width: {e}"))?;
        Ok(width)
    }

    /// A fraction flag in `(0, 1]`, or `default` when absent.
    fn fraction_flag(&self, name: &str, default: f64) -> Result<f64, String> {
        let Some(v) = self.flags.get(name) else {
            return Ok(default);
        };
        match v.parse::<f64>() {
            Ok(f) if f > 0.0 && f <= 1.0 => Ok(f),
            _ => Err(format!("--{name} expects a fraction in (0, 1], got `{v}`")),
        }
    }
}

/// The flags each subcommand takes, space-separated. [`run`] rejects any
/// other flag, so a mistyped or misplaced flag is an error instead of a
/// silent default.
const FLAGS: [(&str, &str); 10] = [
    ("library", "kind width size out"),
    ("synth", "target"),
    ("error", "kind width"),
    ("map", "out"),
    (
        "flow",
        "kind width size fronts subset threads no-cache cache-dir target all-targets library \
         paper-full paper-scale shard report report-out report-normalized",
    ),
    (
        "serve",
        "addr socket threads queue-depth target-default cache-dir models estimate-only \
         keepalive-requests idle-timeout-ms",
    ),
    (
        "zoo",
        "save kind width size target models subset tolerance threads",
    ),
    ("cache", ""),
    ("targets", ""),
    ("help", ""),
];

/// Reject the first flag (in name order) that `cli.command` does not
/// take, naming the subcommands that do take it.
fn check_flags(cli: &Cli) -> Result<(), String> {
    let takes = |flags: &str, flag: &str| flags.split(' ').any(|f| f == flag);
    let Some(&(_, own)) = FLAGS.iter().find(|(command, _)| *command == cli.command) else {
        // An unknown command is the dispatcher's error to report.
        return Ok(());
    };
    let unknown = cli.flags.keys().filter(|flag| !takes(own, flag)).min();
    let Some(flag) = unknown else {
        return Ok(());
    };
    if let Some(hint) = flag_hint(&cli.command, flag) {
        return Err(hint);
    }
    let takers: Vec<_> = FLAGS
        .iter()
        .filter(|(_, flags)| takes(flags, flag))
        .map(|(command, _)| format!("`afp {command}`"))
        .collect();
    let (command, takers) = (&cli.command, takers.join(", "));
    Err(if takers.is_empty() {
        format!("unknown flag --{flag} for `afp {command}` (see `afp help`)")
    } else {
        format!("--{flag} is not an `afp {command}` flag; it is taken by {takers}")
    })
}

/// Tailored messages for flags that were removed or are easily confused.
fn flag_hint(command: &str, flag: &str) -> Option<String> {
    match (command, flag) {
        (_, "cache-format") => Some(format!(
            "--cache-format was removed: the binary store ({}) is the only cache format; \
             a leftover characterization.csv is ignored and the cache rebuilds",
            approxfpgas::cache::STORE_FILE
        )),
        ("serve", "target") => Some(
            "`afp serve` takes the target per request (?target=NAME); use --target-default \
             for the fallback profile"
                .to_string(),
        ),
        _ => None,
    }
}

/// Top-level dispatch. Returns the text to print, or an error message.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, bad flags, I/O
/// failures and parse errors.
pub fn run(args: &[String]) -> Result<String, String> {
    let cli = Cli::parse(args);
    check_flags(&cli)?;
    match cli.command.as_str() {
        "library" => cmd_library(&cli),
        "synth" => cmd_synth(&cli),
        "error" => cmd_error(&cli),
        "map" => cmd_map(&cli),
        "flow" => cmd_flow(&cli),
        "serve" => cmd_serve(&cli),
        "zoo" => cmd_zoo(&cli),
        "cache" => cmd_cache(&cli),
        "targets" => cmd_targets(&cli),
        "help" | "" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

/// The help text.
pub fn usage() -> String {
    let text = "afp — ApproxFPGAs reproduction CLI

USAGE:
  afp library --kind add|mul --width W --size N [--out DIR]
      Enumerate an approximate-circuit library; write one Verilog file per
      circuit plus library.csv when --out is given.
  afp synth FILE.v|FILE.bristol [--target asic|fpga|both]
      Parse a circuit (structural Verilog, or Bristol fashion for
      .bristol files) and report synthesis cost.
  afp error FILE.v|FILE.bristol --kind add|mul --width W
      Behavioural error metrics against the exact golden function.
  afp map FILE.v|FILE.bristol [--out MAPPED.v]
      LUT-map the circuit, verify LUT-network equivalence, optionally
      write the mapped netlist as LUT primitives.
  afp flow --kind add|mul --width W --size N [--fronts K] [--subset F]
           [--threads T] [--no-cache] [--cache-dir DIR] [--target NAME]
           [--all-targets] [--library FILE.afps] [--paper-full]
           [--paper-scale F] [--shard N] [--report table|json|none]
           [--report-out PATH] [--report-normalized]
      Run the full ApproxFPGAs methodology and print the summary.
      --threads 0 (default) uses every core; results are identical for
      any thread count. --library streams a persisted .afps corpus
      shard-at-a-time instead of generating a library (at most --shard
      circuits resident at once; default 1024); --paper-full generates
      and persists the paper's full-scale six-library corpus (44,940
      8x8 multipliers and five smaller libraries) at --library's path
      (default results/paper_full.afps) and streams it — --paper-scale
      shrinks every library for smoke runs. A missing, torn or
      foreign-version corpus is a loud error, never a smaller run.
      --cache-dir persists the characterization cache across runs as
      the binary store DIR/characterization.afps (an unusable directory
      is an error) and keeps each trained zoo in DIR/zoo-<key>.afpm,
      named after its training inputs, for re-runs to load (oldest
      deleted past 64 MiB). --no-cache disables memoization (not with
      --cache-dir). --target retargets the FPGA model to a named device
      profile (see `afp targets`; default lut6-7series);
      --all-targets sweeps every registry profile and prints a
      per-target comparison instead of one run's summary. --report table
      (default) appends a per-stage timing table; --report json writes
      the structured run report to --report-out (default
      results/run_report.json) and prints only the JSON document;
      --report-normalized strips the nondeterministic surfaces (stage
      timings, steals, mapper reuses, shard shape) from the JSON so
      documents from different runs, machines, shard sizes or library
      sources compare byte-for-byte; --report none skips tracing
      entirely.
  afp serve [--addr HOST:PORT] [--socket PATH] [--threads T]
            [--queue-depth N] [--target-default NAME] [--cache-dir DIR]
            [--models ZOO.afpm[,ZOO2.afpm..]] [--estimate-only]
            [--keepalive-requests N] [--idle-timeout-ms MS]
      Run the characterization service: a long-lived daemon answering
      HTTP/1.1 characterization requests (GET /characterize?spec=
      mul8:trunc:3&target=NAME, POST /characterize with a Bristol body,
      POST /characterize/batch with an .afps body, GET /estimate?spec=..
      for the model fast path, GET /stats, POST /shutdown). Connections
      are keep-alive: one socket serves many (optionally pipelined)
      requests, bounded by --keepalive-requests (default 1000) per
      connection and --idle-timeout-ms (default 5000) between requests;
      `Connection: close` is honored per request. Identical concurrent
      requests coalesce into one in-flight characterization; connections
      beyond --queue-depth (default 64) are answered 429 instead of
      queueing unboundedly; shutdown drains every accepted request —
      including pipelined requests already received — before exiting.
      --models loads persisted `.afpm` zoos (see `afp zoo train`) so
      GET /estimate answers from the trained models in microseconds with
      zero synthesis; a request no zoo covers falls back to full
      characterization, or is answered 404 under --estimate-only. --addr
      (default 127.0.0.1:8080) and --socket (Unix-domain) are mutually
      exclusive; --target-default (default lut6-7series) applies when a
      request omits ?target=; --cache-dir shares the warm tier with
      `afp flow`.
  afp zoo train --save MODELS.afpm [--kind add|mul] [--width W]
          [--size N] [--target NAME] [--models ML1,ML14,..] [--subset F]
          [--tolerance T] [--threads T]
      Run the flow on a library, training the model zoo on a --subset
      fraction (default 0.5), persist the zoo as a sealed `.afpm`
      container at --save, then reload it and verify the round trip is
      byte-exact. --models picks Table I models by label (default: all
      18); --target (default lut6-7series) fixes the FPGA ground truth
      the models learn; --tolerance (default 0.01, in [0, 1)) is the
      fidelity pair tolerance the models are ranked by.
      `afp serve --models MODELS.afpm` serves GET /estimate from the
      result.
  afp cache stats DIR
      Describe the characterization cache in DIR: entries, bytes and
      format version of the binary store.
  afp targets [NAME]
      List the named device profiles the flow can target, or describe
      one profile in detail.
  afp help
      This text.
"
    .to_string();
    let [add, mul] = [ArithKind::Adder, ArithKind::Multiplier].map(|kind| kind.max_width());
    text + &format!(
        "
Each command takes only the flags listed for it; any other flag is an
error. Operand widths (--width W) are 1..={add} for adders and 1..={mul} for
multipliers.
"
    )
}

fn cmd_library(cli: &Cli) -> Result<String, String> {
    let kind = cli.kind_flag()?;
    let width = cli.width_flag(kind)?;
    let size = cli.usize_flag("size", 100)?;
    let spec = LibrarySpec::new(kind, width, size);
    let lib = build_library(&spec);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "generated {} circuits ({}{}u)",
        lib.len(),
        kind.mnemonic(),
        width
    );
    if let Some(dir) = cli.flags.get("out") {
        let dir = Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        let mut csv = String::from("name,gates,depth\n");
        for c in &lib {
            let path = dir.join(format!("{}.v", c.name()));
            std::fs::write(&path, afp_netlist::export::to_verilog(c.netlist()))
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            let _ = writeln!(
                csv,
                "{},{},{}",
                c.name(),
                c.netlist().num_logic_gates(),
                afp_netlist::analyze::depth(c.netlist())
            );
        }
        std::fs::write(dir.join("library.csv"), csv)
            .map_err(|e| format!("cannot write library.csv: {e}"))?;
        let _ = writeln!(
            out,
            "wrote {} Verilog files + library.csv to {dir:?}",
            lib.len()
        );
    } else {
        for c in lib.iter().take(10) {
            let _ = writeln!(
                out,
                "  {:<30} {:>4} gates  depth {}",
                c.name(),
                c.netlist().num_logic_gates(),
                afp_netlist::analyze::depth(c.netlist())
            );
        }
        if lib.len() > 10 {
            let _ = writeln!(
                out,
                "  ... ({} more; use --out DIR to export)",
                lib.len() - 10
            );
        }
    }
    Ok(out)
}

fn load_netlist(cli: &Cli) -> Result<Netlist, String> {
    let path = cli
        .positional
        .first()
        .ok_or("expected a circuit file argument (.v or .bristol)")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if path.ends_with(".bristol") {
        afp_netlist::bristol::from_bristol(&text).map_err(|e| format!("{path}: {e}"))
    } else {
        afp_netlist::parse::from_verilog(&text).map_err(|e| format!("{path}: {e}"))
    }
}

fn cmd_synth(cli: &Cli) -> Result<String, String> {
    let netlist = load_netlist(cli)?;
    let target = cli.flag_or("target", "both");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} inputs, {} outputs, {} gates",
        netlist.name(),
        netlist.num_inputs(),
        netlist.num_outputs(),
        netlist.num_logic_gates()
    );
    if target == "asic" || target == "both" {
        let r = afp_asic::synthesize_asic(&netlist, &afp_asic::AsicConfig::default());
        let _ = writeln!(
            out,
            "ASIC: {:.2} um2, {:.3} ns, {:.4} mW ({} cells)",
            r.area_um2, r.delay_ns, r.power_mw, r.cells
        );
    }
    if target == "fpga" || target == "both" {
        let r = afp_fpga::synthesize_fpga(&netlist, &afp_fpga::FpgaConfig::default());
        let _ = writeln!(
            out,
            "FPGA: {} LUTs, {} slices, {} levels, {:.3} ns, {:.3} mW (est. synth {:.0} s)",
            r.luts, r.slices, r.depth_levels, r.delay_ns, r.power_mw, r.synth_time_s
        );
    }
    if !(target == "asic" || target == "fpga" || target == "both") {
        return Err(format!("--target must be asic|fpga|both, got `{target}`"));
    }
    Ok(out)
}

fn cmd_error(cli: &Cli) -> Result<String, String> {
    let netlist = load_netlist(cli)?;
    let kind = cli.kind_flag()?;
    let width = cli.width_flag(kind)?;
    let circuit = ArithCircuit::try_new(kind, width, netlist).map_err(|e| e.to_string())?;
    let m = afp_error::analyze(&circuit, &afp_error::ErrorConfig::default());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} vs exact {}{}u:",
        circuit.name(),
        kind.mnemonic(),
        width
    );
    let _ = writeln!(
        out,
        "  samples:     {} ({})",
        m.samples,
        if m.exhaustive {
            "exhaustive"
        } else {
            "stratified"
        }
    );
    let _ = writeln!(out, "  MED:         {:.6}", m.med);
    let _ = writeln!(out, "  MAE:         {:.3}", m.mae);
    let _ = writeln!(out, "  WCE:         {}", m.wce);
    let _ = writeln!(out, "  MRE:         {:.4}", m.mre);
    let _ = writeln!(out, "  error prob.: {:.4}", m.error_prob);
    let _ = writeln!(out, "  bias:        {:+.3}", m.bias);
    Ok(out)
}

fn cmd_map(cli: &Cli) -> Result<String, String> {
    let netlist = load_netlist(cli)?;
    let cfg = afp_fpga::FpgaConfig::default();
    let mapping = afp_fpga::map::map_luts(&netlist, &cfg);
    let programmed = afp_fpga::luts::program_luts(&netlist, &mapping);
    let mismatches = afp_fpga::luts::verify_mapping(&netlist, &programmed, 512, 0xAF9);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} LUTs, {} levels, verification {} (512 random vectors)",
        netlist.name(),
        mapping.luts.len(),
        mapping.depth,
        if mismatches == 0 { "PASSED" } else { "FAILED" }
    );
    if mismatches != 0 {
        return Err(format!(
            "mapping verification failed on {mismatches} vectors"
        ));
    }
    if let Some(path) = cli.flags.get("out") {
        std::fs::write(path, afp_fpga::luts::to_lut_verilog(&netlist, &programmed))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "wrote mapped netlist to {path}");
    }
    Ok(out)
}

fn cmd_targets(cli: &Cli) -> Result<String, String> {
    let mut out = String::new();
    if let Some(name) = cli.positional.first() {
        let p = afp_fpga::target::resolve(name).map_err(|e| e.to_string())?;
        let _ = writeln!(out, "{}: {}", p.name, p.description);
        let _ = writeln!(out, "  LUT inputs (K):    {}", p.arch.lut_inputs);
        let _ = writeln!(out, "  LUTs per slice:    {}", p.arch.luts_per_slice);
        let _ = writeln!(out, "  LUT delay:         {:.3} ns", p.arch.lut_delay_ns);
        let _ = writeln!(
            out,
            "  routing delay:     {:.3} ns base + {:.3} ns/ln(1+fanout)",
            p.arch.route_base_ns, p.arch.route_fanout_ns
        );
        let _ = writeln!(
            out,
            "  dynamic energy:    {:.2} pJ/LUT toggle + {:.2} pJ/route toggle",
            p.arch.lut_energy_pj, p.arch.route_energy_pj
        );
        let _ = writeln!(
            out,
            "  static power:      {:.1} uW/LUT",
            p.arch.lut_static_uw
        );
        let _ = writeln!(out, "  default clock:     {:.0} MHz", p.clock_mhz);
        let _ = writeln!(out, "  P&R jitter:        +/-{:.0}%", p.pnr_jitter * 100.0);
        if p.name == afp_fpga::DEFAULT_TARGET {
            let _ = writeln!(
                out,
                "  (default target; historical goldens are pinned to it)"
            );
        }
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "{:<18} {:>2} {:>9} {:>11} {:>9}  description",
        "name", "K", "LUT/slice", "clock [MHz]", "jitter"
    );
    for p in afp_fpga::target::registry() {
        let _ = writeln!(
            out,
            "{:<18} {:>2} {:>9} {:>11.0} {:>8.0}%  {}{}",
            p.name,
            p.arch.lut_inputs,
            p.arch.luts_per_slice,
            p.clock_mhz,
            p.pnr_jitter * 100.0,
            p.description,
            if p.name == afp_fpga::DEFAULT_TARGET {
                " [default]"
            } else {
                ""
            }
        );
    }
    let _ = writeln!(
        out,
        "\nuse `afp targets NAME` for details, `afp flow --target NAME` to retarget the flow"
    );
    Ok(out)
}

/// Default location of the generated paper-full corpus (`afp flow
/// --paper-full` without `--library`).
pub const PAPER_FULL_CORPUS: &str = "results/paper_full.afps";

/// Resolve the `--library` / `--paper-full` flags into a streamed
/// [`LibrarySource`], generating and persisting the paper-full corpus
/// first when asked. Returns the source plus human-readable notes about
/// corpus generation (empty when nothing was generated).
fn stored_source(cli: &Cli, threads: usize) -> Result<(Option<LibrarySource>, String), String> {
    let library_path = cli.flags.get("library").map(std::path::PathBuf::from);
    let paper_full = cli.flag_or("paper-full", "false") == "true";
    if !paper_full {
        if cli.flags.contains_key("paper-scale") {
            return Err("--paper-scale only applies together with --paper-full".to_string());
        }
        return Ok((library_path.map(LibrarySource::Stored), String::new()));
    }
    let scale = cli.fraction_flag("paper-scale", 1.0)?;
    let path = library_path.unwrap_or_else(|| std::path::PathBuf::from(PAPER_FULL_CORPUS));
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    let rt = afp_runtime::Runtime::new(threads);
    let specs = afp_circuits::paper_full_specs(scale);
    let mut notes = String::new();
    match afp_circuits::ensure_library(&path, &specs, &rt) {
        Ok(Some(summary)) => {
            let _ = writeln!(
                notes,
                "generated paper-full corpus at {} (scale {scale}): {} circuits written, \
                 {} structural duplicates elided",
                path.display(),
                summary.written,
                summary.deduplicated
            );
        }
        Ok(None) => {
            let _ = writeln!(notes, "reusing existing corpus {}", path.display());
        }
        Err(e) => return Err(format!("cannot prepare {}: {e}", path.display())),
    }
    Ok((Some(LibrarySource::Stored(path)), notes))
}

fn cmd_flow(cli: &Cli) -> Result<String, String> {
    let kind = cli.kind_flag()?;
    let width = cli.width_flag(kind)?;
    let size = cli.usize_flag("size", 300)?;
    let fronts = cli.usize_flag("fronts", 3)?;
    let threads = cli.usize_flag("threads", 0)?;
    let shard = cli.usize_flag("shard", approxfpgas::DEFAULT_SHARD_CIRCUITS)?;
    if shard == 0 {
        return Err(format!(
            "--shard 0 is not a valid shard size; pass --shard N with N >= 1, or omit \
             the flag for the {}-circuit default",
            approxfpgas::DEFAULT_SHARD_CIRCUITS
        ));
    }
    let (source, corpus_notes) = stored_source(cli, threads)?;
    if source.is_some() {
        for generated_only in ["kind", "width", "size"] {
            if cli.flags.contains_key(generated_only) {
                return Err(format!(
                    "--{generated_only} describes a generated library; it cannot be combined \
                     with --library/--paper-full (the corpus already fixes the circuits)"
                ));
            }
        }
    }
    let subset = cli.fraction_flag("subset", 0.1)?;
    let use_cache = cli.flag_or("no-cache", "false") != "true";
    let cache_dir = cli.flags.get("cache-dir").map(std::path::PathBuf::from);
    let report_normalized = cli.flag_or("report-normalized", "false") == "true";
    let report_mode = cli.flag_or("report", "table");
    if !matches!(report_mode, "table" | "json" | "none") {
        return Err(format!(
            "--report must be table|json|none, got `{report_mode}`"
        ));
    }
    let report_out = std::path::PathBuf::from(cli.flag_or("report-out", "results/run_report.json"));
    let all_targets = cli.flag_or("all-targets", "false") == "true";
    let target_name = cli.flag_or("target", afp_fpga::DEFAULT_TARGET).to_string();
    if all_targets && cli.flags.contains_key("target") {
        return Err("--target and --all-targets are mutually exclusive".to_string());
    }
    if !use_cache && cache_dir.is_some() {
        return Err("--no-cache and --cache-dir are mutually exclusive".to_string());
    }
    if all_targets && source.is_some() {
        return Err(
            "--all-targets sweeps generated libraries; it cannot be combined with \
             --library/--paper-full"
                .to_string(),
        );
    }
    let profile = afp_fpga::target::resolve(&target_name).map_err(|e| e.to_string())?;
    let spec = LibrarySpec::new(kind, width, size);
    let mut config = approxfpgas::FlowConfig {
        fronts,
        subset_fraction: subset,
        threads,
        shard_circuits: shard,
        use_cache,
        cache_dir,
        ..approxfpgas::FlowConfig::default()
    };
    config.fpga = profile.apply(&config.fpga);
    if all_targets {
        return cmd_flow_all_targets(&config, &spec);
    }
    let flow = approxfpgas::Flow::try_new(config.clone())
        .map_err(|e| format!("cannot open --cache-dir: {e}"))?;
    let recorder = if report_mode == "none" {
        afp_obs::Recorder::disabled()
    } else {
        afp_obs::Recorder::enabled()
    };
    let source = source.unwrap_or(LibrarySource::Generated(spec));
    let outcome = flow
        .run_source_traced(&source, &recorder)
        .map_err(|e| format!("cannot stream the circuit corpus: {e}"))?;
    let report = approxfpgas::run_report(&config, &outcome, &recorder);
    // The document `--report-out` receives in every mode, and json mode
    // prints; the stage table always shows the raw report.
    let normalized = report_normalized.then(|| approxfpgas::report::normalized(&report));
    let document = normalized.as_ref().unwrap_or(&report);
    if report_mode == "json" {
        // Stdout carries the JSON document and nothing else, so the
        // output pipes straight into `python3 -m json.tool`, `jq`, etc.
        document
            .write_json(&report_out)
            .map_err(|e| e.to_string())?;
        let mut doc = document.to_json();
        doc.push('\n');
        return Ok(doc);
    }
    let mut out = String::new();
    out.push_str(&corpus_notes);
    match &source {
        LibrarySource::Stored(path) => {
            let _ = writeln!(
                out,
                "corpus {} x{}: synthesized {}/{} circuits",
                path.display(),
                outcome.records.len(),
                outcome.time.flow_count,
                outcome.time.exhaustive_count
            );
        }
        LibrarySource::Generated(_) => {
            let _ = writeln!(
                out,
                "library {}{}u x{}: synthesized {}/{} circuits",
                kind.mnemonic(),
                width,
                outcome.records.len(),
                outcome.time.flow_count,
                outcome.time.exhaustive_count
            );
        }
    }
    let _ = writeln!(
        out,
        "target: {} (K={}, {:.0} MHz)",
        config.fpga.target, config.fpga.arch.lut_inputs, config.fpga.clock_mhz
    );
    let _ = writeln!(
        out,
        "exploration: {:.1} h flow vs {:.1} h exhaustive ({})",
        outcome.time.flow_s() / 3600.0,
        outcome.time.exhaustive_s / 3600.0,
        afp_obs::fmt_ratio(outcome.time.speedup())
    );
    for (param, models) in &outcome.selected_models {
        let names: Vec<&str> = models.iter().map(|m| m.label()).collect();
        let _ = writeln!(
            out,
            "{param:?}: models [{}], coverage {:.0}%, front size {}",
            names.join(", "),
            100.0 * outcome.coverage[param],
            outcome.final_fronts[param].len()
        );
    }
    if outcome.runtime.cache_write_errors > 0 {
        let _ = writeln!(
            out,
            "warning: {} cache entries were not persisted to disk (disk append failed; \
             see cache.write_errors in the report)",
            outcome.runtime.cache_write_errors
        );
        if let Some(err) = &outcome.cache_last_error {
            let _ = writeln!(out, "warning: last cache write error: {err}");
        }
    }
    // Every counter reaches the terminal through the run report's
    // sections; `--report none` only leaves out the stage table.
    if report_mode == "table" {
        let _ = writeln!(out, "\nper-stage timing:");
        out.push_str(&report.render_table());
        if cli.flags.contains_key("report-out") {
            let written = document
                .write_json(&report_out)
                .map_err(|e| e.to_string())?;
            let _ = writeln!(out, "wrote run report to {}", written.display());
        }
    } else {
        out.push_str(&report.render_sections());
    }
    Ok(out)
}

fn cmd_serve(cli: &Cli) -> Result<String, String> {
    if cli.flags.contains_key("addr") && cli.flags.contains_key("socket") {
        return Err("--addr and --socket are mutually exclusive; pick one listener".to_string());
    }
    let threads = cli.usize_flag("threads", 0)?;
    let queue_depth = cli.usize_flag("queue-depth", 64)?;
    let default_target = cli
        .flag_or("target-default", afp_fpga::DEFAULT_TARGET)
        .to_string();
    let cache_dir = cli.flags.get("cache-dir").map(std::path::PathBuf::from);
    let models: Vec<std::path::PathBuf> = cli
        .flags
        .get("models")
        .map(|raw| {
            raw.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(std::path::PathBuf::from)
                .collect()
        })
        .unwrap_or_default();
    let estimate_only = cli.flag_or("estimate-only", "false") == "true";
    let keepalive_requests = cli.usize_flag("keepalive-requests", 1000)?;
    let idle_timeout_ms = cli.usize_flag("idle-timeout-ms", 5000)?;
    let bind = match cli.flags.get("socket") {
        Some(path) => {
            #[cfg(unix)]
            {
                afp_serve::Bind::Unix(std::path::PathBuf::from(path))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("--socket requires a Unix platform".to_string());
            }
        }
        None => afp_serve::Bind::Tcp(cli.flag_or("addr", "127.0.0.1:8080").to_string()),
    };
    let model_count = models.len();
    let handle = afp_serve::serve(afp_serve::ServeConfig {
        bind,
        threads,
        queue_depth,
        default_target: default_target.clone(),
        cache_dir,
        models,
        estimate_only,
        keepalive_requests,
        keepalive_idle: std::time::Duration::from_millis(idle_timeout_ms as u64),
    })
    .map_err(|e| format!("cannot start server: {e}"))?;
    // Announce the endpoint eagerly — `run` only prints on exit, and the
    // daemon blocks here until something POSTs /shutdown.
    let models_note = if model_count > 0 {
        format!("; {model_count} model zoo(s) loaded for /estimate")
    } else {
        String::new()
    };
    match handle.addr() {
        Some(addr) => println!(
            "afp serve: listening on http://{addr} (default target {default_target}\
             {models_note}; POST /shutdown to stop)"
        ),
        None => println!(
            "afp serve: listening on {} (default target {default_target}{models_note}; \
             POST /shutdown to stop)",
            cli.flag_or("socket", "<socket>")
        ),
    }
    Ok(drained_summary(&handle.join()))
}

/// `afp serve`'s exit summary: one `serve drained: [section] ...` line per
/// counter section the daemon moves, straight from the registry.
fn drained_summary(snap: &afp_runtime::CounterSnapshot) -> String {
    let mut report = afp_obs::RunReport::new();
    for section in [
        ReportSection::Serve,
        ReportSection::Estimate,
        ReportSection::Runtime,
        ReportSection::Cache,
    ] {
        report.push_section(approxfpgas::report::counter_section(section, snap));
    }
    report
        .render_sections()
        .lines()
        .map(|line| format!("serve drained: {line}\n"))
        .collect()
}

/// `afp zoo` — train and persist model zoos (`.afpm` containers).
fn cmd_zoo(cli: &Cli) -> Result<String, String> {
    match cli.positional.first().map(String::as_str) {
        Some("train") => cmd_zoo_train(cli),
        Some(other) => Err(format!(
            "unknown `afp zoo` subcommand `{other}` (expected `train`)"
        )),
        None => Err("usage: afp zoo train --save MODELS.afpm (see `afp help`)".to_string()),
    }
}

/// Parse a comma-separated `--models ML1,ML14` list of Table I labels.
fn parse_model_list(raw: &str) -> Result<Vec<afp_ml::MlModelId>, String> {
    raw.split(',')
        .map(str::trim)
        .filter(|tok| !tok.is_empty())
        .map(|tok| {
            afp_ml::MlModelId::ALL
                .iter()
                .copied()
                .find(|m| m.label().eq_ignore_ascii_case(tok))
                .ok_or_else(|| format!("unknown model `{tok}` (expected ML1..ML18)"))
        })
        .collect()
}

fn cmd_zoo_train(cli: &Cli) -> Result<String, String> {
    use approxfpgas::record::FpgaParam;
    let Some(save) = cli.flags.get("save") else {
        return Err("--save PATH.afpm is required: the persisted zoo is what \
             `afp serve --models` loads"
            .to_string());
    };
    let kind = cli.kind_flag()?;
    let width = cli.width_flag(kind)?;
    let size = cli.usize_flag("size", 300)?;
    let threads = cli.usize_flag("threads", 0)?;
    let subset = cli.fraction_flag("subset", 0.5)?;
    let raw_tolerance = cli.flag_or("tolerance", "0.01");
    let tolerance = match raw_tolerance.parse::<f64>() {
        Ok(t) if (0.0..1.0).contains(&t) => t,
        _ => {
            return Err(format!(
                "--tolerance expects a fraction in [0, 1), got `{raw_tolerance}`"
            ))
        }
    };
    let target_name = cli.flag_or("target", afp_fpga::DEFAULT_TARGET).to_string();
    let profile = afp_fpga::target::resolve(&target_name).map_err(|e| e.to_string())?;
    let models = match cli.flags.get("models") {
        Some(raw) => parse_model_list(raw)?,
        None => afp_ml::MlModelId::ALL.to_vec(),
    };
    if models.is_empty() {
        return Err("--models lists no models; drop the flag to train all 18".to_string());
    }

    let config = approxfpgas::FlowConfig {
        subset_fraction: subset,
        min_subset: 24,
        seed: 7,
        models: models.clone(),
        fidelity_tolerance: tolerance,
        threads,
        fpga: profile.apply(&afp_fpga::FpgaConfig::default()),
        ..approxfpgas::FlowConfig::default()
    };
    let outcome = approxfpgas::Flow::new(config)
        .run_source(&LibrarySource::Generated(LibrarySpec::new(
            kind, width, size,
        )))
        .map_err(|e| format!("cannot build the library: {e}"))?;
    let (records, zoo) = (&outcome.records, &outcome.zoo);

    let path = Path::new(save);
    let coverage = vec![(kind, width)];
    let saved_count = approxfpgas::save_zoo(path, zoo, &target_name, &coverage)
        .map_err(|e| format!("cannot save zoo to {}: {e}", path.display()))?;
    // Reload and prove the round trip is exact: every persisted model
    // must reproduce its in-memory estimates bit-for-bit.
    let loaded = approxfpgas::load_zoo(path)
        .map_err(|e| format!("saved zoo at {} fails to reload: {e}", path.display()))?;
    let layout = zoo.layout();
    let mut verified = 0usize;
    for rec in records.iter().take(16) {
        let features = approxfpgas::record::extract_features(rec, layout);
        for &model in &models {
            for param in FpgaParam::ALL {
                let (Some(a), Some(b)) = (
                    zoo.estimate_row(model, param, &features),
                    loaded.zoo.estimate_row(model, param, &features),
                ) else {
                    continue;
                };
                if a.to_bits() != b.to_bits() {
                    return Err(format!(
                        "round-trip drift: {} / {} differs after save/load of {}",
                        model.label(),
                        param.label(),
                        path.display()
                    ));
                }
                verified += 1;
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trained {} model(s) x {} params on {}{}u x{} (subset {}: {} train / {} validate, target {})",
        models.len(),
        FpgaParam::ALL.len(),
        kind.mnemonic(),
        width,
        records.len(),
        outcome.subset.len(),
        outcome.train.len(),
        outcome.validate.len(),
        target_name
    );
    for param in FpgaParam::ALL {
        if let Some(best) = loaded.zoo.top_models(param, 1, true).first() {
            let _ = writeln!(out, "  best {}: {}", param.label(), best.label());
        }
    }
    let _ = writeln!(
        out,
        "saved {saved_count} model records to {} (sealed .afpm, coverage {}{}u)",
        path.display(),
        kind.mnemonic(),
        width
    );
    let _ = writeln!(
        out,
        "round-trip verified: {verified} estimates byte-identical"
    );
    Ok(out)
}

fn cmd_flow_all_targets(
    base: &approxfpgas::FlowConfig,
    spec: &LibrarySpec,
) -> Result<String, String> {
    use approxfpgas::record::FpgaParam;
    let set = approxfpgas::TargetSet::all();
    let source = LibrarySource::Generated(spec.clone());
    // A generated library always streams: only the cache dir can fail.
    let runs = approxfpgas::sweep_targets(base, &source, &set)
        .map_err(|e| format!("cannot open --cache-dir: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "target sweep: {} profiles, library {}{}u x{}",
        runs.len(),
        spec.kind.mnemonic(),
        spec.width,
        runs.first().map(|r| r.outcome.records.len()).unwrap_or(0)
    );
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "target", "latency", "power", "area", "mean", "synth", "front sizes"
    );
    for run in &runs {
        let o = &run.outcome;
        let pct = |p: FpgaParam| 100.0 * o.coverage.get(&p).copied().unwrap_or(0.0);
        let fronts: Vec<String> = FpgaParam::ALL
            .iter()
            .map(|p| format!("{}", o.final_fronts.get(p).map(|f| f.len()).unwrap_or(0)))
            .collect();
        let _ = writeln!(
            out,
            "{:<18} {:>7.0}% {:>7.0}% {:>7.0}% {:>7.0}% {:>6}/{:<4} {:>12}",
            run.target,
            pct(FpgaParam::Latency),
            pct(FpgaParam::Power),
            pct(FpgaParam::Area),
            100.0 * o.mean_coverage(),
            o.time.flow_count,
            o.time.exhaustive_count,
            fronts.join("/")
        );
    }
    let _ = writeln!(
        out,
        "\ncoverage = share of each target's true pareto front recovered; front \
         sizes are latency/power/area.\nsee `cross_target` (afp-bench) for the \
         train-on-A / evaluate-on-B transfer matrix."
    );
    Ok(out)
}

fn cmd_cache(cli: &Cli) -> Result<String, String> {
    let action = cli
        .positional
        .first()
        .map(String::as_str)
        .ok_or("expected `afp cache stats DIR`")?;
    if action == "migrate" {
        return Err(
            "`afp cache migrate` was removed along with the CSV cache tier: the binary store \
             is the only format, and a leftover characterization.csv is ignored (the cache \
             rebuilds on the next run)"
                .to_string(),
        );
    }
    if action != "stats" {
        return Err(format!(
            "unknown cache action `{action}` (expected `stats`)"
        ));
    }
    let dir = cli
        .positional
        .get(1)
        .ok_or("expected a cache directory argument")?;
    let dir = Path::new(dir);
    let store_path = dir.join(approxfpgas::cache::STORE_FILE);
    let mut out = String::new();
    let _ = writeln!(out, "cache directory: {}", dir.display());
    match afp_store::inspect(&store_path) {
        Ok(info) => {
            let _ = writeln!(
                out,
                "store: {} — {} entries, {} bytes (format v{}, records v{}, {}{})",
                approxfpgas::cache::STORE_FILE,
                info.records,
                info.bytes,
                info.format_version,
                info.record_version,
                if info.sealed { "sealed" } else { "unsealed" },
                if info.truncated {
                    ", torn tail — repaired on next open"
                } else {
                    ""
                }
            );
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let _ = writeln!(out, "store: absent");
        }
        Err(e) => return Err(format!("cannot inspect {}: {e}", store_path.display())),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parser_splits_flags_and_positionals() {
        let cli = Cli::parse(&args(&["synth", "file.v", "--target", "fpga", "--verbose"]));
        assert_eq!(cli.command, "synth");
        assert_eq!(cli.positional, vec!["file.v"]);
        assert_eq!(cli.flag_or("target", "x"), "fpga");
        assert_eq!(cli.flag_or("verbose", "false"), "true");
        assert_eq!(cli.flag_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn help_lists_all_commands() {
        let text = run(&args(&["help"])).unwrap();
        for cmd in [
            "library", "synth", "error", "map", "flow", "serve", "zoo", "cache", "targets",
        ] {
            assert!(text.contains(cmd), "missing {cmd}");
        }
        assert!(text.contains("--target"), "{text}");
        assert!(text.contains("--all-targets"), "{text}");
        assert!(text.contains("--report-normalized"), "{text}");
        assert!(text.contains("--library"), "{text}");
        assert!(text.contains("--paper-full"), "{text}");
        assert!(text.contains("--paper-scale"), "{text}");
        assert!(text.contains("--shard"), "{text}");
        assert!(text.contains("--queue-depth"), "{text}");
        assert!(text.contains("--target-default"), "{text}");
        assert!(text.contains("--models"), "{text}");
        assert!(text.contains("--estimate-only"), "{text}");
        assert!(text.contains("--keepalive-requests"), "{text}");
        assert!(text.contains("--idle-timeout-ms"), "{text}");
        assert!(text.contains("zoo train"), "{text}");
        assert!(text.contains("/estimate"), "{text}");
    }

    #[test]
    fn flow_rejects_shard_zero_instead_of_defaulting() {
        let e = run(&args(&["flow", "--size", "4", "--shard", "0"])).unwrap_err();
        assert!(e.contains("--shard 0"), "{e}");
        assert!(e.contains("1024"), "{e}");
        // Omitting the flag uses the default shard size.
        assert!(run(&args(&["flow", "--size", "4", "--subset", "1.0"])).is_ok());
    }

    #[test]
    fn flow_and_serve_reject_each_others_flags() {
        let e = run(&args(&["flow", "--size", "4", "--queue-depth", "8"])).unwrap_err();
        assert!(e.contains("afp serve"), "{e}");
        let e = run(&args(&["serve", "--paper-full", "true"])).unwrap_err();
        assert!(e.contains("afp flow"), "{e}");
        let e = run(&args(&["serve", "--target", "lut4-ice40"])).unwrap_err();
        assert!(e.contains("--target-default"), "{e}");
        let e = run(&args(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--socket",
            "/tmp/x",
        ]))
        .unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        let e = run(&args(&["serve", "--queue-depth", "0"])).unwrap_err();
        assert!(e.contains("--queue-depth"), "{e}");
        let e = run(&args(&["serve", "--target-default", "lut9-none"])).unwrap_err();
        assert!(e.contains("unknown target"), "{e}");
        let e = run(&args(&["flow", "--size", "4", "--models", "a.afpm"])).unwrap_err();
        assert!(e.contains("afp serve"), "{e}");
        let e = run(&args(&["flow", "--size", "4", "--keepalive-requests", "8"])).unwrap_err();
        assert!(e.contains("afp serve"), "{e}");
        let e = run(&args(&["serve", "--estimate-only"])).unwrap_err();
        assert!(e.contains("--models"), "{e}");
        let e = run(&args(&["serve", "--keepalive-requests", "0"])).unwrap_err();
        assert!(e.contains("--keepalive-requests"), "{e}");
        let e = run(&args(&["serve", "--idle-timeout-ms", "0"])).unwrap_err();
        assert!(e.contains("--idle-timeout-ms"), "{e}");
    }

    #[test]
    fn zoo_requires_a_subcommand_and_save_path() {
        let e = run(&args(&["zoo"])).unwrap_err();
        assert!(e.contains("zoo train"), "{e}");
        let e = run(&args(&["zoo", "prune"])).unwrap_err();
        assert!(e.contains("prune"), "{e}");
        let e = run(&args(&["zoo", "train"])).unwrap_err();
        assert!(e.contains("--save"), "{e}");
        let e = run(&args(&[
            "zoo",
            "train",
            "--save",
            "/tmp/x.afpm",
            "--models",
            "ML99",
        ]))
        .unwrap_err();
        assert!(e.contains("ML99"), "{e}");
        let e = run(&args(&[
            "zoo",
            "train",
            "--save",
            "/tmp/x.afpm",
            "--models",
            ",",
        ]))
        .unwrap_err();
        assert!(e.contains("no models"), "{e}");
    }

    #[test]
    fn zoo_train_persists_a_reloadable_zoo() {
        let path = std::env::temp_dir().join(format!("afp-cli-zoo-{}.afpm", std::process::id()));
        let out = run(&args(&[
            "zoo",
            "train",
            "--save",
            path.to_str().unwrap(),
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "40",
            "--subset",
            "0.5",
            "--models",
            "ml1,ML14",
        ]))
        .unwrap();
        assert!(out.contains("trained 2 model(s)"), "{out}");
        assert!(out.contains("round-trip verified:"), "{out}");
        assert!(!out.contains("round-trip verified: 0 "), "{out}");
        let saved = approxfpgas::load_zoo(&path).expect("saved zoo reloads");
        assert_eq!(saved.target, afp_fpga::DEFAULT_TARGET);
        assert!(saved.covers(ArithKind::Adder, 8));
        // The container is byte-reproducible: any drift in the library,
        // characterization, split, training or encoding moves this digest.
        let mut h = afp_runtime::StableHasher::new();
        h.write_bytes(&std::fs::read(&path).unwrap());
        let key = h.finish();
        assert_eq!(
            format!("{:016x}{:016x}", key.hi, key.lo),
            "d4b284f8f6b6be525df7a8d0c63b29e0"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn targets_lists_every_registry_profile() {
        let out = run(&args(&["targets"])).unwrap();
        for p in afp_fpga::target::registry() {
            assert!(out.contains(p.name), "missing {} in {out}", p.name);
        }
        assert!(out.contains("[default]"), "{out}");
    }

    #[test]
    fn targets_describes_one_profile() {
        let out = run(&args(&["targets", "lut4-ice40"])).unwrap();
        assert!(out.contains("lut4-ice40:"), "{out}");
        assert!(out.contains("LUT inputs (K):    4"), "{out}");
        let e = run(&args(&["targets", "lut9-none"])).unwrap_err();
        assert!(e.contains("unknown target"), "{e}");
        assert!(e.contains("lut6-7series"), "{e}");
    }

    #[test]
    fn flow_accepts_a_named_target() {
        let out = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "60",
            "--subset",
            "0.4",
            "--target",
            "lut4-ice40",
            "--report",
            "none",
        ]))
        .unwrap();
        assert!(out.contains("target: lut4-ice40 (K=4, 48 MHz)"), "{out}");
        assert!(out.contains("coverage"), "{out}");
    }

    #[test]
    fn flow_rejects_unknown_and_conflicting_targets() {
        let e = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "40",
            "--target",
            "lut9-none",
        ]))
        .unwrap_err();
        assert!(e.contains("unknown target `lut9-none`"), "{e}");
        let e = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "40",
            "--target",
            "lut4-ice40",
            "--all-targets",
        ]))
        .unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn library_inline_listing_works() {
        let out = run(&args(&[
            "library", "--kind", "add", "--width", "8", "--size", "12",
        ]))
        .unwrap();
        assert!(out.contains("generated"));
        assert!(out.contains("gates"));
    }

    #[test]
    fn synth_and_map_round_trip_through_a_temp_file() {
        let dir = std::env::temp_dir().join("afp_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adder.v");
        let circuit = afp_circuits::adders::ripple_carry(8);
        std::fs::write(&path, afp_netlist::export::to_verilog(circuit.netlist())).unwrap();
        let p = path.to_string_lossy().to_string();

        let synth = run(&args(&["synth", &p])).unwrap();
        assert!(synth.contains("ASIC:") && synth.contains("FPGA:"));

        let mapped_path = dir.join("adder_mapped.v").to_string_lossy().to_string();
        let mapped = run(&args(&["map", &p, "--out", &mapped_path])).unwrap();
        assert!(mapped.contains("PASSED"));
        let text = std::fs::read_to_string(&mapped_path).unwrap();
        assert!(text.contains("LUT"));

        let err = run(&args(&["error", &p, "--kind", "add", "--width", "8"])).unwrap();
        assert!(err.contains("MED:"));
        assert!(
            err.contains("0.000000"),
            "exact adder must have MED 0:\n{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_command_validates_interface() {
        let dir = std::env::temp_dir().join("afp_cli_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("adder.v");
        let circuit = afp_circuits::adders::ripple_carry(8);
        std::fs::write(&path, afp_netlist::export::to_verilog(circuit.netlist())).unwrap();
        let p = path.to_string_lossy().to_string();
        let e = run(&args(&["error", &p, "--kind", "mul", "--width", "8"])).unwrap_err();
        assert!(e.contains("outputs"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flow_command_runs_small() {
        let out = run(&args(&[
            "flow", "--kind", "add", "--width", "8", "--size", "60", "--subset", "0.4",
        ]))
        .unwrap();
        assert!(out.contains("synthesized"));
        assert!(out.contains("coverage"));
        // Every runtime counter reaches the terminal as a registry row.
        let runtime_line = out
            .lines()
            .find(|line| line.starts_with("[runtime] "))
            .unwrap_or_else(|| panic!("missing runtime section:\n{out}"));
        for row in afp_runtime::COUNTERS
            .iter()
            .filter(|row| row.section == ReportSection::Runtime)
        {
            assert!(runtime_line.contains(&format!("{}=", row.name)), "{out}");
        }
        // No cache dir: no memo slot, so nothing hit or missed.
        assert!(
            runtime_line.ends_with("zoo_memo_hits=0, zoo_memo_misses=0, zoo_memo_errors=0"),
            "{out}"
        );
        assert!(out.contains("[cache] hits="), "{out}");
        assert!(
            out.contains("[quarantine] estimates_quarantined=0"),
            "{out}"
        );
        // The flow actually did mapping work, so the counters are live.
        assert!(!runtime_line.contains("cuts_merged=0,"), "{out}");
        assert!(!runtime_line.contains("sim_tape_reuses=0,"), "{out}");
    }

    #[test]
    fn serve_drained_summary_prints_the_registry() {
        let summary = drained_summary(&afp_runtime::CounterSnapshot {
            requests_served: 7,
            zoo_memo_hits: 2,
            ..Default::default()
        });
        let sections: Vec<&str> = summary
            .lines()
            .map(|line| line.strip_prefix("serve drained: [").unwrap())
            .map(|rest| rest.split(']').next().unwrap())
            .collect();
        assert_eq!(sections, ["serve", "estimate", "runtime", "cache"]);
        assert!(summary.contains("[serve] requests_served=7, "), "{summary}");
        assert!(summary.contains(", zoo_memo_hits=2, "), "{summary}");
        for row in afp_runtime::COUNTERS
            .iter()
            .filter(|row| row.section != ReportSection::Quarantine)
        {
            assert!(summary.contains(&format!("{}=", row.name)), "{summary}");
        }
    }

    #[test]
    fn flow_command_emits_stage_table_by_default() {
        let out = run(&args(&[
            "flow", "--kind", "add", "--width", "8", "--size", "60", "--subset", "0.4",
        ]))
        .unwrap();
        assert!(out.contains("per-stage timing:"), "{out}");
        assert!(out.contains("flow/characterize"), "{out}");
        assert!(out.contains("flow/train_zoo"), "{out}");
        assert!(out.contains("items/s"), "{out}");
        // No report file was requested, so none is written.
        assert!(!out.contains("wrote run report"), "{out}");
    }

    #[test]
    fn flow_report_json_prints_a_single_json_document_and_writes_the_file() {
        let dir = std::env::temp_dir().join(format!("afp_cli_report_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report_path = dir.join("results/run_report.json");
        let out = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "60",
            "--subset",
            "0.4",
            "--report",
            "json",
            "--report-out",
            &report_path.to_string_lossy(),
        ]))
        .unwrap();
        // Stdout is exactly one JSON document.
        assert!(out.starts_with("{\"version\":1,"), "{out}");
        assert!(out.ends_with("}\n"), "{out}");
        assert_eq!(out.lines().count(), 1, "{out}");
        for key in [
            "\"stages\":[",
            "\"flow\":{",
            "\"target\":{\"name\":\"lut6-7series\"",
            "\"time\":{",
            "\"runtime\":{",
            "\"cache\":{",
            "\"quarantine\":{",
            "\"coverage\":{",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // Clean path: nothing quarantined.
        assert!(out.contains("\"estimates_quarantined\":0"), "{out}");
        // The file holds the same document (parent dirs were created).
        let on_disk = std::fs::read_to_string(&report_path).unwrap();
        assert_eq!(on_disk, out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flow_report_none_skips_tracing_output() {
        let out = run(&args(&[
            "flow", "--kind", "add", "--width", "8", "--size", "60", "--subset", "0.4", "--report",
            "none",
        ]))
        .unwrap();
        assert!(out.contains("synthesized"));
        assert!(!out.contains("per-stage timing:"), "{out}");
        assert!(!out.contains("items/s"), "{out}");
        // The counters still print, as the report's section lines.
        assert!(out.contains("\n[runtime] tasks_executed="), "{out}");
        assert!(out.contains("\n[coverage] latency="), "{out}");
    }

    #[test]
    fn flow_report_mode_is_validated() {
        let e = run(&args(&[
            "flow", "--kind", "add", "--width", "8", "--size", "40", "--report", "xml",
        ]))
        .unwrap_err();
        assert!(e.contains("--report must be"), "{e}");
    }

    #[test]
    fn flow_rejects_unusable_cache_dir() {
        let dir = std::env::temp_dir().join(format!("afp_cli_cachedir_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("file");
        std::fs::write(&blocker, b"x").unwrap();
        let e = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "40",
            "--cache-dir",
            &blocker.to_string_lossy(),
        ]))
        .unwrap_err();
        assert!(e.contains("cannot open --cache-dir"), "{e}");
        // The target sweep opens every flow's cache dir just as loudly.
        let e = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "40",
            "--all-targets",
            "--cache-dir",
            &blocker.join("x").to_string_lossy(),
        ]))
        .unwrap_err();
        assert!(e.contains("cannot open --cache-dir"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flow_rejects_no_cache_with_a_cache_dir() {
        let dir = std::env::temp_dir().join(format!("afp_cli_nocache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let e = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "40",
            "--no-cache",
            "--cache-dir",
            &dir.to_string_lossy(),
        ]))
        .unwrap_err();
        assert!(e.contains("mutually exclusive"), "{e}");
        assert!(!dir.exists(), "a rejected run created its cache dir");
    }

    #[test]
    fn synth_reads_bristol_files() {
        let dir = std::env::temp_dir().join(format!("afp_cli_bristol_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let circuit = afp_circuits::adders::ripple_carry(4);
        let path = dir.join("adder.bristol");
        std::fs::write(&path, afp_netlist::bristol::to_bristol(circuit.netlist())).unwrap();
        let p = path.to_string_lossy().to_string();
        let out = run(&args(&["synth", &p])).unwrap();
        assert!(out.contains("8 inputs, 5 outputs"), "{out}");
        assert!(out.contains("ASIC:") && out.contains("FPGA:"), "{out}");
        // The error command agrees the import is behaviourally exact.
        let err = run(&args(&["error", &p, "--kind", "add", "--width", "4"])).unwrap();
        assert!(err.contains("MED:         0.000000"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_stats_reports_the_store_only() {
        let dir = std::env::temp_dir().join(format!("afp_cli_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let d = dir.to_string_lossy().to_string();
        std::fs::create_dir_all(&dir).unwrap();
        // A leftover CSV cache is not a cache format any more.
        std::fs::write(dir.join("characterization.csv"), "key,v1\n").unwrap();
        let out = run(&args(&["cache", "stats", &d])).unwrap();
        assert!(out.contains("store: absent"), "{out}");
        assert!(!out.contains("csv"), "{out}");
        let flow_args = [
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "60",
            "--subset",
            "0.4",
            "--threads",
            "1",
            "--report",
            "none",
            "--cache-dir",
            &d,
        ];
        run(&args(&flow_args)).unwrap();
        let out = run(&args(&["cache", "stats", &d])).unwrap();
        assert!(out.contains("store: characterization.afps"), "{out}");
        assert!(out.contains("unsealed"), "{out}");
        assert!(!out.contains("csv"), "{out}");
        // The store warms the next run.
        let out = run(&args(&flow_args)).unwrap();
        assert!(
            out.contains("[cache] hits=60, misses=0,"),
            "warm run must be all hits: {out}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_command_validates_arguments() {
        assert!(run(&args(&["cache"])).is_err());
        assert!(run(&args(&["cache", "stats"])).is_err());
        let e = run(&args(&["cache", "frob", "/tmp"])).unwrap_err();
        assert!(e.contains("unknown cache action"), "{e}");
    }

    #[test]
    fn cache_migrate_fails_loudly() {
        let e = run(&args(&["cache", "migrate", "/tmp"])).unwrap_err();
        assert!(e.contains("afp cache migrate` was removed"), "{e}");
        assert!(e.contains("CSV cache tier"), "{e}");
    }

    #[test]
    fn flow_and_serve_reject_the_removed_cache_format() {
        for command in ["flow", "serve"] {
            for format in ["csv", "store"] {
                let e = run(&args(&[command, "--cache-format", format])).unwrap_err();
                assert!(e.contains("--cache-format was removed"), "{command}: {e}");
            }
        }
    }

    #[test]
    fn flow_report_normalized_is_stable_across_warm_runs() {
        let dir = std::env::temp_dir().join(format!("afp_cli_norm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache_dir = dir.join("cache").to_string_lossy().to_string();
        let report_out = dir.join("report.json").to_string_lossy().to_string();
        let flow = || {
            run(&args(&[
                "flow",
                "--kind",
                "add",
                "--width",
                "8",
                "--size",
                "60",
                "--subset",
                "0.4",
                "--report",
                "json",
                "--report-normalized",
                "--report-out",
                &report_out,
                "--cache-dir",
                &cache_dir,
            ]))
            .unwrap()
        };
        let cold = flow();
        let warm = flow();
        assert_eq!(warm, flow(), "warm normalized reports must be identical");
        assert!(warm.contains("\"misses\":0"), "{warm}");
        assert_ne!(cold, warm, "warmth changes the hit/miss counters");
        // Normalization really stripped the wall-clock surfaces.
        assert!(warm.contains("\"steals\":0"), "{warm}");
        assert!(warm.contains("\"write_errors\":0"), "{warm}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_mode_writes_a_normalized_report_on_request() {
        let dir = std::env::temp_dir().join(format!("afp_cli_table_norm_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report_out = dir.join("report.json").to_string_lossy().to_string();
        let out = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "40",
            "--report",
            "table",
            "--report-normalized",
            "--report-out",
            &report_out,
        ]))
        .unwrap();
        assert!(out.contains("per-stage timing:"), "{out}");
        let written = std::fs::read_to_string(&report_out).unwrap();
        assert!(written.contains("\"total_wall_s\":0.0"), "{written}");
        assert!(written.contains("\"steals\":0"), "{written}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flow_streams_a_persisted_library() {
        let dir = std::env::temp_dir().join(format!("afp_cli_stream_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.afps");
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 60));
        afp_circuits::write_library(&path, &lib).unwrap();
        let p = path.to_string_lossy().to_string();
        let out = run(&args(&[
            "flow",
            "--library",
            &p,
            "--subset",
            "0.4",
            "--shard",
            "16",
            "--report",
            "none",
        ]))
        .unwrap();
        assert!(out.contains("corpus "), "{out}");
        // 60 circuits in shards of 16, never more than one shard resident.
        assert!(
            out.contains("shards_streamed=4, peak_resident_circuits=16,"),
            "{out}"
        );
        // The corpus fixes the circuits: generated-library flags conflict.
        let e = run(&args(&["flow", "--library", &p, "--size", "60"])).unwrap_err();
        assert!(e.contains("cannot be combined"), "{e}");
        let e = run(&args(&["flow", "--library", &p, "--all-targets"])).unwrap_err();
        assert!(e.contains("cannot be combined"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flow_fails_loudly_on_bad_corpora() {
        let dir = std::env::temp_dir().join(format!("afp_cli_badcorpus_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Missing file.
        let missing = dir.join("nope.afps").to_string_lossy().to_string();
        let e = run(&args(&["flow", "--library", &missing])).unwrap_err();
        assert!(e.contains("cannot stream"), "{e}");
        // Truncated corpus: the valid prefix must not silently pass.
        let path = dir.join("torn.afps");
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 40));
        afp_circuits::write_library(&path, &lib).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 12]).unwrap();
        let p = path.to_string_lossy().to_string();
        let e = run(&args(&["flow", "--library", &p])).unwrap_err();
        assert!(e.contains("torn or corrupt"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flow_paper_full_generates_then_reuses_a_scaled_corpus() {
        let dir = std::env::temp_dir().join(format!("afp_cli_paper_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("paper.afps").to_string_lossy().to_string();
        let base = [
            "flow",
            "--paper-full",
            "--paper-scale",
            "0.002",
            "--library",
            &path,
            "--subset",
            "0.4",
            "--report",
            "none",
        ];
        let out = run(&args(&base)).unwrap();
        assert!(out.contains("generated paper-full corpus"), "{out}");
        assert!(out.contains("shards_streamed="), "{out}");
        assert!(!out.contains("shards_streamed=0,"), "{out}");
        // Six libraries of two kinds: the report says so.
        assert!(
            out.contains("library_kind=mixed, library_width=--,"),
            "{out}"
        );
        // Second run streams the already-persisted corpus.
        let out = run(&args(&base)).unwrap();
        assert!(out.contains("reusing existing corpus"), "{out}");
        // --paper-scale is validated, and pointless without --paper-full.
        let e = run(&args(&["flow", "--paper-full", "--paper-scale", "7"])).unwrap_err();
        assert!(e.contains("--paper-scale expects"), "{e}");
        let e = run(&args(&["flow", "--paper-scale", "0.5"])).unwrap_err();
        assert!(e.contains("only applies"), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        let cases: [&[&str]; 3] = [
            &[
                "flow", "--kind", "add", "--width", "8", "--size", "20", "--fornts", "1",
            ],
            &[
                "zoo",
                "train",
                "--save",
                "/tmp/afp-never.afpm",
                "--size",
                "20",
                "--model",
                "ML1",
            ],
            &["synth", "F.v", "--traget", "fpga"],
        ];
        for argv in cases {
            let e = run(&args(argv)).unwrap_err();
            let flag = argv[argv.len() - 2];
            assert!(e.contains(flag), "{argv:?}: {e}");
            assert!(e.contains("unknown flag"), "{argv:?}: {e}");
        }
        // A flag of another subcommand names the subcommands that take it.
        let e = run(&args(&["library", "--fronts", "2"])).unwrap_err();
        assert!(e.contains("--fronts") && e.contains("`afp flow`"), "{e}");
        let e = run(&args(&["serve", "--subset", "0.5"])).unwrap_err();
        assert!(e.contains("`afp flow`, `afp zoo`"), "{e}");
        assert!(!std::path::Path::new("/tmp/afp-never.afpm").exists());
    }

    #[test]
    fn out_of_domain_widths_are_errors_not_panics() {
        // A netlist with the interface of a 33-bit adder: 66 inputs, 34
        // outputs, so only the width domain can reject it.
        let dir = std::env::temp_dir().join(format!("afp_cli_width_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut n = Netlist::new("add33");
        let ins = n.add_inputs(66);
        let zero = n.constant(false);
        n.set_outputs(ins[..33].iter().copied().chain([zero]).collect());
        let path = dir.join("add33.bristol");
        std::fs::write(&path, afp_netlist::bristol::to_bristol(&n)).unwrap();
        let p = path.to_string_lossy().to_string();
        let cases: [&[&str]; 6] = [
            &["library", "--kind", "add", "--width", "40"],
            &["library", "--kind", "mul", "--width", "0"],
            &["flow", "--kind", "mul", "--width", "24"],
            &[
                "zoo",
                "train",
                "--save",
                "/tmp/afp-never.afpm",
                "--kind",
                "mul",
                "--width",
                "17",
            ],
            &["error", &p, "--kind", "add", "--width", "33"],
            &["error", &p, "--kind", "mul", "--width", "33"],
        ];
        for argv in cases {
            let outcome = std::panic::catch_unwind(|| run(&args(argv)));
            let e = outcome
                .unwrap_or_else(|_| panic!("{argv:?} panicked"))
                .unwrap_err();
            assert!(
                e.contains("--width") && e.contains("out of range"),
                "{argv:?}: {e}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zoo_train_tolerance_must_be_a_finite_fraction() {
        for bad in ["nan", "inf", "-inf", "-0.01", "1", "2", "x"] {
            let argv = [
                "zoo",
                "train",
                "--save",
                "/tmp/afp-never.afpm",
                "--size",
                "20",
                "--tolerance",
                bad,
            ];
            let outcome = std::panic::catch_unwind(|| run(&args(&argv)));
            let e = outcome
                .unwrap_or_else(|_| panic!("{argv:?} panicked"))
                .unwrap_err();
            assert!(
                e.contains("--tolerance expects a fraction in [0, 1)"),
                "{argv:?}: {e}"
            );
        }
        assert!(!std::path::Path::new("/tmp/afp-never.afpm").exists());
    }

    #[test]
    fn subset_and_paper_scale_must_be_fractions() {
        for bad in ["-1", "nan", "2", "0", "inf", "x"] {
            let argvs: [&[&str]; 3] = [
                &[
                    "flow", "--kind", "add", "--width", "8", "--size", "20", "--subset", bad,
                ],
                &[
                    "zoo",
                    "train",
                    "--save",
                    "/tmp/afp-never.afpm",
                    "--size",
                    "20",
                    "--subset",
                    bad,
                ],
                &["flow", "--paper-full", "--paper-scale", bad],
            ];
            for argv in argvs {
                let outcome = std::panic::catch_unwind(|| run(&args(argv)));
                let e = outcome
                    .unwrap_or_else(|_| panic!("{argv:?} panicked"))
                    .unwrap_err();
                assert!(e.contains("expects a fraction in (0, 1]"), "{argv:?}: {e}");
            }
        }
    }

    #[test]
    fn help_states_the_flag_rule_and_the_width_domain() {
        let text = run(&args(&["help"])).unwrap();
        assert!(text.contains("any other flag is an\nerror"), "{text}");
        assert!(text.contains("1..=32 for adders and 1..=16"), "{text}");
    }

    #[test]
    fn flow_command_accepts_runtime_flags() {
        let out = run(&args(&[
            "flow",
            "--kind",
            "add",
            "--width",
            "8",
            "--size",
            "60",
            "--subset",
            "0.4",
            "--threads",
            "1",
            "--no-cache",
        ]))
        .unwrap();
        // --no-cache: every characterization is a miss-free direct compute.
        assert!(out.contains("[cache] hits=0, misses=0,"), "{out}");
    }
}

//! The eight benchmarked commands. Each runs one trace file through the
//! library path its `lsr` subcommand takes (`src/bin/lsr.rs`), ingest
//! from disk included, and digests the report that subcommand prints.
//!
//! Every call into a layer sits in a span named after that layer. With
//! the disabled recorder of a timed run each span is one branch; with the
//! enabled recorder of a traced run the program's own spans (`extract`
//! and its stages, `analyze`, `model.*`, `audit`) nest under them.

use lsr::core::{try_extract, Config, LogicalStructure};
use lsr::lint::Severity;
use lsr::trace::{logfmt, Trace};
use std::path::Path;

/// Cap on reported findings, the CLI's `--limit` default.
const LIMIT: usize = lsr::lint::DEFAULT_DIAG_LIMIT;

/// One benchmarked `lsr` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `lsr extract`.
    Extract,
    /// `lsr extract --threads 2`.
    ExtractT2,
    /// `lsr races --json`.
    Races,
    /// `lsr lint --json`.
    Lint,
    /// `lsr analyze --json`.
    Analyze,
    /// `lsr model --json`.
    Model,
    /// `lsr audit --json`.
    Audit,
    /// `lsr report`.
    Report,
}

impl Command {
    /// Every command, in the order a round runs them.
    pub const ALL: [Command; 8] = [
        Command::Extract,
        Command::ExtractT2,
        Command::Races,
        Command::Lint,
        Command::Analyze,
        Command::Model,
        Command::Audit,
        Command::Report,
    ];

    /// The name used in metric names and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Command::Extract => "extract",
            Command::ExtractT2 => "extract_t2",
            Command::Races => "races",
            Command::Lint => "lint",
            Command::Analyze => "analyze",
            Command::Model => "model",
            Command::Audit => "audit",
            Command::Report => "report",
        }
    }

    /// Parses a command name.
    pub fn parse(s: &str) -> Option<Command> {
        Command::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// What one command made of one trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRun {
    /// FNV-1a-64 of the report the subcommand prints (or writes).
    pub digest: u64,
    /// Diagnostic codes in the report, in report order.
    pub codes: Vec<&'static str>,
    /// The exit status the subcommand gives.
    pub exit: u8,
    /// Tasks in the trace.
    pub tasks: u64,
    /// Events in the trace.
    pub events: u64,
    /// Races reported (`races` only).
    pub races: u64,
    /// Bytes of the rendered report.
    pub output_bytes: u64,
}

/// Runs `cmd` over the trace at `path` with `cfg`, whose recorder the
/// layer spans go to. `extract` and `extract_t2` also hand back the
/// structure, so the caller can digest it outside the timed section.
pub fn run_file(
    cmd: Command,
    path: &Path,
    cfg: &Config,
) -> Result<(FileRun, Option<LogicalStructure>), String> {
    let rec = &cfg.recorder;
    let title = path.file_name().and_then(|n| n.to_str()).unwrap_or("trace");
    // `lsr lint` reads single-file logs without the validation pass.
    let trace = ingest(path, cmd != Command::Lint, rec)?;
    let mut run = FileRun {
        digest: 0,
        codes: Vec::new(),
        exit: 0,
        tasks: trace.tasks.len() as u64,
        events: trace.events.len() as u64,
        races: 0,
        output_bytes: 0,
    };
    let mut structure = None;
    let output = match cmd {
        Command::Extract | Command::ExtractT2 => {
            let t2;
            let cfg = if cmd == Command::ExtractT2 {
                t2 = cfg.clone().with_threads(2);
                &t2
            } else {
                cfg
            };
            let ls = extract(&trace, cfg)?;
            verify(&trace, &ls, cfg)?;
            let out = render(cfg, || ls.summary(&trace));
            structure = Some(ls);
            out
        }
        Command::Races => {
            // `analyze_races` split at its two halves so the traced run
            // can time the happened-before build apart from the scan.
            let causal = {
                let _sp = rec.span("lint.hb_build");
                let ix = trace.index();
                lsr::lint::HbIndex::build_with_mode(&trace, &ix, lsr::lint::causal_mode(cfg))
            };
            let report = {
                let _sp = rec.span("lint.races_scan");
                lsr::lint::analyze_races_with_index(&trace, cfg, LIMIT, &causal)
                    .map_err(|cyc| format!("causal cycle through {} task(s)", cyc.len()))?
            };
            run.races = report.races.len() as u64;
            run.codes = report.diagnostics.iter().map(|d| d.code).collect();
            render(cfg, || report.to_json())
        }
        Command::Lint => {
            let report = {
                let _sp = rec.span("lint.passes");
                lsr::lint::lint_trace(&trace, &lsr::lint::LintOptions::with_config(cfg.clone()))
            };
            run.codes = report.diagnostics.iter().map(|d| d.code).collect();
            run.exit = error_exit(&report.diagnostics);
            render(cfg, || report.to_json())
        }
        Command::Analyze => {
            let ls = extract(&trace, cfg)?;
            let report = {
                let _sp = rec.span("flow.analyze");
                lsr::lint::analyze_structure(&trace, &ls, rec, &Default::default())
            };
            run.codes = report.diagnostics.iter().map(|d| d.code).collect();
            run.exit = error_exit(&report.diagnostics);
            render(cfg, || report.to_json())
        }
        Command::Model => {
            let ls = extract(&trace, cfg)?;
            let model = {
                let _sp = rec.span("model.build");
                lsr::model::build_with(&trace.declarations(), rec)
            };
            let diags = {
                let _sp = rec.span("model.check");
                let report = lsr::model::check_with(&model, &trace, &ls, rec);
                lsr::lint::model_diagnostics(&report, LIMIT)
            };
            run.codes = diags.iter().map(|d| d.code).collect();
            run.exit = error_exit(&diags);
            render(cfg, || lsr::lint::model_report_json(&model, &diags))
        }
        Command::Audit => {
            let (_, report) = {
                let _sp = rec.span("audit.extract");
                lsr::audit::audit_extract(&trace, cfg, Default::default())
                    .map_err(|e| format!("cannot extract structure: {e}"))?
            };
            if !report.is_certified() {
                return Err(format!("certificate rejected: {} error(s)", report.error_count()));
            }
            run.codes = report.diagnostics.iter().map(|d| d.code).collect();
            render(cfg, || report.to_json())
        }
        Command::Report => {
            let ls = extract(&trace, cfg)?;
            verify(&trace, &ls, cfg)?;
            let _sp = rec.span("render.html");
            lsr::render::html_report(title, &trace, &ls)
        }
    };
    run.output_bytes = output.len() as u64;
    run.digest = {
        let _sp = rec.span("output");
        fnv1a(output.as_bytes())
    };
    Ok((run, structure))
}

fn ingest(path: &Path, checked: bool, rec: &lsr::obs::Recorder) -> Result<Trace, String> {
    let _sp = rec.span("trace.ingest");
    let f =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let r = std::io::BufReader::new(f);
    let trace = if checked {
        logfmt::read_log_with(r, rec)
    } else {
        logfmt::read_log_unchecked_with(r, rec)
    };
    trace.map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

fn extract(trace: &Trace, cfg: &Config) -> Result<LogicalStructure, String> {
    let _sp = cfg.recorder.span("core.extract");
    try_extract(trace, cfg).map_err(|e| format!("cannot extract structure: {e}"))
}

fn verify(trace: &Trace, ls: &LogicalStructure, cfg: &Config) -> Result<(), String> {
    let _sp = cfg.recorder.span("core.verify");
    ls.verify(trace).map_err(|e| format!("internal invariant violated: {e}"))
}

fn render(cfg: &Config, f: impl FnOnce() -> String) -> String {
    let _sp = cfg.recorder.span("output");
    f()
}

/// `lsr lint|analyze|model` exit nonzero on any error-severity finding.
fn error_exit(diags: &[lsr::lint::Diagnostic]) -> u8 {
    u8::from(diags.iter().any(|d| d.severity == Severity::Error))
}

/// FNV-1a, 64-bit: the report digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Lets a `Debug` rendering stream into the digest without building the
/// string.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a-64 of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.write(bytes);
    h.0
}

/// Digest of a whole recovered structure (its `Debug` rendering), what
/// `extract_t2` is compared on against `extract`.
pub fn structure_digest(ls: &LogicalStructure) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv::default();
    write!(h, "{ls:?}").expect("digest writer never fails");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn command_names_round_trip() {
        for c in Command::ALL {
            assert_eq!(Command::parse(c.name()), Some(c));
        }
        assert_eq!(Command::parse("render"), None);
    }

    #[test]
    fn split_race_analysis_matches_the_cli_entry_point() {
        let trace = lsr::apps::lassen_charm(&lsr::apps::LassenParams::chares8());
        let cfg = Config::charm();
        let whole = lsr::lint::analyze_races(&trace, &cfg, LIMIT).expect("acyclic");
        let ix = trace.index();
        let causal = lsr::lint::HbIndex::build_with_mode(&trace, &ix, lsr::lint::causal_mode(&cfg));
        let split =
            lsr::lint::analyze_races_with_index(&trace, &cfg, LIMIT, &causal).expect("acyclic");
        assert_eq!(whole.to_json(), split.to_json());
    }
}

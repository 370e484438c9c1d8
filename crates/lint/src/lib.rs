//! `lsr-lint`: diagnostic passes that statically verify event traces
//! and the logical structure recovered from them.
//!
//! Seven pass families, each with stable codes (full table in
//! `docs/lints.md`):
//!
//! - **T*** — trace well-formedness, one code per
//!   [`lsr_trace::ValidationError`] variant;
//! - **H*** — happened-before analysis over program order plus message
//!   edges ([`HbIndex`]): receives before sends, causality cycles, and
//!   untraced-dependency candidates (the paper's Fig. 24 PDES class);
//! - **S*** — the DESIGN §7 invariants of a recovered structure, via
//!   [`lsr_core::StructureVerifier`];
//! - **P*** — pipeline observations: the partition graph must be a DAG
//!   after every merge stage ([`lsr_core::StageSnapshot`]);
//! - **R*** — message races under the *causal* happened-before
//!   relation ([`HbMode::Causal`]), classified benign or
//!   structure-affecting via merge provenance ([`analyze_races`]);
//! - **D*** — dataflow analyses over the recovered structure
//!   ([`analyze_structure`], `lsr analyze`): serialization
//!   bottlenecks, redundant dependence edges, orphan phases, and
//!   slack / critical-path disagreement, built on the `lsr-flow`
//!   dataflow framework and its reachability oracle;
//! - **M*** — conformance of the recovered structure against the static
//!   skeleton model `lsr-model` builds from the declaration layer
//!   ([`model_diagnostics`], `lsr model`).
//!
//! [`lint_trace`] runs the T/H/S/P families end to end (extraction is
//! skipped if the trace-level passes already found errors);
//! [`lint_structure`] checks an existing structure against its trace.
//! The R family is opt-in ([`analyze_races`], `lsr races`): Charm++
//! traces routinely contain benign races, so they are reported
//! separately from the well-formedness lints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyze;
mod diag;
mod hb;
mod model;
mod passes;
mod race;

pub use analyze::analyze_structure;
pub use diag::{Diagnostic, Location, Severity};
#[doc(hidden)]
pub use hb::HbCorruption;
pub use hb::{HbIndex, HbMode, HbStats};
pub use model::{model_diagnostics, model_report_json};
#[doc(hidden)]
pub use race::analyze_races_with_index;
pub use race::{
    analyze_races, causal_mode, classify, swap_adjacent_delivery, swappable_races, Race, RaceClass,
    RaceReport, RaceScope, UntracedPair,
};

use lsr_core::{Config, LogicalStructure, StageSnapshot};
use lsr_trace::Trace;
use serde::{Serialize, Value};

/// Default cap on reported diagnostics per pass family.
pub const DEFAULT_DIAG_LIMIT: usize = 64;

/// Options for [`lint_trace`].
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Cap on diagnostics reported per pass family (at least 1).
    pub limit: usize,
    /// Whether to run extraction and check the recovered structure
    /// (S and P passes). Skipped automatically when trace-level passes
    /// report errors, since extraction assumes a well-formed trace.
    pub check_structure: bool,
    /// Pipeline configuration used for the structure check.
    pub config: Config,
}

impl Default for LintOptions {
    fn default() -> LintOptions {
        LintOptions { limit: DEFAULT_DIAG_LIMIT, check_structure: true, config: Config::charm() }
    }
}

impl LintOptions {
    /// Options with the given pipeline configuration.
    pub fn with_config(cfg: Config) -> LintOptions {
        LintOptions { config: cfg, ..LintOptions::default() }
    }
}

/// The outcome of a lint run.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings, in pass order (T, H, then S and P).
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the structure passes actually ran (false when skipped
    /// because of earlier errors or [`LintOptions::check_structure`]).
    pub structure_checked: bool,
}

impl LintReport {
    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let obj = Value::Obj(vec![
            ("errors".into(), Value::U64(self.error_count() as u64)),
            ("warnings".into(), Value::U64(self.warning_count() as u64)),
            ("structure_checked".into(), Value::Bool(self.structure_checked)),
            ("diagnostics".into(), self.diagnostics.ser()),
        ]);
        serde_json::to_string_pretty(&obj).expect("value rendering is infallible")
    }
}

impl std::fmt::Display for LintReport {
    /// One line per diagnostic followed by a summary line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "{} error(s), {} warning(s)", self.error_count(), self.warning_count())
    }
}

/// Runs all lint passes over a trace.
///
/// T passes run first. The later families assume what the earlier ones
/// check: the H passes index through message and event references, so
/// they only run when the T passes found nothing; extraction assumes a
/// well-formed trace, so the S and P passes only run when no error has
/// been reported so far (and `opts.check_structure` is on).
pub fn lint_trace(trace: &Trace, opts: &LintOptions) -> LintReport {
    let limit = opts.limit.max(1);
    let mut report = LintReport::default();
    report.diagnostics.extend(passes::trace_passes(trace, limit));
    if report.diagnostics.is_empty() {
        let ix = trace.index();
        report.diagnostics.extend(passes::hb_passes(trace, &ix, &opts.config.recorder, limit));
    }

    if opts.check_structure && report.error_count() == 0 {
        // The pipeline's own assertions stay off here: violations are
        // reported as diagnostics, not panics.
        let cfg = opts.config.clone().with_verify(false);
        let mut snapshots: Vec<StageSnapshot> = Vec::new();
        match lsr_core::try_extract_observed(trace, &cfg, Some(&mut |s| snapshots.push(s))) {
            Ok(ls) => {
                report.diagnostics.extend(passes::stage_passes(&snapshots));
                report.diagnostics.extend(passes::structure_passes(trace, &ls, limit));
                report.structure_checked = true;
            }
            Err(e) => {
                // P002: extraction aborted. The stage snapshots taken
                // before the abort are still checked.
                report.diagnostics.extend(passes::stage_passes(&snapshots));
                report.diagnostics.push(passes::extract_error_diag(&e));
            }
        }
    }
    report
}

/// Re-renders the ingestion findings of a salvage read
/// ([`lsr_trace::IngestReport`], the `I` codes) as lint diagnostics so
/// they can be merged into a [`LintReport`]. Ingestion findings are
/// warnings: salvage already repaired the trace, the diagnostics record
/// what was lost doing so.
pub fn ingest_diagnostics(report: &lsr_trace::IngestReport) -> Vec<Diagnostic> {
    passes::ingest_diags(report)
}

/// Runs the structure passes (S codes) over an already-recovered
/// structure, e.g. after an `extract` call the caller made anyway.
pub fn lint_structure(trace: &Trace, ls: &LogicalStructure) -> LintReport {
    LintReport {
        diagnostics: passes::structure_passes(trace, ls, DEFAULT_DIAG_LIMIT),
        structure_checked: true,
    }
}

/// The coded diagnostic (T family) for one trace validation error.
/// Exposed so callers that already hold a
/// [`lsr_trace::ValidationError`] — e.g. from `TraceBuilder::build` —
/// can render it like the linter does.
pub fn diagnostic_for(e: &lsr_trace::ValidationError) -> Diagnostic {
    passes::trace_diag(e)
}

/// Runs the pipeline pass (P family) over stage snapshots collected
/// from [`lsr_core::try_extract_observed`].
pub fn lint_stages(snapshots: &[StageSnapshot]) -> Vec<Diagnostic> {
    passes::stage_passes(snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_trace::{Kind, PeId, Time, TraceBuilder};

    fn clean_trace() -> Trace {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(1));
        let e = b.add_entry("m", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m = b.record_send(t0, Time(1), c1, e);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task_from(c1, e, PeId(1), Time(3), m);
        b.end_task(t1, Time(4));
        b.build().unwrap()
    }

    #[test]
    fn clean_trace_is_clean() {
        let report = lint_trace(&clean_trace(), &LintOptions::default());
        assert!(report.is_clean(), "{report}");
        assert!(report.structure_checked);
    }

    #[test]
    fn corrupt_trace_skips_structure_passes() {
        let mut tr = clean_trace();
        // Give the first task a negative span.
        tr.tasks[0].begin = Time(1);
        tr.tasks[0].end = Time(0);
        let report = lint_trace(&tr, &LintOptions::default());
        assert!(report.error_count() > 0, "{report}");
        assert!(!report.structure_checked);
        assert!(report.diagnostics.iter().any(|d| d.code == "T005"), "{report}");
    }

    #[test]
    fn report_json_has_summary_fields() {
        let report = lint_trace(&clean_trace(), &LintOptions::default());
        let json = report.to_json();
        assert!(json.contains("\"errors\": 0"), "{json}");
        assert!(json.contains("\"structure_checked\": true"), "{json}");
    }

    #[test]
    fn ingest_diagnostics_become_warnings_with_input_locations() {
        let rep = lsr_trace::IngestReport {
            diagnostics: vec![lsr_trace::IngestDiagnostic {
                code: lsr_trace::IngestCode::MalformedRecord,
                file: Some("run.1.log".into()),
                line: 7,
                message: "bad integer \"x\"".into(),
            }],
            suppressed: 0,
            skipped_records: 1,
            ..Default::default()
        };
        let diags = ingest_diagnostics(&rep);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "I001");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(
            diags[0].to_string(),
            "warning I001 [MalformedRecord] run.1.log:7: bad integer \"x\""
        );
    }

    #[test]
    fn lint_structure_is_clean_on_recovered_structure() {
        let tr = clean_trace();
        let ls = lsr_core::extract(&tr, &Config::charm());
        let report = lint_structure(&tr, &ls);
        assert!(report.is_clean(), "{report}");
    }
}

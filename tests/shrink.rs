//! Counterexample-minimization tests for `lsr-audit`'s ddmin shrinker:
//! planted mutations must reduce by at least 80% of record lines with
//! the diagnostic still firing on the reproducer, minimization must be
//! byte-deterministic, and a code that never fires must be rejected.

use lsr_audit::{shrink_log, ShrinkError, ShrinkOptions};
use lsr_core::Config;
use lsr_lint::{ingest_diagnostics, lint_trace, LintOptions};
use lsr_trace::logfmt::{read_log, to_log_string};
use lsr_trace::Mode;

fn jacobi_log() -> String {
    to_log_string(&lsr_apps::jacobi2d(&lsr_apps::JacobiParams::fig8()))
}

/// Applies `f` to the first line it accepts; panics if none matched.
fn plant(log: &str, f: impl Fn(&str) -> Option<String>) -> String {
    let mut done = false;
    let out: Vec<String> = log
        .lines()
        .map(|l| {
            if !done {
                if let Some(r) = f(l) {
                    done = true;
                    return r;
                }
            }
            l.to_owned()
        })
        .collect();
    assert!(done, "no line matched the planted mutation");
    out.join("\n") + "\n"
}

/// Swaps whitespace-separated fields `i` and `j` of a `kw` record line.
fn swap_fields(l: &str, kw: &str, i: usize, j: usize) -> Option<String> {
    let mut f: Vec<&str> = l.split_whitespace().collect();
    if f.first() == Some(&kw) && f.len() > j && f[i] != f[j] {
        f.swap(i, j);
        Some(f.join(" "))
    } else {
        None
    }
}

/// Independent re-check that `code` fires on a reproducer (same oracle
/// family split the shrinker uses, re-derived here so the test does not
/// trust the shrinker's own probe).
fn still_fires(log: &str, code: &str) -> bool {
    let Ok((tr, report)) = read_log(log.as_bytes(), &Mode::Salvage.into()) else {
        return false;
    };
    if code.starts_with('I') {
        return ingest_diagnostics(&report).iter().any(|d| d.code == code);
    }
    let opts = LintOptions {
        limit: 256,
        check_structure: false,
        config: Config::charm().with_verify(false),
    };
    lint_trace(&tr, &opts).diagnostics.iter().any(|d| d.code == code)
}

fn shrink_and_check(log: &str, code: &str) -> lsr_audit::ShrinkResult {
    let r = shrink_log(log, code, &ShrinkOptions::default())
        .unwrap_or_else(|e| panic!("{code} must shrink: {e}"));
    assert!(
        r.reduction() >= 0.8,
        "{code}: expected >= 80% reduction, got {:.1}% ({} -> {} records)",
        r.reduction() * 100.0,
        r.original_records,
        r.final_records
    );
    assert!(still_fires(&r.log, code), "{code} must still fire on the reproducer:\n{}", r.log);
    r
}

#[test]
fn shrinks_inverted_task_span_to_t005() {
    // Lines read "TASK <id> <chare> <entry> <pe> <begin> <end> <sink>".
    let log = plant(&jacobi_log(), |l| swap_fields(l, "TASK", 5, 6));
    shrink_and_check(&log, "T005");
}

#[test]
fn shrinks_inverted_idle_span_to_t011() {
    // Lines read "IDLE <pe> <begin> <end>".
    let log = plant(&jacobi_log(), |l| swap_fields(l, "IDLE", 2, 3));
    shrink_and_check(&log, "T011");
}

#[test]
fn shrinks_garbage_line_to_i001() {
    let log = format!("{}GARBAGE not a record\n", jacobi_log());
    let r = shrink_and_check(&log, "I001");
    // The 1-minimal reproducer for a parse error is the garbage line
    // itself (metadata is only kept if removing it breaks the repro).
    assert!(r.log.contains("GARBAGE"), "reproducer must keep the offending line:\n{}", r.log);
}

#[test]
fn shrinking_is_byte_deterministic() {
    let log = plant(&jacobi_log(), |l| swap_fields(l, "TASK", 5, 6));
    let a = shrink_log(&log, "T005", &ShrinkOptions::default()).expect("shrinks");
    let b = shrink_log(&log, "T005", &ShrinkOptions::default()).expect("shrinks");
    assert_eq!(a.log, b.log, "reproducer must be byte-identical across runs");
    assert_eq!(a.probes, b.probes, "probe sequence must be identical");
    assert_eq!(a.final_records, b.final_records);
}

#[test]
fn reproducer_is_strictly_parseable() {
    // The canonicalization pass renumbers ids, so the reproducer loads
    // without salvage warnings whenever the code survives rewriting.
    let log = plant(&jacobi_log(), |l| swap_fields(l, "TASK", 5, 6));
    let r = shrink_log(&log, "T005", &ShrinkOptions::default()).expect("shrinks");
    let (_, report) = read_log(r.log.as_bytes(), &Mode::Salvage.into()).expect("parses");
    assert!(
        report.diagnostics.is_empty(),
        "canonical reproducer must load clean, got {:?}",
        report.diagnostics
    );
}

#[test]
fn code_that_never_fires_is_rejected() {
    let err = shrink_log(&jacobi_log(), "T005", &ShrinkOptions::default())
        .expect_err("clean trace has no T005");
    assert_eq!(err, ShrinkError::CodeNeverFires { code: "T005".into() });
}

#[test]
fn probe_budget_still_returns_a_firing_candidate() {
    let log = plant(&jacobi_log(), |l| swap_fields(l, "TASK", 5, 6));
    let opts = ShrinkOptions { max_probes: 5, ..ShrinkOptions::default() };
    let r = shrink_log(&log, "T005", &opts).expect("initial probe fits the budget");
    assert!(r.probes <= 6, "budget (plus the canonicalization probe) must be respected");
    assert!(still_fires(&r.log, "T005"), "budget-limited result must still fire");
}

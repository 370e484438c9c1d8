//! End-to-end tests of the `lsr` command-line tool, driving the real
//! binary the way a user would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn lsr(args: &[&str], dir: &std::path::Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lsr")).args(args).current_dir(dir).output().expect("spawn lsr")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsr_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn help_lists_commands() {
    let dir = temp_dir("help");
    let out = lsr(&["help"], &dir);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in [
        "gen",
        "stats",
        "quality",
        "extract",
        "render",
        "metrics",
        "critical-path",
        "audit",
        "shrink",
    ] {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
    // No arguments behaves like help.
    let out = lsr(&[], &dir);
    assert!(out.status.success());
}

#[test]
fn unknown_command_fails_with_message() {
    let dir = temp_dir("unknown");
    let out = lsr(&["frobnicate"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_stats_quality_extract_roundtrip() {
    let dir = temp_dir("roundtrip");
    let out = lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("tasks"));
    assert!(dir.join("j.lsrtrace").exists());

    let out = lsr(&["stats", "j.lsrtrace"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("util="));

    let out = lsr(&["quality", "j.lsrtrace"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("quality score"));

    let out = lsr(&["extract", "j.lsrtrace"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("phases"));

    // Ablation flags are accepted and still verify.
    let out = lsr(&["extract", "j.lsrtrace", "--physical", "--no-sdag"], &dir);
    assert!(out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn render_ascii_and_svg() {
    let dir = temp_dir("render");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());

    let out = lsr(&["render", "j.lsrtrace"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("logical steps"));

    let out = lsr(&["render", "j.lsrtrace", "--view", "physical"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("physical time"));

    let out = lsr(
        &["render", "j.lsrtrace", "--format", "svg", "--metric", "diff", "--out", "j.svg"],
        &dir,
    );
    assert!(out.status.success());
    let svg = std::fs::read_to_string(dir.join("j.svg")).expect("svg written");
    assert!(svg.starts_with("<svg"));

    let out = lsr(
        &[
            "render",
            "j.lsrtrace",
            "--view",
            "physical",
            "--format",
            "svg",
            "--metric",
            "idle",
            "--out",
            "p.svg",
        ],
        &dir,
    );
    assert!(out.status.success());
    assert!(std::fs::read_to_string(dir.join("p.svg")).unwrap().starts_with("<svg"));

    let out = lsr(&["render", "j.lsrtrace", "--view", "migration", "--out", "m.svg"], &dir);
    assert!(out.status.success());
    assert!(std::fs::read_to_string(dir.join("m.svg")).unwrap().contains("<title>pe"));

    let out = lsr(&["render", "j.lsrtrace", "--format", "dot"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("digraph phases"));

    let out = lsr(&["render", "j.lsrtrace", "--metric", "bogus"], &dir);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_and_critical_path_run_on_mpi_traces() {
    let dir = temp_dir("mpi");
    assert!(lsr(&["gen", "lulesh-mpi", "--out", "l.lsrtrace"], &dir).status.success());

    let out = lsr(&["metrics", "l.lsrtrace", "--mpi"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("imbalance"));

    let out = lsr(&["critical-path", "l.lsrtrace"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("critical path:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn windowing_flags_restrict_the_analysis() {
    let dir = temp_dir("window");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());
    let full = lsr(&["stats", "j.lsrtrace"], &dir);
    assert!(full.status.success());
    // Analyze only the first 200 microseconds.
    let out = lsr(&["extract", "j.lsrtrace", "--from", "0", "--to", "200000"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("phases"));
    // Inverted window is a clean error.
    let out = lsr(&["extract", "j.lsrtrace", "--from", "9", "--to", "1"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exceeds"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_produces_self_contained_html() {
    let dir = temp_dir("report");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());
    let out = lsr(&["report", "j.lsrtrace", "--out", "r.html"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let html = std::fs::read_to_string(dir.join("r.html")).expect("html written");
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("<svg"));
    assert!(html.contains("Imbalance per phase"));
    // The CLI streams the document; it must be the library's, byte for byte.
    let log = std::fs::read_to_string(dir.join("j.lsrtrace")).expect("trace written");
    let trace = lsr::trace::logfmt::from_log_str(&log).expect("trace parses");
    let ls = lsr::core::extract(&trace, &lsr::core::Config::charm());
    assert!(html == lsr::render::html_report("j.lsrtrace", &trace, &ls), "streamed report differs");
    // A write that fails mid-stream is reported, not swallowed.
    if std::path::Path::new("/dev/full").exists() {
        let out = lsr(&["report", "j.lsrtrace", "--out", "/dev/full"], &dir);
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("cannot write /dev/full"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_compares_two_runs() {
    let dir = temp_dir("diff");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "a.lsrtrace"], &dir).status.success());
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "b.lsrtrace"], &dir).status.success());
    let out = lsr(&["diff", "a.lsrtrace", "b.lsrtrace"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("structurally identical"), "{text}");
    // Different programs diverge.
    assert!(lsr(&["gen", "lulesh-charm", "--out", "c.lsrtrace"], &dir).status.success());
    let out = lsr(&["diff", "a.lsrtrace", "c.lsrtrace"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("diverge"));
    // Wrong arity errors.
    let out = lsr(&["diff", "a.lsrtrace"], &dir);
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn split_trace_layout_roundtrips_through_cli() {
    let dir = temp_dir("split");
    let out = lsr(&["gen", "jacobi-fig15", "--out", "run.sts"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("per-PE logs"));
    assert!(dir.join("run.sts").exists());
    assert!(dir.join("run.0.log").exists());
    assert!(dir.join("run.3.log").exists());
    let out = lsr(&["extract", "run.sts"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("phases"));
    // Split and single-file forms give identical structure summaries.
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());
    let a = stdout(&lsr(&["extract", "run.sts"], &dir));
    let b = stdout(&lsr(&["extract", "j.lsrtrace"], &dir));
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_passes_clean_traces_and_flags_corrupt_ones() {
    let dir = temp_dir("lint");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());

    let out = lsr(&["lint", "j.lsrtrace"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("0 error(s), 0 warning(s)"));

    // Machine-readable output.
    let out = lsr(&["lint", "j.lsrtrace", "--json", "--deny-warnings"], &dir);
    assert!(out.status.success());
    let json = stdout(&out);
    assert!(json.contains("\"errors\": 0"), "{json}");
    assert!(json.contains("\"structure_checked\": true"), "{json}");

    // Trace-only mode skips extraction.
    let out = lsr(&["lint", "j.lsrtrace", "--no-structure"], &dir);
    assert!(out.status.success());
    assert!(stdout(&out).contains("structure passes skipped"));

    // Corrupt the log (invert one task's span) and expect a nonzero
    // exit with a coded diagnostic.
    let path = dir.join("j.lsrtrace");
    let text = std::fs::read_to_string(&path).expect("read log");
    let mut swapped = false;
    let corrupt: Vec<String> = text
        .lines()
        .map(|l| {
            let mut f: Vec<&str> = l.split_whitespace().collect();
            // Lines read "TASK <id> <chare> <entry> <pe> <begin> <end> <sink>".
            if !swapped && f.first() == Some(&"TASK") && f.len() >= 8 && f[5] != f[6] {
                swapped = true;
                f.swap(5, 6);
                f.join(" ")
            } else {
                l.to_owned()
            }
        })
        .collect();
    assert!(swapped, "no task line found to corrupt");
    std::fs::write(&path, corrupt.join("\n") + "\n").expect("write corrupt log");
    let out = lsr(&["lint", "j.lsrtrace"], &dir);
    assert!(!out.status.success(), "corrupt trace must fail the lint");
    let text = stdout(&out);
    assert!(text.contains("error T"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Lint diagnoses a corrupt trace the same way in either layout: the
/// split reader loads unchecked too, instead of refusing the `.sts`.
#[test]
fn lint_reports_the_same_codes_for_a_corrupt_trace_in_either_layout() {
    let dir = temp_dir("lint_layouts");
    assert!(lsr(&["gen", "jacobi-fig8", "--out", "j.lsrtrace"], &dir).status.success());
    assert!(lsr(&["gen", "jacobi-fig8", "--out", "s.sts"], &dir).status.success());
    // Invert task 0's span ("TASK <id> <chare> <entry> <pe> <begin> <end>
    // <sink>") wherever it lives: the single log or one per-PE log.
    let mut inverted = 0;
    for entry in std::fs::read_dir(&dir).expect("list dir") {
        let path = entry.expect("dir entry").path();
        let text = std::fs::read_to_string(&path).expect("read trace file");
        let lines: Vec<String> = text
            .lines()
            .map(|l| {
                let mut f: Vec<&str> = l.split_whitespace().collect();
                if f.len() >= 8 && f[..2] == ["TASK", "0"] {
                    inverted += 1;
                    f[5] = "5000";
                    f.join(" ")
                } else {
                    l.to_owned()
                }
            })
            .collect();
        std::fs::write(&path, lines.join("\n") + "\n").expect("write trace file");
    }
    assert_eq!(inverted, 2, "task 0 must appear once per layout");
    let codes = |file: &str| -> Vec<String> {
        let out = lsr(&["lint", file, "--json"], &dir);
        let text = stdout(&out);
        let v: serde::Value = serde_json::from_str(&text).unwrap_or_else(|e| {
            panic!("{file}: lint JSON parses: {e}\n{}", String::from_utf8_lossy(&out.stderr))
        });
        let Some(serde::Value::Arr(diags)) = v.get("diagnostics") else {
            panic!("{file}: diagnostics must be an array: {text}")
        };
        diags
            .iter()
            .map(|d| match d.get("code") {
                Some(serde::Value::Str(c)) => c.clone(),
                other => panic!("{file}: diagnostic without a code: {other:?}"),
            })
            .collect()
    };
    let single = codes("j.lsrtrace");
    assert!(single.iter().any(|c| c.starts_with('T')), "{single:?}");
    assert_eq!(single, codes("s.sts"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvaged_trace_that_stays_invalid_is_refused_not_a_panic() {
    let dir = temp_dir("salvage_invalid");
    assert!(lsr(&["gen", "bt", "--out", "bt.lsrtrace"], &dir).status.success());
    // Renumber event 61's receive record to the already-used id 66:
    // salvage drops the duplicate (I002) but leaves message 42 with
    // inconsistent endpoints (T009).
    let text = std::fs::read_to_string(dir.join("bt.lsrtrace")).expect("read trace");
    let bad = text.replacen("\nRECV 61 61 ", "\nRECV 66 61 ", 1);
    assert_ne!(bad, text, "bt has a RECV record for event 61");
    std::fs::write(dir.join("bad.lsrtrace"), bad).expect("write trace");
    for cmd in ["extract", "races", "analyze", "model", "audit", "report"] {
        let out = lsr(&[cmd, "bad.lsrtrace", "--salvage", "--mpi"], &dir);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {err}");
        assert!(
            err.contains("cannot use bad.lsrtrace after salvage: invalid trace: message m42"),
            "{cmd}: {err}"
        );
    }
    // Lint still diagnoses the salvaged trace.
    let out = lsr(&["lint", "bad.lsrtrace", "--salvage", "--mpi", "--no-structure"], &dir);
    let report = stdout(&out);
    assert!(report.contains("I002") && report.contains("T009"), "{report}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_without_out_uses_preset_name() {
    let dir = temp_dir("gendefault");
    let out = lsr(&["gen", "divcon"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("divcon.lsrtrace").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_a_clean_error() {
    let dir = temp_dir("missing");
    let out = lsr(&["stats", "nope.lsrtrace"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Observability: `--profile` / `--profile-json` (docs/observability.md).

/// Validates a profile document against the schema documented in
/// docs/observability.md: schema tag, command, total, and the span /
/// counter / anomaly arrays with their required per-element keys.
fn check_profile_schema(text: &str, command: &str) {
    // Each command's characteristic top-level span ("gen" works in a
    // generate+write pair; "report" is ingest+verify+render).
    let span_name = match command {
        "gen" => "generate",
        "report" => "render",
        other => other,
    };
    let v: serde::Value = serde_json::from_str(text)
        .unwrap_or_else(|e| panic!("{command}: profile JSON parses: {e}"));
    assert_eq!(
        v.get("schema"),
        Some(&serde::Value::Str("lsr-obs-profile/2".into())),
        "{command}: schema tag"
    );
    assert_eq!(v.get("command"), Some(&serde::Value::Str(command.into())), "{command}: command");
    assert!(matches!(v.get("total_ns"), Some(serde::Value::U64(_))), "{command}: total_ns");

    let Some(serde::Value::Arr(spans)) = v.get("spans") else {
        panic!("{command}: spans must be an array")
    };
    assert!(!spans.is_empty(), "{command}: at least one span");
    for s in spans {
        assert!(matches!(s.get("name"), Some(serde::Value::Str(_))), "{command}: span name");
        assert!(
            matches!(s.get("parent"), Some(serde::Value::Null | serde::Value::U64(_))),
            "{command}: span parent is null or an index"
        );
        assert!(matches!(s.get("start_ns"), Some(serde::Value::U64(_))), "{command}: start_ns");
        assert!(
            matches!(s.get("dur_ns"), Some(serde::Value::U64(_))),
            "{command}: every span closed by exit"
        );
    }
    assert!(
        spans.iter().any(|s| s.get("name") == Some(&serde::Value::Str(span_name.into()))),
        "{command}: spans include the {span_name} span"
    );

    // Counters serialize as a name -> total map.
    let Some(serde::Value::Obj(counters)) = v.get("counters") else {
        panic!("{command}: counters must be an object")
    };
    for (name, total) in counters {
        assert!(!name.is_empty(), "{command}: counter name");
        assert!(matches!(total, serde::Value::U64(_)), "{command}: counter total");
    }
    assert!(matches!(v.get("counter_events"), Some(serde::Value::Arr(_))), "{command}: events");
    let Some(serde::Value::Arr(anoms)) = v.get("anomalies") else {
        panic!("{command}: anomalies must be an array")
    };
    assert!(anoms.is_empty(), "{command}: a healthy run records no anomalies");
}

#[test]
fn profile_flag_reports_to_stderr_only() {
    let dir = temp_dir("profile");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());

    let out = lsr(&["extract", "j.lsrtrace", "--profile"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // stdout stays exactly the normal, parseable summary...
    let plain = stdout(&lsr(&["extract", "j.lsrtrace"], &dir));
    assert_eq!(stdout(&out), plain, "--profile must not perturb stdout");
    // ...and the report lands on stderr: header, span tree, counters.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("profile: extract (lsr-obs-profile/2)"), "{err}");
    assert!(err.contains("spans:"), "{err}");
    assert!(err.contains("  ingest "), "{err}");
    assert!(err.contains("    atoms "), "ingest/extract stage spans nested: {err}");
    assert!(err.contains("counters:"), "{err}");
    assert!(err.contains("core.atoms"), "{err}");
    assert!(err.contains("ingest.bytes"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_json_to_stdout_with_dash() {
    let dir = temp_dir("profdash");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());
    let out = lsr(&["extract", "j.lsrtrace", "--profile-json", "-"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    // The JSON document is appended after the normal summary.
    let start = text.find("{\n").expect("JSON document on stdout");
    check_profile_schema(text[start..].trim(), "extract");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every subcommand accepts `--profile-json FILE` and writes a document
/// that validates against the schema (ISSUE 4 acceptance criterion).
#[test]
fn every_subcommand_writes_valid_profile_json() {
    let dir = temp_dir("profall");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "a.lsrtrace"], &dir).status.success());
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "b.lsrtrace"], &dir).status.success());
    // A log with a planted parse error, for the shrink case below.
    let a = std::fs::read_to_string(dir.join("a.lsrtrace")).expect("read log");
    std::fs::write(dir.join("c.lsrtrace"), format!("{a}GARBAGE not a record\n")).expect("write");

    let cases: &[(&str, &[&str])] = &[
        ("gen", &["gen", "divcon", "--out", "d.lsrtrace"]),
        ("stats", &["stats", "a.lsrtrace"]),
        ("quality", &["quality", "a.lsrtrace"]),
        ("extract", &["extract", "a.lsrtrace"]),
        ("render", &["render", "a.lsrtrace", "--out", "r.txt"]),
        ("metrics", &["metrics", "a.lsrtrace"]),
        ("report", &["report", "a.lsrtrace", "--out", "r.html"]),
        ("diff", &["diff", "a.lsrtrace", "b.lsrtrace"]),
        ("lint", &["lint", "a.lsrtrace"]),
        ("races", &["races", "a.lsrtrace"]),
        ("critical-path", &["critical-path", "a.lsrtrace"]),
        ("audit", &["audit", "a.lsrtrace"]),
        ("shrink", &["shrink", "c.lsrtrace", "--code", "I001", "--out", "c.min.lsrtrace"]),
    ];
    for (command, base) in cases {
        let json_name = format!("{command}.profile.json");
        let mut args: Vec<&str> = base.to_vec();
        args.push("--profile-json");
        args.push(&json_name);
        let out = lsr(&args, &dir);
        assert!(
            out.status.success(),
            "{command} --profile-json failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(dir.join(&json_name))
            .unwrap_or_else(|e| panic!("{command}: profile file written: {e}"));
        check_profile_schema(&text, command);
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Certificate checking and counterexample minimization (docs/audit.md).

#[test]
fn audit_certifies_clean_traces_across_configs() {
    let dir = temp_dir("audit");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());

    let out = lsr(&["audit", "j.lsrtrace"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("certificate OK"), "{text}");
    assert!(text.contains("0 error(s), 0 warning(s)"), "{text}");

    // Machine-readable form.
    let out = lsr(&["audit", "j.lsrtrace", "--json"], &dir);
    assert!(out.status.success());
    let json = stdout(&out);
    assert!(json.contains("\"certified\": true"), "{json}");
    assert!(json.contains("\"errors\": 0"), "{json}");

    // Config flags thread through to both extraction and the check:
    // the MPI preset certifies under its own flags, and the ablation
    // flags still certify (each produces a matching certificate).
    assert!(lsr(&["gen", "lulesh-mpi", "--out", "l.lsrtrace"], &dir).status.success());
    let out = lsr(&["audit", "l.lsrtrace", "--mpi"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("certificate OK"), "{}", stdout(&out));
    let out = lsr(&["audit", "j.lsrtrace", "--no-sdag", "--limit", "8"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("certificate OK"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shrink_minimizes_a_planted_corruption_to_a_replayable_reproducer() {
    let dir = temp_dir("shrink");
    assert!(lsr(&["gen", "jacobi-fig15", "--out", "j.lsrtrace"], &dir).status.success());

    // Shrinking a clean trace for a code that never fires is an error.
    let out = lsr(&["shrink", "j.lsrtrace", "--code", "T005"], &dir);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("does not fire"));

    // Invert one task's span (same corruption as the lint test).
    let path = dir.join("j.lsrtrace");
    let text = std::fs::read_to_string(&path).expect("read log");
    let mut swapped = false;
    let corrupt: Vec<String> = text
        .lines()
        .map(|l| {
            let mut f: Vec<&str> = l.split_whitespace().collect();
            if !swapped && f.first() == Some(&"TASK") && f.len() >= 8 && f[5] != f[6] {
                swapped = true;
                f.swap(5, 6);
                f.join(" ")
            } else {
                l.to_owned()
            }
        })
        .collect();
    assert!(swapped, "no task line found to corrupt");
    std::fs::write(&path, corrupt.join("\n") + "\n").expect("write corrupt log");

    let out = lsr(&["shrink", "j.lsrtrace", "--code", "T005", "--out", "min.lsrtrace"], &dir);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("T005 still fires"), "{text}");
    assert!(dir.join("min.lsrtrace").exists());

    // The reproducer is tiny and still triggers exactly the code.
    let out = lsr(&["lint", "min.lsrtrace"], &dir);
    assert!(!out.status.success(), "reproducer must still fail the lint");
    assert!(stdout(&out).contains("T005"), "{}", stdout(&out));
    std::fs::remove_dir_all(&dir).ok();
}

/// `lsr races` has one happened-before index and no engine switch:
/// `--engine` is an unknown flag like any other, failing with the
/// usage error and exit status 1.
#[test]
fn races_rejects_the_engine_flag() {
    let dir = temp_dir("engine");
    assert!(lsr(&["gen", "jacobi-fig8", "--out", "j.lsrtrace"], &dir).status.success());
    let out = lsr(&["races", "j.lsrtrace", "--engine", "clocks"], &dir);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --engine"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--parallel` is gone and fails like any unknown flag, with the
/// usage error and exit status 1.
#[test]
fn extract_rejects_the_parallel_flag() {
    let dir = temp_dir("parallel-flag");
    assert!(lsr(&["gen", "jacobi-fig8", "--out", "j.lsrtrace"], &dir).status.success());
    let out = lsr(&["extract", "j.lsrtrace", "--parallel"], &dir);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --parallel"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Extraction is serial: `--threads` is gone too and fails like any
/// unknown flag, with the usage error and exit status 1.
#[test]
fn extract_rejects_the_threads_flag() {
    let dir = temp_dir("threads-flag");
    assert!(lsr(&["gen", "jacobi-fig8", "--out", "j.lsrtrace"], &dir).status.success());
    let out = lsr(&["extract", "j.lsrtrace", "--threads", "2"], &dir);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --threads"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

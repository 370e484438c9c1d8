//! Per-stage pipeline profile on the paper-scale presets, via the
//! `lsr-obs` recorder (DESIGN §7.8). Three jobs in one binary:
//!
//! 1. **Differential check** — extraction with an enabled recorder must
//!    produce the identical [`LogicalStructure`] as with a disabled
//!    one, and the resulting profile must validate and contain every
//!    unconditional stage span.
//! 2. **Overhead gate** — the disabled-recorder build must stay within
//!    5% of the compiled-out baseline written by `exp_obs_baseline`
//!    (built with `--features obs-noop`); skipped when no baseline
//!    artifact exists or it was not a noop build.
//! 3. **Stage regression gate** — with `LSR_OBS_GATE=1`, each stage's
//!    share of extraction time is compared against the committed
//!    `BENCH_pipeline.json`; a stage that more than doubles its share
//!    (plus 5pp slack for fast stages) fails the run. Shares, not
//!    absolute times, so the gate holds across machines.

use lsr_apps::{jacobi2d, mergetree_mpi, JacobiParams, MergeTreeParams};
use lsr_bench::{banner, secs, timed, write_artifact};
use lsr_core::{try_extract, Config, LogicalStructure, EXTRACT_STAGE_SPANS};
use lsr_obs::{Profile, Recorder};
use lsr_trace::{Dur, Trace};
use std::time::Duration;

/// Best-of-N timing: extraction of a fixed trace is deterministic, so
/// the minimum is the least-noisy estimate of the cost.
fn best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut dur) = timed(&mut f);
    for _ in 1..reps {
        let (o, d) = timed(&mut f);
        if d < dur {
            out = o;
            dur = d;
        }
    }
    (out, dur)
}

struct CaseResult {
    name: &'static str,
    disabled_ns: u128,
    enabled_ns: u128,
    overhead_vs_noop: Option<f64>,
    extract_ns: u64,
    /// `(stage, ns, share-of-extract)` for every child of the extract span.
    stages: Vec<(String, u64, f64)>,
}

/// Extracts once with a fresh enabled recorder; returns the structure
/// and the validated profile.
fn profiled_extract(trace: &Trace, cfg: &Config) -> (LogicalStructure, Profile) {
    let rec = Recorder::enabled();
    let cfg = cfg.clone().with_recorder(rec.clone());
    let ls = try_extract(trace, &cfg).expect("preset extracts");
    let p = rec.profile("bench").expect("enabled recorder has a profile");
    (ls, p)
}

fn run_case(
    name: &'static str,
    trace: &Trace,
    cfg: &Config,
    reps: usize,
    baseline_ns: Option<u64>,
) -> CaseResult {
    // Disabled recorder: the production default.
    let (ls_disabled, t_disabled) =
        best(reps, || try_extract(trace, cfg).expect("preset extracts"));

    // Enabled recorder: keep the profile of the fastest run.
    let ((ls_enabled, profile), t_enabled) = best(reps, || profiled_extract(trace, cfg));

    assert_eq!(
        ls_disabled, ls_enabled,
        "{name}: enabling the recorder must not change the recovered structure"
    );
    let errs = profile.validate();
    assert!(errs.is_empty(), "{name}: profile must validate: {errs:?}");
    let missing = profile.expect_spans(EXTRACT_STAGE_SPANS);
    assert!(missing.is_empty(), "{name}: unconditional stage spans missing: {missing:?}");

    let extract_ix =
        profile.spans.iter().position(|s| s.name == "extract").expect("extract span present");
    let extract_ns = profile.spans[extract_ix].dur_ns.expect("extract span closed");
    let stages: Vec<(String, u64, f64)> = profile
        .spans
        .iter()
        .filter(|s| s.parent == Some(extract_ix))
        .map(|s| {
            let ns = s.dur_ns.expect("stage span closed");
            (s.name.clone(), ns, ns as f64 / extract_ns.max(1) as f64)
        })
        .collect();

    println!("  {name}: disabled {}  enabled {}", secs(t_disabled), secs(t_enabled));
    for (stage, ns, share) in &stages {
        println!("    {stage:<18} {:>12} ns  {:5.1}%", ns, share * 100.0);
    }

    let overhead_vs_noop = baseline_ns.map(|base| t_disabled.as_nanos() as f64 / base as f64);
    if let Some(ratio) = overhead_vs_noop {
        println!("    overhead vs compiled-out baseline: {:.2}%", (ratio - 1.0) * 100.0);
        assert!(
            ratio <= 1.05,
            "{name}: disabled recorder must cost <5% over the compiled-out build, got {:.2}%",
            (ratio - 1.0) * 100.0
        );
    }

    CaseResult {
        name,
        disabled_ns: t_disabled.as_nanos(),
        enabled_ns: t_enabled.as_nanos(),
        overhead_vs_noop,
        extract_ns,
        stages,
    }
}

/// Reads the committed `BENCH_pipeline.json` (if any) and returns each
/// case's stage shares: `(case, stage, share)`.
fn committed_shares(path: &std::path::Path) -> Option<Vec<(String, String, f64)>> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde::Value = serde_json::from_str(&text).ok()?;
    let serde::Value::Arr(cases) = v.get("cases")? else { return None };
    let mut out = Vec::new();
    for c in cases {
        let serde::Value::Str(case) = c.get("name")? else { return None };
        let serde::Value::Arr(stages) = c.get("stages")? else { return None };
        for s in stages {
            let serde::Value::Str(stage) = s.get("name")? else { return None };
            let share = match s.get("share")? {
                serde::Value::F64(x) => *x,
                serde::Value::U64(n) => *n as f64,
                _ => return None,
            };
            out.push((case.clone(), stage.clone(), share));
        }
    }
    Some(out)
}

/// A stage regresses when its share of extraction more than doubles,
/// with 5pp slack so tiny stages (sub-millisecond) don't flake.
fn gate(results: &[CaseResult], committed: &[(String, String, f64)]) {
    let mut checked = 0;
    for r in results {
        for (stage, _, share) in &r.stages {
            let Some((_, _, old)) = committed.iter().find(|(c, s, _)| c == r.name && s == stage)
            else {
                continue;
            };
            checked += 1;
            assert!(
                *share <= old * 2.0 + 0.05,
                "{}/{stage}: share of extraction grew {:.1}% -> {:.1}% (gate: <= 2x + 5pp)",
                r.name,
                old * 100.0,
                share * 100.0
            );
        }
    }
    println!("  stage gate: {checked} stage share(s) within bounds");
}

fn baseline(path: &std::path::Path, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde::Value = serde_json::from_str(&text).ok()?;
    if v.get("noop") != Some(&serde::Value::Bool(true)) {
        println!(
            "  (baseline {} was not an obs-noop build; overhead gate skipped)",
            path.display()
        );
        return None;
    }
    match v.get(&format!("{key}_ns"))? {
        serde::Value::U64(n) => Some(*n),
        _ => None,
    }
}

fn main() {
    banner("exp_pipeline_profile", "per-stage wall time + observability overhead gates");
    let reps = if lsr_bench::full_scale() { 200 } else { 60 };
    let out_dir = lsr_bench::out_dir();
    let pipeline_path = out_dir.join("BENCH_pipeline.json");
    let baseline_path = out_dir.join("BENCH_obs_baseline.json");
    let committed = committed_shares(&pipeline_path);

    let jacobi = jacobi2d(&JacobiParams::fig15());
    let mt = mergetree_mpi(&MergeTreeParams {
        ranks: 1024,
        seed: 0x10,
        base: Dur::from_micros(100),
        skew: 3.0,
    });
    let cases: [(&'static str, &Trace, Config); 2] = [
        ("jacobi_fig15", &jacobi, Config::charm()),
        ("mergetree_1024", &mt, Config::mpi().with_process_order(false)),
    ];

    let mut results = Vec::new();
    for (name, trace, cfg) in cases {
        let base = baseline(&baseline_path, name);
        results.push(run_case(name, trace, &cfg, reps, base));
    }

    if std::env::var("LSR_OBS_GATE").map(|v| v == "1").unwrap_or(false) {
        match &committed {
            Some(c) => gate(&results, c),
            None => panic!(
                "LSR_OBS_GATE=1 but no committed {} to gate against",
                pipeline_path.display()
            ),
        }
    }

    let mut case_json = Vec::new();
    for r in &results {
        let stages = r
            .stages
            .iter()
            .map(|(n, ns, sh)| {
                format!("      {{\"name\": \"{n}\", \"ns\": {ns}, \"share\": {sh:.4}}}")
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let overhead = match r.overhead_vs_noop {
            Some(x) => format!("{x:.4}"),
            None => "null".to_owned(),
        };
        case_json.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"disabled_ns\": {},\n      \
             \"enabled_ns\": {},\n      \"overhead_vs_noop\": {overhead},\n      \
             \"extract_ns\": {},\n      \"stages\": [\n{stages}\n      ]\n    }}",
            r.name, r.disabled_ns, r.enabled_ns, r.extract_ns
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"pipeline_profile\",\n  \"schema\": \"{}\",\n  \"cases\": [\n{}\n  ]\n}}\n",
        lsr_obs::PROFILE_SCHEMA,
        case_json.join(",\n")
    );
    write_artifact("BENCH_pipeline.json", &json);
    println!("=> per-stage profile recorded; differential and overhead gates hold");
}

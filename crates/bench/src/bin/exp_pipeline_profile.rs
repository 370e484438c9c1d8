//! Per-stage pipeline profile on the paper-scale presets, via the
//! `lsr-obs` recorder (DESIGN §7.8). The binary runs in two builds:
//!
//! - **`--features obs-noop`**, with the `lsr-obs` bodies compiled out,
//!   times each case's extraction, writes the times to
//!   [`BASELINE`] in the artifact directory and exits.
//! - **A normal build** runs three gates:
//!   1. *Differential*: extraction with an enabled recorder produces the
//!      identical [`LogicalStructure`] as with a disabled one, and the
//!      profile validates and contains every unconditional stage span.
//!   2. *Stage shares*: each stage's share of extraction time stays
//!      within 2× plus 5 pp of its share in [`SHARES`]. Shares, not
//!      absolute times, so the gate holds across machines.
//!   3. *Overhead*: when [`BASELINE`] exists, the disabled-recorder
//!      build costs at most 5% more than the compiled-out one.
//!
//! ```text
//! cargo run --release -p lsr-bench --features obs-noop --bin exp_pipeline_profile
//! cargo run --release -p lsr-bench --bin exp_pipeline_profile
//! ```

use lsr_apps::{jacobi2d, mergetree_mpi, JacobiParams, MergeTreeParams};
use lsr_bench::{banner, best, secs};
use lsr_core::{try_extract, Config, LogicalStructure, EXTRACT_STAGE_SPANS};
use lsr_obs::{Profile, Recorder};
use lsr_trace::Trace;

/// Rounds of `reps` disabled-recorder runs per case behind the overhead
/// gate.
const ROUNDS: usize = 10;

/// The compiled-out build's extraction times, one `<case> <ns>` line per
/// case.
const BASELINE: &str = "obs_noop_baseline.txt";

/// Each stage's reference share of extraction time on `jacobi_fig15`
/// and `mergetree_1024`. Update it when a pipeline change legitimately
/// moves a stage's share.
const SHARES: [(&str, [f64; 2]); 9] = [
    ("atoms", [0.1212, 0.1507]),
    ("dependency_merge", [0.0537, 0.0402]),
    ("collective_merge", [0.0051, 0.0051]),
    ("repair", [0.0913, 0.0404]),
    ("neighbor_serial", [0.0466, 0.0362]),
    ("infer", [0.1086, 0.1496]),
    ("leap_resolution", [0.1596, 0.1986]),
    ("enforce", [0.1218, 0.1491]),
    ("ordering", [0.2872, 0.2282]),
];

/// Extracts once with a fresh enabled recorder; returns the structure
/// and the validated profile.
fn profiled_extract(trace: &Trace, cfg: &Config) -> (LogicalStructure, Profile) {
    let rec = Recorder::enabled();
    let cfg = cfg.clone().with_recorder(rec.clone());
    let ls = try_extract(trace, &cfg).expect("preset extracts");
    let p = rec.profile("bench").expect("enabled recorder has a profile");
    (ls, p)
}

/// Best extraction time of each case with the default disabled recorder,
/// in nanoseconds. The samples are spread over rounds that alternate the
/// cases, so one burst of host noise cannot cover all of a case's runs.
/// Both builds time the same way, so the overhead ratio compares like
/// with like.
fn disabled_ns(cases: &[(&str, &Trace, Config)], reps: usize) -> Vec<u128> {
    let mut fastest = vec![u128::MAX; cases.len()];
    for _ in 0..ROUNDS {
        for ((_, trace, cfg), ns) in cases.iter().zip(&mut fastest) {
            let (_, t) = best(reps, || try_extract(trace, cfg).expect("preset extracts"));
            *ns = (*ns).min(t.as_nanos());
        }
    }
    fastest
}

/// Runs the differential and stage-share gates on one case.
fn run_case(case: usize, name: &str, trace: &Trace, cfg: &Config, reps: usize) {
    let ls_disabled = try_extract(trace, cfg).expect("preset extracts");
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

    println!("  {name}: enabled {}", secs(t_enabled));
    let extract_ix =
        profile.spans.iter().position(|s| s.name == "extract").expect("extract span present");
    let extract_ns = profile.spans[extract_ix].dur_ns.expect("extract span closed");
    for s in profile.spans.iter().filter(|s| s.parent == Some(extract_ix)) {
        let ns = s.dur_ns.expect("stage span closed");
        let share = ns as f64 / extract_ns.max(1) as f64;
        println!("    {:<18} {:>12} ns  {:5.1}%", s.name, ns, share * 100.0);
        let (_, old) = SHARES
            .iter()
            .find(|(stage, _)| *stage == s.name)
            .unwrap_or_else(|| panic!("{name}/{}: stage has no recorded share", s.name));
        let old = old[case];
        assert!(
            share <= old * 2.0 + 0.05,
            "{name}/{}: share of extraction grew {:.1}% -> {:.1}% (gate: <= 2x + 5pp)",
            s.name,
            old * 100.0,
            share * 100.0
        );
    }
}

fn main() {
    banner("exp_pipeline_profile", "per-stage wall time + observability overhead gates");
    let reps = if lsr_bench::full_scale() { 200 } else { 60 };
    let baseline_path = lsr_bench::out_dir().join(BASELINE);

    let jacobi = jacobi2d(&JacobiParams::fig15());
    let mt = mergetree_mpi(&MergeTreeParams::fig10());
    let cases: [(&str, &Trace, Config); 2] = [
        ("jacobi_fig15", &jacobi, Config::charm()),
        ("mergetree_1024", &mt, Config::mpi().with_process_order(false)),
    ];

    let disabled = disabled_ns(&cases, reps);
    if cfg!(feature = "obs-noop") {
        let mut lines = String::new();
        for ((name, ..), ns) in cases.iter().zip(&disabled) {
            println!("  {name}: {ns} ns with lsr-obs compiled out");
            lines.push_str(&format!("{name} {ns}\n"));
        }
        std::fs::write(&baseline_path, lines).expect("write baseline");
        println!(
            "=> baseline in {}; run a normal build to apply the gates",
            baseline_path.display()
        );
        return;
    }

    let baseline = std::fs::read_to_string(&baseline_path).ok();
    for (case, ((name, trace, cfg), &ns)) in cases.iter().zip(&disabled).enumerate() {
        run_case(case, name, trace, cfg, reps);
        println!("    disabled recorder: {ns} ns");
        let Some(text) = &baseline else { continue };
        let base: u128 = text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("{}: no {name} time", baseline_path.display()));
        let overhead = (ns as f64 / base as f64 - 1.0) * 100.0;
        println!("    overhead vs compiled-out build: {overhead:.2}%");
        assert!(
            overhead <= 5.0,
            "{name}: disabled recorder must cost <= 5% over the compiled-out build, got {overhead:.2}%"
        );
    }
    match baseline {
        Some(_) => println!("=> differential, stage-share and overhead gates hold"),
        None => println!(
            "=> differential and stage-share gates hold; no {} for the overhead gate",
            baseline_path.display()
        ),
    }
}

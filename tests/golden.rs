//! Golden snapshots of the recovered structure for committed seeds.
//!
//! The invariant checks (`verify`) catch *inconsistent* structures;
//! these tests catch *silently different but consistent* ones — a
//! pipeline change that shifts phase boundaries or step assignments
//! without breaking any invariant. Counts alone would let a consistent
//! reordering through, so each snapshot also pins an FNV-1a-64 digest
//! of the whole per-event and per-task assignment. The proxies use fixed seeds, so
//! these values are fully deterministic; if you change the pipeline or
//! the simulators deliberately, re-derive the constants and say so in
//! the commit.

use lsr_apps::*;
use lsr_core::{extract, Config, LogicalStructure};

/// FNV-1a-64 of a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a-64 over `phase_of_event`, `local_step`, `step` and
/// `task_phase`, in that order, each value as little-endian bytes.
fn assignment_digest(ls: &LogicalStructure) -> u64 {
    fnv1a(
        (ls.phase_of_event.iter().flat_map(|v| v.to_le_bytes()))
            .chain(ls.local_step.iter().flat_map(|v| v.to_le_bytes()))
            .chain(ls.step.iter().flat_map(|v| v.to_le_bytes()))
            .chain(ls.task_phase.iter().flat_map(|v| v.to_le_bytes())),
    )
}

struct Golden {
    name: &'static str,
    phases: usize,
    app_phases: usize,
    steps: u64,
    tasks: usize,
    msgs: usize,
    digest: u64,
}

fn check(g: &Golden, trace: &lsr_trace::Trace, cfg: &Config) {
    let ls = extract(trace, cfg);
    ls.verify(trace).unwrap_or_else(|e| panic!("{}: {e}", g.name));
    let got = Golden {
        name: g.name,
        phases: ls.num_phases(),
        app_phases: ls.app_phase_count(),
        steps: ls.max_step() + 1,
        tasks: trace.tasks.len(),
        msgs: trace.msgs.len(),
        digest: assignment_digest(&ls),
    };
    assert_eq!(
        (got.phases, got.app_phases, got.steps, got.tasks, got.msgs),
        (g.phases, g.app_phases, g.steps, g.tasks, g.msgs),
        "{}: structure drifted from the golden snapshot \
         (phases, app, steps, tasks, msgs)",
        g.name
    );
    assert_eq!(
        got.digest, g.digest,
        "{}: step assignment drifted from the golden snapshot (digest {:#018x})",
        g.name, got.digest
    );
}

#[test]
fn jacobi_fig15_structure_is_stable() {
    let trace = jacobi2d(&JacobiParams::fig15());
    check(
        &Golden {
            name: "jacobi-fig15",
            phases: 12,
            app_phases: 4,
            steps: 70,
            tasks: 265,
            msgs: 249,
            digest: 0xf7fb_2ecf_822e_503c,
        },
        &trace,
        &Config::charm(),
    );
}

#[test]
fn lulesh_charm_structure_is_stable() {
    let trace = lulesh_charm(&LuleshParams::fig16_charm());
    check(
        &Golden {
            name: "lulesh-charm",
            phases: 10,
            app_phases: 5,
            steps: 57,
            tasks: 195,
            msgs: 171,
            digest: 0x2cdf_b3e0_daee_ee9c,
        },
        &trace,
        &Config::charm(),
    );
}

#[test]
fn lulesh_mpi_structure_is_stable() {
    let trace = lulesh_mpi(&LuleshParams::fig16_mpi());
    check(
        &Golden {
            name: "lulesh-mpi",
            phases: 10,
            app_phases: 10,
            steps: 78,
            tasks: 420,
            msgs: 210,
            digest: 0xbe0b_dfb4_1b37_1bcd,
        },
        &trace,
        &Config::mpi(),
    );
}

#[test]
fn divcon_structure_is_stable() {
    let trace = divcon_charm(&DivConParams::small());
    check(
        &Golden {
            name: "divcon",
            phases: 1,
            app_phases: 1,
            steps: 20,
            tasks: 61,
            msgs: 60,
            digest: 0x2ba0_4b21_d8b9_82b5,
        },
        &trace,
        &Config::charm(),
    );
}

#[test]
fn mergetree_structure_is_stable() {
    let trace = mergetree_mpi(&MergeTreeParams::small());
    let cfg = Config::mpi().with_process_order(false);
    let ls = extract(&trace, &cfg);
    ls.verify(&trace).unwrap();
    // 32 ranks: 31 messages, level structure spans ≥ 2·log2(32) steps
    // under reordering.
    assert_eq!(trace.msgs.len(), 31);
    assert!(ls.max_step() + 1 >= 10);
    let digest = assignment_digest(&ls);
    assert_eq!(
        digest, 0xb7cb_f2e2_035a_8aa5,
        "mergetree: step assignment drifted (digest {digest:#018x})"
    );
}

/// Scrubs the volatile tokens out of a profile report: anything that
/// looks like a duration becomes `<T>`, any percentage becomes `<P>`.
/// Everything else — layout, span names, nesting, counter names, and
/// the deterministic counter *values* — must match exactly.
fn scrub_profile(report: &str) -> String {
    report
        .lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| {
                    if tok.is_empty() {
                        return tok.to_owned();
                    }
                    let digit_led = tok.chars().next().unwrap().is_ascii_digit();
                    let is_time = digit_led
                        && (tok.ends_with("ns")
                            || tok.ends_with("µs")
                            || tok.ends_with("ms")
                            || (tok.ends_with('s') && tok.contains('.')));
                    if is_time {
                        "<T>".to_owned()
                    } else if digit_led && tok.ends_with('%') {
                        "<P>".to_owned()
                    } else {
                        tok.to_owned()
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// Golden snapshot of the rendered `--profile` report for the
/// jacobi-fig15 extraction. Span timings vary run to run (scrubbed to
/// `<T>`/`<P>`), but the span tree shape, stage order, and every
/// counter value are deterministic; drift here means the pipeline's
/// instrumentation changed and the snapshot must be re-derived
/// deliberately.
#[test]
fn profile_report_snapshot_is_stable() {
    let trace = jacobi2d(&JacobiParams::fig15());
    let rec = lsr_obs::Recorder::enabled();
    lsr_core::try_extract(&trace, &Config::charm().with_recorder(rec.clone())).unwrap();
    let p = rec.profile("extract").unwrap();
    let got = scrub_profile(&lsr_render::profile_report(&p));
    let want = "\
profile: extract (lsr-obs-profile/2)
total: <T>
spans:
  extract <T>  <P>
    atoms <T>  <P>
    dependency_merge <T>  <P>
    collective_merge <T>  <P>
    repair <T>  <P>
    neighbor_serial <T>  <P>
    infer <T>  <P>
    leap_resolution <T>  <P>
    enforce <T>  <P>
    ordering <T>  <P>
counters:
  core.threads            1
  core.ordering.phases    12
  core.ordering.workers   1
  core.atoms              345
  core.merges.dependency  249
  core.merges.cycle       1
  core.merges.repair      44
  core.merges.leap        39
  core.edges.inferred     79
  core.edges.enforce      5
  core.phases             12
";
    assert_eq!(
        got, want,
        "profile report drifted from the golden snapshot; if the \
         instrumentation changed deliberately, re-derive this constant"
    );
}

/// Golden digests of the rendered output: the whole `html_report`
/// (three inline SVG views, every metric table) and the migration
/// view, byte for byte. The structure digests above cannot see a
/// renderer change; these pin every coordinate, colour and label.
#[test]
fn rendered_reports_are_byte_stable() {
    let cases: [(&str, lsr_trace::Trace, Config, u64, u64); 5] = [
        (
            "jacobi-fig15",
            jacobi2d(&JacobiParams::fig15()),
            Config::charm(),
            0x8fe0_4d2d_f0e2_f567,
            0xdfdc_8be7_1d29_e2e6,
        ),
        (
            "lulesh-charm",
            lulesh_charm(&LuleshParams::fig16_charm()),
            Config::charm(),
            0xcaf2_7fbd_3f2d_996b,
            0xac95_7cd6_b3ed_9e8a,
        ),
        (
            "lulesh-mpi",
            lulesh_mpi(&LuleshParams::fig16_mpi()),
            Config::mpi(),
            0xe5dc_f7c0_6e62_0d74,
            0xb993_e6f3_b9fe_3386,
        ),
        (
            "divcon",
            divcon_charm(&DivConParams::small()),
            Config::charm(),
            0xa0c7_48fe_968e_2a1f,
            0x4e97_c354_aa40_a19d,
        ),
        (
            "mergetree",
            mergetree_mpi(&MergeTreeParams::small()),
            Config::mpi().with_process_order(false),
            0x3af6_1961_5bf7_2cb0,
            0xa1c8_b06d_534e_08f0,
        ),
    ];
    let mut drift = Vec::new();
    for (name, trace, cfg, want_html, want_migration) in &cases {
        let ls = extract(trace, cfg);
        let html = fnv1a(lsr_render::html_report(name, trace, &ls).into_bytes());
        let migration = fnv1a(lsr_render::migration_svg(trace).into_bytes());
        if (html, migration) != (*want_html, *want_migration) {
            drift.push(format!("{name}: html {html:#018x}, migration {migration:#018x}"));
        }
    }
    assert!(
        drift.is_empty(),
        "rendered output drifted from the golden snapshot:\n{}",
        drift.join("\n")
    );
}

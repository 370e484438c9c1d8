//! Fig. 19: time to calculate logical structure for eight iterations of
//! LULESH at increasing chare counts (64 → 13.8k in the paper, chare
//! size held constant). The paper calls the behaviour "inconclusive",
//! with the §3.1.4 merge dominating the added time at high counts; we
//! report the same series and the log-log exponent.
//!
//! The extraction time is the best of 5 plain extractions, each
//! alternating with one under `Config::verify_invariants`, and the
//! verify-on run must stay within 2× of the plain one (best against
//! best), the "small constant factor" that option promises.
//!
//! It also gates the certificate check's scaling: `lsr-audit`'s replay
//! must cost about the same per provenance record at every chare
//! count (best of 3 audits per size; 12³ within 2× of 6³). Each size's
//! audits alternate with audits of the 6³ case, so a noisy stretch of
//! machine time hits both sides of the ratio.

use lsr_apps::{lulesh_charm, LuleshParams};
use lsr_audit::{audit, AuditOptions};
use lsr_bench::{banner, full_scale, loglog_slope, secs, timed, write_artifact};
use lsr_core::{extract, try_extract_with_provenance, Config, LogicalStructure, MergeProvenance};
use lsr_obs::{Profile, Recorder};
use lsr_trace::Trace;
use std::time::Duration;

/// Largest allowed ratio of the 12³ audit check cost per record to the
/// 6³ one: the replay's per-record cost must not grow with phase size.
const AUDIT_SCALING_BOUND: f64 = 2.0;

/// Largest allowed ratio of a verify-on extraction (the promoted
/// assertions plus the final `StructureVerifier` pass) to a plain one.
const VERIFY_OVERHEAD_BOUND: f64 = 2.0;

/// Best of 5 plain and of 5 verify-on extractions of `trace`,
/// alternating, so a noisy stretch of machine time hits both sides of
/// the ratio: `(plain, verify_on)`.
fn extraction_times(trace: &Trace) -> (Duration, Duration) {
    (0..5)
        .map(|_| {
            let (_, plain) = timed(|| extract(trace, &Config::charm()));
            let (_, verify) = timed(|| extract(trace, &Config::charm().with_verify(true)));
            (plain, verify)
        })
        .fold((Duration::MAX, Duration::MAX), |(p, v), (x, y)| (p.min(x), v.min(y)))
}

/// Fraction of the `extract` span spent in the §3.1.4 stages: source
/// inference, leap resolution and DAG enforcement.
fn leap_share(profile: &Profile) -> f64 {
    let extract = profile.spans.iter().position(|s| s.name == "extract").expect("extract span");
    let total = profile.spans[extract].dur_ns.expect("extract span closed");
    let leap: u64 = profile
        .spans
        .iter()
        .filter(|s| s.parent == Some(extract))
        .filter(|s| matches!(s.name.as_str(), "infer" | "leap_resolution" | "enforce"))
        .map(|s| s.dur_ns.expect("stage span closed"))
        .sum();
    leap as f64 / total.max(1) as f64
}

/// One extraction with its own certificate, ready to be checked.
struct Certified<'a> {
    trace: &'a Trace,
    ls: LogicalStructure,
    prov: MergeProvenance,
}

impl Certified<'_> {
    fn new(trace: &Trace) -> Certified<'_> {
        let (ls, prov) =
            try_extract_with_provenance(trace, &Config::charm()).expect("LULESH extracts");
        Certified { trace, ls, prov }
    }

    /// One certificate check, in nanoseconds per provenance record.
    fn check_ns(&self) -> f64 {
        let cfg = Config::charm();
        let (report, dt) =
            timed(|| audit(self.trace, &cfg, &self.prov, &self.ls, AuditOptions::default()));
        assert!(report.is_certified(), "LULESH certificate must check clean");
        dt.as_nanos() as f64 / self.prov.len().max(1) as f64
    }
}

/// Best of 3 checks of `case` and of `reference`, alternating:
/// `(case, reference)` in nanoseconds per record.
fn audit_costs(case: &Certified<'_>, reference: &Certified<'_>) -> (f64, f64) {
    (0..3)
        .map(|_| (case.check_ns(), reference.check_ns()))
        .fold((f64::INFINITY, f64::INFINITY), |(c, r), (x, y)| (c.min(x), r.min(y)))
}

fn main() {
    banner("Fig 19", "extraction time vs chare count (8-iteration LULESH)");
    // Cube sides: 4^3=64, 6^3=216, 8^3=512, 12^3=1728, 16^3=4096,
    // 24^3=13824 (the paper's 13.8k) with LSR_FULL=1.
    let sides: Vec<u32> = if full_scale() { vec![4, 6, 8, 12, 16, 24] } else { vec![4, 6, 8, 12] };
    let mut points = Vec::new();
    let mut csv = String::from(
        "chares,tasks,events,phases,seconds,leap_share,verify_seconds,verify_overhead,\
         audit_ns_per_record\n",
    );
    println!(
        "chares | tasks    | events    | phases | extraction time | §3.1.4 share | verify-on (overhead) \
         | audit ns/record"
    );
    let mut leap_shares = Vec::new();
    let mut worst_overhead = 0.0f64;
    let reference_trace = lulesh_charm(&LuleshParams::scaling(6, 8));
    let reference = Certified::new(&reference_trace);
    let mut audit_ratio_12 = None;
    for &side in &sides {
        let chares = side * side * side;
        let trace = lulesh_charm(&LuleshParams::scaling(side, 8));
        let rec = Recorder::enabled();
        let ls = extract(&trace, &Config::charm().with_recorder(rec.clone()));
        ls.verify(&trace).expect("invariants");
        let (dt, dt_verify) = extraction_times(&trace);
        let overhead = dt_verify.as_secs_f64() / dt.as_secs_f64().max(1e-12) - 1.0;
        worst_overhead = worst_overhead.max(overhead);
        // "The amount of time performing the merge of Section 3.1.4
        // comprises the bulk of the additional time" — measure it.
        let leap_share = leap_share(&rec.profile("fig19").expect("enabled recorder"));
        let (audit_ns, reference_ns) = audit_costs(&Certified::new(&trace), &reference);
        let audit_ratio = audit_ns / reference_ns;
        if side == 12 {
            audit_ratio_12 = Some(audit_ratio);
        }
        println!(
            "{chares:>6} | {:>8} | {:>9} | {:>6} | {:>15} | {:>11.1}% | {:>9} ({:>+5.1}%) | {:>6.0} ({:.2}× 6³)",
            trace.tasks.len(),
            trace.events.len(),
            ls.num_phases(),
            secs(dt),
            leap_share * 100.0,
            secs(dt_verify),
            overhead * 100.0,
            audit_ns,
            audit_ratio
        );
        csv.push_str(&format!(
            "{chares},{},{},{},{:.6},{:.4},{:.6},{:.4},{:.1}\n",
            trace.tasks.len(),
            trace.events.len(),
            ls.num_phases(),
            dt.as_secs_f64(),
            leap_share,
            dt_verify.as_secs_f64(),
            overhead,
            audit_ns
        ));
        points.push((chares as f64, dt.as_secs_f64()));
        leap_shares.push(leap_share);
    }
    println!(
        "verify-on worst-case overhead: {:+.1}% (best of 5 each, alternating; bound: \
         verify-on <= {VERIFY_OVERHEAD_BOUND}× plain)",
        worst_overhead * 100.0
    );
    println!(
        "§3.1.4 share of pipeline time: {:.1}% at the smallest count, {:.1}% at the largest \
         (the paper's implementation saw this stage dominate; ours keeps it bounded)",
        leap_shares.first().unwrap_or(&0.0) * 100.0,
        leap_shares.last().unwrap_or(&0.0) * 100.0
    );
    let slope = loglog_slope(&points);
    println!(
        "\nlog-log slope: {slope:.2} (paper reports super-linear growth at high \
         chare counts, dominated by the §3.1.4 merge)"
    );
    write_artifact("fig19_scaling_chares.csv", &csv);

    assert!(
        1.0 + worst_overhead <= VERIFY_OVERHEAD_BOUND,
        "verify-on extraction costs {:.2}× a plain one (bound {VERIFY_OVERHEAD_BOUND}×)",
        1.0 + worst_overhead
    );

    let ratio = audit_ratio_12.expect("12³ is in every sweep");
    println!(
        "audit check per record at 12³: {ratio:.2}× the 6³ figure (bound {AUDIT_SCALING_BOUND}×)"
    );
    assert!(
        ratio <= AUDIT_SCALING_BOUND,
        "audit check cost per record grows with chare count: {ratio:.2}× from 6³ to 12³ \
         (bound {AUDIT_SCALING_BOUND}×)"
    );
}

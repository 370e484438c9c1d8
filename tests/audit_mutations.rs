//! Certificate-check tests for `lsr-audit`: every generator preset must
//! certify clean, and each planted corruption of the provenance log or
//! the recovered structure must yield its A-code. Also covers the
//! `StructureVerifier::with_limit` truncation contract (deterministic,
//! reported via `Truncated`/S007 — never silent).

use lsr_audit::{audit, audit_extract, AuditOptions};
use lsr_core::{
    try_extract_with_provenance, Config, InvariantViolation, LogicalStructure, MergeProvenance,
    MergeRecord, ProvenanceRule, StructureVerifier,
};
use lsr_trace::{TaskId, Trace};
use std::collections::HashSet;

/// All eleven generator presets, each with the extraction configuration
/// its CLI invocation uses (kept in sync with `tests/obs_properties.rs`).
fn presets() -> Vec<(&'static str, Trace, Config)> {
    use lsr_apps::*;
    let charm = Config::charm();
    let mpi = Config::mpi();
    vec![
        ("jacobi-fig8", jacobi2d(&JacobiParams::fig8()), charm.clone()),
        ("jacobi-fig15", jacobi2d(&JacobiParams::fig15()), charm.clone()),
        ("lulesh-charm", lulesh_charm(&LuleshParams::fig16_charm()), charm.clone()),
        ("lulesh-mpi", lulesh_mpi(&LuleshParams::fig16_mpi()), mpi.clone()),
        ("lassen8", lassen_charm(&LassenParams::chares8()), charm.clone()),
        ("lassen64", lassen_charm(&LassenParams::chares64()), charm.clone()),
        ("lassen-mpi", lassen_mpi(&LassenParams::mpi(4, 2)), mpi.clone()),
        ("pdes", pdes_charm(&PdesParams::fig24()), charm.clone()),
        (
            "mergetree",
            mergetree_mpi(&MergeTreeParams::small()),
            mpi.clone().with_process_order(false),
        ),
        ("bt", bt_mpi(&BtParams::fig1()), mpi),
        ("divcon", divcon_charm(&DivConParams::small()), charm),
    ]
}

/// The shared corruption substrate: jacobi-fig8 under the Charm++
/// configuration, with its certificate and structure.
fn substrate() -> (Trace, Config, LogicalStructure, MergeProvenance) {
    let cfg = Config::charm();
    let tr = lsr_apps::jacobi2d(&lsr_apps::JacobiParams::fig8());
    let (ls, prov) = try_extract_with_provenance(&tr, &cfg).expect("substrate extracts");
    (tr, cfg, ls, prov)
}

fn codes(report: &lsr_audit::AuditReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

/// Sorted unique final phase set of each task's events (the A003 fact).
fn task_phases(tr: &Trace, ls: &LogicalStructure) -> Vec<Vec<u32>> {
    let nphases = ls.phases.len() as u32;
    let mut out = vec![Vec::new(); tr.tasks.len()];
    for t in &tr.tasks {
        for e in t.events() {
            let p = ls.phase_of_event[e.index()];
            if p < nphases {
                out[t.id.index()].push(p);
            }
        }
        out[t.id.index()].sort_unstable();
        out[t.id.index()].dedup();
    }
    out
}

#[test]
fn all_presets_certify_clean() {
    for (name, tr, cfg) in presets() {
        let (ls, report) = audit_extract(&tr, &cfg, AuditOptions::default())
            .unwrap_or_else(|e| panic!("{name}: extraction must succeed: {e}"));
        assert!(
            report.diagnostics.is_empty(),
            "{name}: certificate must be clean, got {:?}",
            codes(&report)
        );
        assert!(report.is_certified(), "{name}: must certify");
        assert!(report.records_replayed > 0, "{name}: presets all merge something");
        assert!(report.checks > 0, "{name}: checks must run");
        assert!(report.replay_edges > 0, "{name}: presets all carry messages");
        assert!(!ls.phases.is_empty(), "{name}: structure must have phases");
    }
}

#[test]
fn replay_covers_every_record() {
    let (tr, cfg, ls, prov) = substrate();
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert_eq!(report.records_replayed, prov.len(), "clean replay must consume the whole log");
    assert!(report.is_certified());
}

#[test]
fn a001_rule_behind_disabled_stage() {
    let (tr, cfg, ls, prov) = substrate();
    let gated = prov.rule_count(ProvenanceRule::SdagAbsorb)
        + prov.rule_count(ProvenanceRule::SdagEdge)
        + prov.rule_count(ProvenanceRule::NeighborSerialMerge);
    assert!(gated > 0, "substrate must exercise an sdag-gated rule");
    // The certificate was produced with sdag inference on; checking it
    // against a no-sdag configuration must reject it.
    let report = audit(&tr, &cfg.clone().with_sdag(false), &prov, &ls, AuditOptions::default());
    assert!(codes(&report).contains(&"A001"), "got {:?}", codes(&report));
    assert!(!report.is_certified());
}

#[test]
fn a002_fabricated_dependency_merge() {
    let (tr, cfg, ls, mut prov) = substrate();
    let msgs: HashSet<(u32, u32)> = tr.message_edges().map(|e| (e.from.0, e.to.0)).collect();
    let n = tr.tasks.len() as u32;
    let (a, b) = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .find(|&(a, b)| a != b && !msgs.contains(&(a, b)))
        .expect("some unconnected task pair exists");
    prov.records.push(MergeRecord {
        rule: ProvenanceRule::DependencyMerge,
        a: TaskId(a),
        b: TaskId(b),
        timed: false,
    });
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert!(codes(&report).contains(&"A002"), "got {:?}", codes(&report));
    assert!(!report.is_certified());
}

#[test]
fn a002_out_of_range_task_id() {
    let (tr, cfg, ls, mut prov) = substrate();
    prov.records.push(MergeRecord {
        rule: ProvenanceRule::LeapMerge,
        a: TaskId(tr.tasks.len() as u32),
        b: TaskId(0),
        timed: false,
    });
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert!(codes(&report).contains(&"A002"), "got {:?}", codes(&report));
}

/// Plants a `rule` record at the head of lulesh-charm's log — the
/// preset whose certificate exercises both the repair and the
/// neighbor-serial rules — pairing the anchor of the log's first real
/// `rule` record with a task of another entry type. At the head every
/// replayed partition is still one task, so the two partitions' entry
/// sets are disjoint. Returns the A002 messages.
fn planted_entry_mismatch(rule: ProvenanceRule) -> Vec<String> {
    let cfg = Config::charm();
    let tr = lsr_apps::lulesh_charm(&lsr_apps::LuleshParams::fig16_charm());
    let (ls, mut prov) = try_extract_with_provenance(&tr, &cfg).expect("lulesh-charm extracts");
    let a = prov
        .records
        .iter()
        .find(|r| r.rule == rule)
        .unwrap_or_else(|| panic!("lulesh-charm's log holds a {} record", rule.name()))
        .a;
    let b = tr
        .tasks
        .iter()
        .find(|t| t.entry != tr.task(a).entry)
        .expect("lulesh-charm has more than one entry type")
        .id;
    prov.records.insert(0, MergeRecord { rule, a, b, timed: false });
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert!(!report.is_certified());
    report.diagnostics.iter().filter(|d| d.code == "A002").map(|d| d.message.clone()).collect()
}

#[test]
fn a002_repair_merge_without_matching_entry() {
    let msgs = planted_entry_mismatch(ProvenanceRule::RepairMerge);
    // Only the planted record: a union only grows entry sets, so the
    // real records after it still hold.
    assert_eq!(msgs.len(), 1, "got {msgs:?}");
    assert!(msgs[0].starts_with("record 0: repair-merge precondition fails"), "got {msgs:?}");
}

#[test]
fn a002_neighbor_serial_merge_with_disjoint_entries() {
    let msgs = planted_entry_mismatch(ProvenanceRule::NeighborSerialMerge);
    assert_eq!(msgs.len(), 1, "got {msgs:?}");
    assert!(
        msgs[0].starts_with("record 0: neighbor-serial-merge precondition fails"),
        "got {msgs:?}"
    );
}

#[test]
fn a003_union_without_shared_phase() {
    let (tr, cfg, ls, mut prov) = substrate();
    let phases = task_phases(&tr, &ls);
    let n = tr.tasks.len();
    let pair = (0..n)
        .flat_map(|a| (0..n).map(move |b| (a, b)))
        .find(|&(a, b)| {
            a != b
                && !phases[a].is_empty()
                && !phases[b].is_empty()
                && phases[a].iter().all(|p| !phases[b].contains(p))
        })
        .expect("substrate has phase-disjoint task pairs");
    prov.records.push(MergeRecord {
        rule: ProvenanceRule::LeapMerge,
        a: TaskId(pair.0 as u32),
        b: TaskId(pair.1 as u32),
        timed: false,
    });
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert!(codes(&report).contains(&"A003"), "got {:?}", codes(&report));
    assert!(!report.is_certified());
}

#[test]
fn a004_planted_phase_cycle() {
    let (tr, cfg, mut ls, prov) = substrate();
    let (p, s) = ls
        .phase_succs
        .iter()
        .enumerate()
        .find_map(|(p, ss)| ss.first().map(|&s| (p as u32, s)))
        .expect("substrate has phase edges");
    // Close the 2-cycle s -> p against the existing p -> s.
    ls.phase_succs[s as usize].push(p);
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert!(codes(&report).contains(&"A004"), "got {:?}", codes(&report));
    assert!(!report.is_certified());
}

#[test]
fn a005_time_witness_contradiction() {
    let (tr, cfg, ls, mut prov) = substrate();
    // Earliest/latest event time per task.
    let range = |t: &lsr_trace::TaskRec| {
        let times: Vec<_> = t.events().map(|e| tr.events[e.index()].time).collect();
        times.iter().min().copied().zip(times.iter().max().copied())
    };
    let late = tr
        .tasks
        .iter()
        .filter_map(|t| range(t).map(|(lo, _)| (t.id, lo)))
        .max_by_key(|&(_, lo)| lo)
        .expect("tasks have events");
    let early = tr
        .tasks
        .iter()
        .filter_map(|t| range(t).map(|(_, hi)| (t.id, hi)))
        .min_by_key(|&(_, hi)| hi)
        .expect("tasks have events");
    assert!(late.1 > early.1, "substrate spans time");
    // Record claims `late` was time-witnessed as before `early`.
    prov.records.push(MergeRecord {
        rule: ProvenanceRule::OrderingEdge,
        a: late.0,
        b: early.0,
        timed: true,
    });
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert!(codes(&report).contains(&"A005"), "got {:?}", codes(&report));
    assert!(!report.is_certified());
}

#[test]
fn a006_step_table_truncated() {
    let (tr, cfg, mut ls, prov) = substrate();
    ls.step.pop();
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert!(codes(&report).contains(&"A006"), "got {:?}", codes(&report));
    assert!(!report.is_certified());
}

#[test]
fn a006_step_identity_broken() {
    let (tr, cfg, mut ls, prov) = substrate();
    let e = (0..tr.events.len())
        .find(|&e| ls.phase_of_event[e] < ls.phases.len() as u32)
        .expect("some event has a phase");
    ls.step[e] += 1;
    let report = audit(&tr, &cfg, &prov, &ls, AuditOptions::default());
    assert!(codes(&report).contains(&"A006"), "got {:?}", codes(&report));
    assert!(!report.is_certified());
}

#[test]
fn a007_truncation_reported_and_deterministic() {
    let (tr, cfg, mut ls, prov) = substrate();
    for s in ls.step.iter_mut() {
        *s += 1; // break the step identity for every event
    }
    let run = || audit(&tr, &cfg, &prov, &ls, AuditOptions { limit: 3 });
    let r1 = run();
    assert_eq!(r1.diagnostics.len(), 4, "3 errors + the A007 marker");
    assert!(r1.diagnostics[..3].iter().all(|d| d.code == "A006"), "got {:?}", codes(&r1));
    let last = r1.diagnostics.last().unwrap();
    assert_eq!(last.code, "A007");
    assert_eq!(last.severity, lsr_lint::Severity::Warning);
    assert!(!r1.is_certified(), "truncated-with-errors must not certify");
    let r2 = run();
    let render = |r: &lsr_audit::AuditReport| {
        r.diagnostics.iter().map(|d| format!("{}:{}", d.code, d.message)).collect::<Vec<_>>()
    };
    assert_eq!(render(&r1), render(&r2), "truncation must be deterministic");
}

#[test]
fn verifier_with_limit_truncation_is_deterministic_and_reported() {
    let (tr, _cfg, ls, _prov) = substrate();
    let mut bad = ls.clone();
    for s in bad.step.iter_mut() {
        *s += 1; // every event now violates the global-step identity
    }
    let v = StructureVerifier::new().with_limit(5);
    let r1 = v.check_structure(&tr, &bad);
    let r2 = v.check_structure(&tr, &bad);
    assert_eq!(r1, r2, "truncated verification must be deterministic");
    assert_eq!(r1.len(), 6, "5 violations + the Truncated marker");
    assert_eq!(r1.last(), Some(&InvariantViolation::Truncated { limit: 5 }));
    assert!(r1[..5].iter().all(|v| v.code() == "S001"), "got {r1:?}");
    // The lint layer must surface the truncation as a visible S007
    // warning, never silently.
    let diags = lsr_lint::lint_structure(&tr, &bad).diagnostics;
    assert!(
        diags.iter().any(|d| d.code == "S007" && d.severity == lsr_lint::Severity::Warning),
        "lint must report verifier truncation: {:?}",
        diags.iter().map(|d| d.code).collect::<Vec<_>>()
    );
}

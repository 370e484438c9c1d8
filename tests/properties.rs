//! Property-based tests over randomly generated workloads: the
//! DESIGN.md invariants must hold for *any* valid trace, not just the
//! proxy apps.

mod support;

use lsr_core::{extract, Config, OrderingPolicy};
use lsr_metrics::{attributes_whole_task, idle_experienced, sub_block_durations};
use lsr_trace::Dur;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariants 1–7 of DESIGN.md, checked by `verify`, hold for all
    /// configurations on arbitrary tape-generated traces.
    #[test]
    fn extraction_invariants_hold(
        pes in 1u32..5,
        chares in 1u32..8,
        tape in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        prop_assert!(lsr_trace::validate(&trace).is_ok());
        for (name, cfg) in support::all_configs() {
            let ls = extract(&trace, &cfg);
            if let Err(e) = ls.verify(&trace) {
                prop_assert!(false, "{name}: {e}");
            }
        }
    }

    /// Reordering only permutes steps within lanes: the set of phases
    /// and the per-phase event membership are ordering-independent.
    #[test]
    fn ordering_policy_does_not_change_phases(
        pes in 1u32..4,
        chares in 1u32..6,
        tape in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let a = extract(&trace, &Config::charm());
        let b = extract(&trace, &Config::charm().with_ordering(OrderingPolicy::PhysicalTime));
        prop_assert_eq!(a.num_phases(), b.num_phases());
        prop_assert_eq!(&a.phase_of_event, &b.phase_of_event);
        prop_assert_eq!(&a.task_phase, &b.task_phase);
    }

    /// Sub-blocks always partition task time exactly.
    #[test]
    fn sub_blocks_partition_tasks(
        pes in 1u32..4,
        chares in 1u32..8,
        tape in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let subs = sub_block_durations(&trace);
        prop_assert!(attributes_whole_task(&trace, &subs));
    }

    /// Idle experienced is bounded by the PE's recorded idle total and
    /// is zero on PEs that never idled.
    #[test]
    fn idle_experienced_is_bounded(
        pes in 1u32..4,
        chares in 1u32..8,
        tape in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let idle = idle_experienced(&trace);
        let mut per_pe = vec![Dur::ZERO; trace.pe_count as usize];
        for i in &trace.idles {
            per_pe[i.pe.index()] += i.end - i.begin;
        }
        for t in &trace.tasks {
            prop_assert!(idle[t.id.index()] <= per_pe[t.pe.index()]);
        }
    }

    /// Critical path: its work is at least the longest single task, at
    /// most the total busy time, and never exceeds the makespan × PEs.
    #[test]
    fn critical_path_bounds(
        pes in 1u32..4,
        chares in 1u32..8,
        tape in proptest::collection::vec(any::<u8>(), 1..300),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let cp = lsr_metrics::CriticalPath::compute(&trace);
        if trace.tasks.is_empty() {
            prop_assert!(cp.tasks.is_empty());
        } else {
            let longest = trace.tasks.iter().map(|t| t.end - t.begin).max().unwrap();
            let busy: Dur = trace.tasks.iter().map(|t| t.end - t.begin).sum();
            prop_assert!(cp.work >= longest);
            prop_assert!(cp.work <= busy);
            prop_assert!(cp.makespan <= trace.span().1);
            let shares: f64 = cp.pe_shares(&trace).iter().sum();
            prop_assert!(cp.work == Dur::ZERO || (shares - 1.0).abs() < 1e-9);
            // The path is a real dependency chain: begin times are
            // non-decreasing along it.
            for w in cp.tasks.windows(2) {
                prop_assert!(trace.task(w[0]).begin <= trace.task(w[1]).begin);
            }
        }
    }

    /// Lateness is non-negative with a zero witness at every step.
    #[test]
    fn lateness_has_zero_witness_per_step(
        pes in 1u32..4,
        chares in 1u32..8,
        tape in proptest::collection::vec(any::<u8>(), 0..250),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let ls = extract(&trace, &Config::charm());
        let late = lsr_metrics::lateness(&trace, &ls);
        let mut min_per_step: std::collections::HashMap<u64, Dur> =
            std::collections::HashMap::new();
        for e in trace.event_ids() {
            let s = ls.global_step(e);
            let v = late[e.index()];
            min_per_step.entry(s).and_modify(|m| *m = (*m).min(v)).or_insert(v);
        }
        prop_assert!(min_per_step.values().all(|&m| m == Dur::ZERO));
    }

    /// Topology tie-breaking never violates the structural invariants.
    #[test]
    fn topology_tiebreak_preserves_invariants(
        pes in 1u32..4,
        chares in 1u32..6,
        tape in proptest::collection::vec(any::<u8>(), 0..200),
        ranks in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let ls = extract(&trace, &Config::charm().with_topology(ranks));
        prop_assert!(ls.verify(&trace).is_ok());
    }

    /// Time-windowed slices of valid traces are valid and extractable.
    #[test]
    fn windowed_traces_stay_valid(
        pes in 1u32..4,
        chares in 1u32..8,
        tape in proptest::collection::vec(any::<u8>(), 0..250),
        lo in 0u64..200,
        len in 0u64..300,
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let w = lsr_trace::window(&trace, lsr_trace::Time(lo), lsr_trace::Time(lo + len));
        prop_assert!(lsr_trace::validate(&w).is_ok());
        let ls = extract(&w, &Config::charm());
        prop_assert!(ls.verify(&w).is_ok());
        prop_assert!(w.tasks.len() <= trace.tasks.len());
    }

    /// The text log format round-trips arbitrary valid traces.
    #[test]
    fn logfmt_roundtrips(
        pes in 1u32..4,
        chares in 1u32..8,
        tape in proptest::collection::vec(any::<u8>(), 0..250),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let text = lsr_trace::logfmt::to_log_string(&trace);
        let back = lsr_trace::logfmt::from_log_str(&text).expect("parse");
        prop_assert_eq!(trace, back);
    }

    /// Global steps respect every matched message (already in verify,
    /// but stated directly here as the paper's core guarantee).
    #[test]
    fn messages_always_advance_steps(
        pes in 1u32..4,
        chares in 2u32..8,
        tape in proptest::collection::vec(any::<u8>(), 0..250),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let ls = extract(&trace, &Config::charm());
        for m in &trace.msgs {
            if let Some(rt) = m.recv_task {
                let sink = trace.task(rt).sink.unwrap();
                prop_assert!(ls.global_step(sink) > ls.global_step(m.send_event));
            }
        }
    }

    /// Every extraction certifies against its own merge log: the
    /// certificate check accepts arbitrary tape-generated traces under
    /// every configuration (soundness of the audit, not just presets).
    #[test]
    fn extraction_always_certifies(
        pes in 1u32..4,
        chares in 1u32..6,
        tape in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        for (name, cfg) in support::all_configs() {
            let (_, report) =
                lsr_audit::audit_extract(&trace, &cfg, lsr_audit::AuditOptions::default())
                    .expect("tape traces extract");
            prop_assert!(
                report.diagnostics.is_empty(),
                "{}: {:?}",
                name,
                report.diagnostics
            );
        }
    }

    /// Counterexample minimization is a pure function of its input:
    /// shrinking the same planted corruption twice yields byte-identical
    /// reproducers and identical probe counts.
    #[test]
    fn shrink_is_byte_deterministic(
        pes in 1u32..4,
        chares in 1u32..6,
        tape in proptest::collection::vec(any::<u8>(), 10..120),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        // Invert the first nonempty TASK span so T005 fires; tapes that
        // never produced such a task are skipped.
        let mut planted = false;
        let log: String = lsr_trace::logfmt::to_log_string(&trace)
            .lines()
            .map(|l| {
                let mut f: Vec<&str> = l.split_whitespace().collect();
                if !planted && f.first() == Some(&"TASK") && f.len() >= 8 && f[5] != f[6] {
                    planted = true;
                    f.swap(5, 6);
                    f.join(" ") + "\n"
                } else {
                    l.to_owned() + "\n"
                }
            })
            .collect();
        if planted {
            let opts = lsr_audit::ShrinkOptions::default();
            let a = lsr_audit::shrink_log(&log, "T005", &opts).expect("T005 fires");
            let b = lsr_audit::shrink_log(&log, "T005", &opts).expect("T005 fires");
            prop_assert_eq!(&a.log, &b.log);
            prop_assert_eq!(a.probes, b.probes);
            prop_assert!(a.final_records <= a.original_records);
        }
    }
}

// ---------------------------------------------------------------------
// Differential race-classification tests (the R passes, end to end):
// swapping a racy pair's delivery order and re-running extraction must
// keep the event-level structure intact exactly when the race was
// classified benign.

/// Swaps every schedule-adjacent race of `trace` and checks the
/// classification against a fresh extraction of the swapped trace.
/// Returns how many swaps were exercised.
fn differential_swap_check(trace: &lsr_trace::Trace, cfg: &Config) -> usize {
    let report = lsr_lint::analyze_races(trace, cfg, 100_000).expect("acyclic");
    let base = extract(trace, cfg);
    let mut exercised = 0;
    for race in lsr_lint::swappable_races(trace, &report) {
        let Some(swapped) = lsr_lint::swap_adjacent_delivery(trace, race.first, race.second) else {
            continue;
        };
        let reextracted = extract(&swapped, cfg);
        let same = base.same_event_structure(&reextracted);
        assert_eq!(
            same,
            !race.class.is_structure_affecting(),
            "race {:?}/{:?} classified {:?}, but swapped structure {} the original",
            race.first,
            race.second,
            race.class,
            if same { "matches" } else { "differs from" },
        );
        exercised += 1;
    }
    exercised
}

/// Jacobi (over-decomposed Charm++ preset): many benign races, all of
/// which must leave the event-level structure untouched under swap.
#[test]
fn benign_races_are_structure_invariant_jacobi() {
    let trace = lsr_apps::jacobi2d(&lsr_apps::JacobiParams::fig8());
    let n = differential_swap_check(&trace, &Config::charm());
    assert!(n >= 20, "expected many swappable races, exercised {n}");
}

/// PDES (the paper's Fig. 24 preset): the noisiest app — racy tally
/// deliveries plus untraced detector calls. Every *race* (both
/// deliveries traced) must still be benign and structure-invariant;
/// the untraced pairs are reported separately as R004 and make no
/// reorderability claim.
#[test]
fn benign_races_are_structure_invariant_pdes() {
    let trace = lsr_apps::pdes_charm(&lsr_apps::PdesParams::fig24());
    let report = lsr_lint::analyze_races(&trace, &Config::charm(), 100_000).expect("acyclic");
    assert!(!report.untraced.is_empty(), "fig24 should surface untraced pairs");
    let n = differential_swap_check(&trace, &Config::charm());
    assert!(n >= 10, "expected many swappable races, exercised {n}");
}

/// The structure-affecting side of the iff: a plain receive racing
/// with a serial-numbered receive (the SDAG absorb window). Delivered
/// the other way, the plain task lands back-to-back before the serial
/// and is absorbed into it — a different merge decision, which is what
/// "structure-affecting" claims (the later pipeline stages may or may
/// not re-converge; here the shared sender makes the final phases
/// coincide, but the atom boundaries differ). The classifier must
/// flag the pair up front.
#[test]
fn structure_affecting_race_changes_merge_decisions_on_swap() {
    use lsr_trace::{Kind, PeId, Time, TraceBuilder};
    let mut b = TraceBuilder::new(2);
    let app = b.add_array("a", Kind::Application);
    let c0 = b.add_chare(app, 0, PeId(0));
    let c1 = b.add_chare(app, 1, PeId(1));
    let go = b.add_entry("go", None);
    let serial = b.add_entry("step", Some(1));
    let plain = b.add_entry("aux", None);
    let t0 = b.begin_task(c0, go, PeId(0), Time(0));
    let m0 = b.record_send(t0, Time(1), c1, serial);
    let m1 = b.record_send(t0, Time(2), c1, plain);
    b.end_task(t0, Time(3));
    let t1 = b.begin_task_from(c1, serial, PeId(1), Time(4), m0);
    b.end_task(t1, Time(6));
    let t2 = b.begin_task_from(c1, plain, PeId(1), Time(7), m1);
    b.end_task(t2, Time(9));
    let trace = b.build().unwrap();

    let cfg = Config::charm();
    let report = lsr_lint::analyze_races(&trace, &cfg, 16).expect("acyclic");
    assert_eq!(report.structure_affecting_count(), 1, "{report}");
    let race = report.races[0];
    assert!(race.class.is_structure_affecting());

    let swapped = lsr_lint::swap_adjacent_delivery(&trace, race.first, race.second)
        .expect("pair is schedule-adjacent");
    let (_, prov) = lsr_core::extract_with_provenance(&trace, &cfg);
    let (_, prov_swapped) = lsr_core::extract_with_provenance(&swapped, &cfg);
    // Observed order: serial first, plain second — no absorb window.
    assert_eq!(prov.rule_count(lsr_core::ProvenanceRule::SdagAbsorb), 0);
    // Swapped order: the plain receive runs back-to-back before the
    // serial and is absorbed — a merge decision the observed order
    // never took.
    assert_eq!(prov_swapped.rule_count(lsr_core::ProvenanceRule::SdagAbsorb), 1);
}

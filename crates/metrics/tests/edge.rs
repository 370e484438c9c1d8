//! Edge-case coverage for the metrics crate: the degenerate traces a
//! windowed or salvaged analysis can hand it — no tasks at all, a
//! single-event phase, a processor that only ever idles — must produce
//! well-defined zeros, not panics or NaNs.

use lsr_core::{extract, Config};
use lsr_metrics::{
    idle_experienced, mean_lateness, per_pe_totals, phase_profiles, profile_table,
    sub_block_durations, CriticalPath, DifferentialDuration, Imbalance, StructureDiff,
};
use lsr_trace::{Dur, Kind, PeId, Time, Trace, TraceBuilder};

/// A valid trace with no tasks, events, or messages at all — what a
/// `--from`/`--to` window that misses every task produces.
fn empty_trace() -> Trace {
    let mut b = TraceBuilder::new(2);
    let app = b.add_array("app", Kind::Application);
    b.add_chare(app, 0, PeId(0));
    b.add_entry("e", None);
    b.build().expect("empty trace is valid")
}

/// One task whose only event is an undelivered send (a lost
/// dependency, which is legal): the smallest trace with a phase, and
/// that phase holds exactly one event. A task with no events at all
/// produces no atom — and no phase — so this is the true minimum.
fn single_event_trace() -> Trace {
    let mut b = TraceBuilder::new(1);
    let app = b.add_array("app", Kind::Application);
    let c0 = b.add_chare(app, 0, PeId(0));
    let c1 = b.add_chare(app, 1, PeId(0));
    let e = b.add_entry("e", None);
    let t = b.begin_task(c0, e, PeId(0), Time(0));
    b.record_send(t, Time(1), c1, e);
    b.end_task(t, Time(5));
    b.build().expect("single-event trace is valid")
}

/// Two PEs where PE 1 never runs a task — it only records idle time.
fn all_idle_pe_trace() -> Trace {
    let mut b = TraceBuilder::new(2);
    let app = b.add_array("app", Kind::Application);
    let c0 = b.add_chare(app, 0, PeId(0));
    b.add_chare(app, 1, PeId(1));
    let e = b.add_entry("e", None);
    let t0 = b.begin_task(c0, e, PeId(0), Time(0));
    b.end_task(t0, Time(4));
    let t1 = b.begin_task(c0, e, PeId(0), Time(4));
    b.end_task(t1, Time(10));
    b.add_idle(PeId(1), Time(0), Time(10));
    b.build().expect("all-idle-PE trace is valid")
}

#[test]
fn empty_trace_yields_empty_metrics() {
    let tr = empty_trace();
    let ls = extract(&tr, &Config::charm());
    assert_eq!(ls.num_phases(), 0);

    assert!(idle_experienced(&tr).is_empty());
    assert_eq!(per_pe_totals(&tr, &[]), vec![Dur::ZERO; 2]);
    assert!(sub_block_durations(&tr).is_empty());
    let imb = Imbalance::compute(&tr, &ls);
    assert!(phase_profiles(&tr, &ls, &imb).is_empty());

    let dd = DifferentialDuration::compute(&tr, &ls);
    assert!(dd.per_event.is_empty());
    assert_eq!(dd.max(), None);
    assert!(dd.outliers(Dur(1)).is_empty());

    assert_eq!(imb.total(), Dur::ZERO);
    assert_eq!(imb.overall(), Dur::ZERO);
    assert!(imb.mean_relative().is_finite(), "no-phase imbalance must not divide by zero");

    let cp = CriticalPath::compute(&tr);
    assert!(cp.tasks.is_empty());
    assert_eq!(cp.work, Dur::ZERO);
    assert!(cp.work_ratio().is_finite());

    assert_eq!(mean_lateness(&lsr_metrics::lateness(&tr, &ls)), Dur::ZERO);
    // The rendered table degrades to nothing rather than panicking.
    assert_eq!(profile_table(&tr, &ls, &imb), "");
}

#[test]
fn single_event_phase_has_sane_profile() {
    let tr = single_event_trace();
    let ls = extract(&tr, &Config::charm());
    assert_eq!(ls.num_phases(), 1);

    assert_eq!(
        ls.phase_of_event.iter().filter(|&&p| p == 0).count(),
        1,
        "the phase must hold exactly one event"
    );

    let imb = Imbalance::compute(&tr, &ls);
    let profiles = phase_profiles(&tr, &ls, &imb);
    assert_eq!(profiles.len(), 1);
    let p = &profiles[0];
    assert_eq!(p.tasks, 1);
    assert_eq!(p.messages, 0, "an undelivered send matches no intra-phase message");
    assert_eq!(p.busy, Dur(5));
    assert_eq!(p.mean_grain, Dur(5));
    assert_eq!((p.first_begin, p.last_end), (Time(0), Time(5)));
    assert_eq!(p.imbalance, Dur::ZERO, "one PE cannot be imbalanced against itself");

    // A lone event has nothing to differ from: zero differential.
    let dd = DifferentialDuration::compute(&tr, &ls);
    assert!(dd.per_event.iter().all(|&d| d == Dur::ZERO));

    assert_eq!(imb.total(), Dur::ZERO);
    assert!(imb.mean_relative().is_finite());

    // Self-diff of a single-event structure is clean.
    let d = StructureDiff::compute(&tr, &ls, &tr, &ls);
    assert!(d.same_structure());
}

#[test]
fn all_idle_processor_attributes_no_work_and_full_idle() {
    let tr = all_idle_pe_trace();
    let ls = extract(&tr, &Config::charm());

    // Idle experienced only accrues to tasks; the idle PE has none,
    // and the busy PE's tasks never wait on it.
    let idle = idle_experienced(&tr);
    let totals = per_pe_totals(&tr, &idle);
    assert_eq!(totals.len(), 2);
    assert_eq!(totals[1], Dur::ZERO, "a task-less PE experiences idle on no task");

    // The critical path never visits the idle PE.
    let cp = CriticalPath::compute(&tr);
    let shares = cp.pe_shares(&tr);
    assert_eq!(shares[1], 0.0);
    assert!(shares[0] > 0.0);

    // Per-phase imbalance uses only participating PEs; the all-idle
    // PE contributes zero load but must not produce negative values.
    let imb = Imbalance::compute(&tr, &ls);
    assert!(imb.per_phase.iter().all(|&d| d >= Dur::ZERO));
    assert!(imb.overall() >= Dur::ZERO);
    assert!(imb.mean_relative().is_finite());
}

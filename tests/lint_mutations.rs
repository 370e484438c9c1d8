//! Mutation tests for the `lsr-lint` pass framework: every lint code
//! must actually fire when a trace or structure is corrupted the way
//! the code describes, and no code may fire on the clean traces every
//! proxy app produces. A linter that misses planted corruption — or
//! cries wolf on healthy traces — is worse than none.

use lsr::apps::{
    bt_mpi, divcon_charm, jacobi2d, lassen_charm, lulesh_charm, lulesh_mpi, mergetree_mpi,
    pdes_charm, BtParams, DivConParams, JacobiParams, LassenParams, LuleshParams, MergeTreeParams,
    PdesParams,
};
use lsr::core::{extract, Config, StageSnapshot};
use lsr::lint::{lint_stages, lint_structure, lint_trace, LintOptions, Severity};
use lsr::trace::{
    EntryId, EventKind, Kind, PeId, TaskId, Time, Trace, TraceBuilder, ValidationError,
};

/// Collects the codes a trace-only lint run reports.
fn trace_codes(tr: &Trace) -> Vec<&'static str> {
    let opts = LintOptions { check_structure: false, ..LintOptions::default() };
    lint_trace(tr, &opts).diagnostics.iter().map(|d| d.code).collect()
}

/// A small hand-built trace exercising every record kind: two PEs, two
/// messages, a spontaneous second task on PE 0, and an idle span.
///
/// ```text
///   pe0:  t0 [0,4]  --m0(@1)--> t1 [10,12] on pe1
///                   --m1(@2)--> t2 [13,15] on pe1
///         t3 [5,6]  (spontaneous)
///   pe1:  idle [0,10]
/// ```
fn base() -> (Trace, [lsr::trace::MsgId; 2]) {
    let mut b = TraceBuilder::new(2);
    let app = b.add_array("a", Kind::Application);
    let c0 = b.add_chare(app, 0, PeId(0));
    let c1 = b.add_chare(app, 1, PeId(1));
    let e = b.add_entry("m", None);
    let t0 = b.begin_task(c0, e, PeId(0), Time(0));
    let m0 = b.record_send(t0, Time(1), c1, e);
    let m1 = b.record_send(t0, Time(2), c1, e);
    b.end_task(t0, Time(4));
    let t3 = b.begin_task(c0, e, PeId(0), Time(5));
    b.end_task(t3, Time(6));
    let t1 = b.begin_task_from(c1, e, PeId(1), Time(10), m0);
    b.end_task(t1, Time(12));
    let t2 = b.begin_task_from(c1, e, PeId(1), Time(13), m1);
    b.end_task(t2, Time(15));
    b.add_idle(PeId(1), Time(0), Time(10));
    let tr = b.build().expect("base trace is valid");
    assert!(trace_codes(&tr).is_empty(), "base must lint clean");
    (tr, [m0, m1])
}

// ---- T codes: one corruption per ValidationError variant. -----------

#[test]
fn t001_open_task_is_caught_at_build_time() {
    // An unclosed task never becomes a Trace; the builder refuses it
    // with the error the linter labels T001.
    let mut b = TraceBuilder::new(1);
    let app = b.add_array("a", Kind::Application);
    let c0 = b.add_chare(app, 0, PeId(0));
    let e = b.add_entry("m", None);
    b.begin_task(c0, e, PeId(0), Time(0));
    let err = b.build().expect_err("open task must fail the build");
    assert!(matches!(err, ValidationError::OpenTask(_)));
    let d = lsr::lint::diagnostic_for(&err);
    assert_eq!(d.code, "T001");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn t002_absurd_pe_count() {
    let (mut tr, _) = base();
    tr.pe_count = (1 << 20) + 1;
    assert_eq!(trace_codes(&tr), ["T002"]);
}

#[test]
fn t003_id_table_mismatch() {
    let (mut tr, _) = base();
    tr.entries[0].id = EntryId(3);
    assert_eq!(trace_codes(&tr), ["T003"]);
}

#[test]
fn t004_dangling_reference() {
    let (mut tr, _) = base();
    tr.tasks[0].entry = EntryId(99);
    assert_eq!(trace_codes(&tr), ["T004"]);
}

#[test]
fn t005_negative_task_span() {
    let (mut tr, _) = base();
    tr.tasks[1].begin = Time(7); // t3 was [5,6]
    assert_eq!(trace_codes(&tr), ["T005"]);
}

#[test]
fn t006_event_outside_task() {
    let (mut tr, _) = base();
    // Push t1's sink receive past the end of the task span.
    let sink = tr.tasks[2].sink.expect("t1 has a sink");
    tr.events[sink.index()].time = Time(20);
    assert!(trace_codes(&tr).contains(&"T006"));
}

#[test]
fn t007_sink_not_at_begin() {
    let (mut tr, _) = base();
    // Keep the sink inside the span but off the begin instant.
    let sink = tr.tasks[2].sink.expect("t1 has a sink");
    tr.events[sink.index()].time = Time(11);
    assert_eq!(trace_codes(&tr), ["T007"]);
}

#[test]
fn t008_sends_out_of_order() {
    let (mut tr, _) = base();
    tr.tasks[0].sends.swap(0, 1);
    assert_eq!(trace_codes(&tr), ["T008"]);
}

#[test]
fn t009_inconsistent_message() {
    let (mut tr, m) = base();
    tr.msgs[m[0].index()].send_time = Time(3); // send event says 1
    assert_eq!(trace_codes(&tr), ["T009"]);
}

#[test]
fn t010_overlapping_tasks() {
    let (mut tr, _) = base();
    tr.tasks[1].begin = Time(3); // t3 now starts inside t0 [0,4]
    assert_eq!(trace_codes(&tr), ["T010"]);
}

#[test]
fn t011_bad_idle_span() {
    let (mut tr, _) = base();
    tr.idles[0].end = Time(0);
    assert_eq!(trace_codes(&tr), ["T011"]);
}

// ---- H codes: corruptions the per-record validator cannot see. ------

#[test]
fn h001_receive_before_send() {
    let (mut tr, m) = base();
    // Slide t1 wholly before m0's send instant (consistently: begin,
    // end, sink event time, and the message's recv time all move, so
    // every T check still passes).
    let sink = tr.tasks[2].sink.expect("t1 has a sink");
    tr.tasks[2].begin = Time(0);
    tr.tasks[2].end = Time(1);
    tr.events[sink.index()].time = Time(0);
    tr.msgs[m[0].index()].recv_time = Some(Time(0));
    let codes = trace_codes(&tr);
    assert_eq!(codes, ["H001"], "only the causality lint sees this");
}

#[test]
fn h002_happened_before_cycle() {
    // t0 (pe0) -> t1 (pe1) -> t2 (pe0); rewire m1 to awaken t0 instead
    // of t2, keeping every per-record invariant intact: the cycle
    // t0 -> t1 -> t0 is only visible to the happened-before pass.
    let mut b = TraceBuilder::new(2);
    let app = b.add_array("a", Kind::Application);
    let c0 = b.add_chare(app, 0, PeId(0));
    let c1 = b.add_chare(app, 1, PeId(1));
    let e = b.add_entry("m", None);
    let t0 = b.begin_task(c0, e, PeId(0), Time(0));
    let m0 = b.record_send(t0, Time(1), c1, e);
    b.end_task(t0, Time(2));
    let t1 = b.begin_task_from(c1, e, PeId(1), Time(3), m0);
    let m1 = b.record_send(t1, Time(4), c0, e);
    b.end_task(t1, Time(5));
    let t2 = b.begin_task_from(c0, e, PeId(0), Time(6), m1);
    b.end_task(t2, Time(8));
    let mut tr = b.build().unwrap();
    let sink = tr.tasks[t2.index()].sink.expect("t2 has a sink");
    tr.events[sink.index()].task = t0;
    tr.events[sink.index()].time = Time(0);
    tr.tasks[t0.index()].sink = Some(sink);
    tr.tasks[t2.index()].sink = None;
    tr.msgs[m1.index()].recv_task = Some(t0);
    tr.msgs[m1.index()].recv_time = Some(Time(0));
    let codes = trace_codes(&tr);
    // The rewired message is also a receive-before-send, so both
    // causality lints fire.
    assert_eq!(codes, ["H001", "H002"]);
}

#[test]
fn h003_untraced_dependency_with_candidate() {
    let (mut tr, m) = base();
    // Unmatch m0 and turn t1's sink into an untraced receive. t1 is no
    // longer ordered after t0, so it is exactly the paper's Fig. 24
    // candidate.
    let sink = tr.tasks[2].sink.expect("t1 has a sink");
    tr.events[sink.index()].kind = EventKind::Recv { msg: None };
    tr.msgs[m[0].index()].recv_task = None;
    tr.msgs[m[0].index()].recv_time = None;
    let opts = LintOptions { check_structure: false, ..LintOptions::default() };
    let report = lint_trace(&tr, &opts);
    assert_eq!(report.error_count(), 0, "{report}");
    assert_eq!(report.warning_count(), 1, "{report}");
    let d = &report.diagnostics[0];
    assert_eq!(d.code, "H003");
    assert!(d.message.contains("candidate"), "{}", d.message);
    assert!(d.message.contains(&TaskId(2).to_string()), "{}", d.message);
}

#[test]
fn h003_untraced_dependency_without_candidate() {
    let (mut tr, m) = base();
    // Unmatch m1; t2 stays ordered after t0 through m0 and pe1 program
    // order, so no plausible untraced receive remains.
    let sink = tr.tasks[3].sink.expect("t2 has a sink");
    tr.events[sink.index()].kind = EventKind::Recv { msg: None };
    tr.msgs[m[1].index()].recv_task = None;
    tr.msgs[m[1].index()].recv_time = None;
    let opts = LintOptions { check_structure: false, ..LintOptions::default() };
    let report = lint_trace(&tr, &opts);
    assert_eq!(report.warning_count(), 1, "{report}");
    assert!(report.diagnostics[0].message.contains("no receive candidate"));
}

// ---- S codes: corruptions of a recovered structure. -----------------

fn structure_sample() -> (Trace, lsr::core::LogicalStructure) {
    let tr = jacobi2d(&JacobiParams::fig8());
    let ls = extract(&tr, &Config::charm());
    assert!(lint_structure(&tr, &ls).is_clean());
    (tr, ls)
}

fn structure_codes(tr: &Trace, ls: &lsr::core::LogicalStructure) -> Vec<&'static str> {
    lint_structure(tr, ls).diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn s001_truncated_step_table() {
    let (tr, mut ls) = structure_sample();
    ls.step.pop();
    assert_eq!(structure_codes(&tr, &ls), ["S001"]);
}

#[test]
fn s002_phase_graph_cycle() {
    let (tr, mut ls) = structure_sample();
    assert!(ls.phase_succs.len() >= 2, "sample has several phases");
    for p in 1..ls.phase_succs.len() {
        ls.phase_succs[p].push(0);
    }
    assert!(structure_codes(&tr, &ls).contains(&"S002"));
}

/// A phase edge to a phase that does not exist is a table-size
/// violation, not an index panic.
#[test]
fn s001_phase_edge_out_of_range() {
    let (tr, mut ls) = structure_sample();
    let n = ls.phases.len() as u32;
    ls.phase_succs[0].push(n);
    assert_eq!(structure_codes(&tr, &ls), ["S001"]);
}

/// A phase graph with more rows than phases is a table-size
/// violation, not an index panic.
#[test]
fn s001_phase_table_longer_than_phases() {
    let (tr, mut ls) = structure_sample();
    ls.phase_succs.push(vec![0]);
    assert_eq!(structure_codes(&tr, &ls), ["S001"]);
}

#[test]
fn s003_chare_step_collision() {
    let (tr, mut ls) = structure_sample();
    // Give two events of one chare the same phase/step assignment.
    let mut by_chare = std::collections::HashMap::new();
    let pair =
        tr.event_ids().find_map(|e| by_chare.insert(tr.event_chare(e), e).map(|first| (first, e)));
    let (a, b) = pair.expect("some chare has two events");
    ls.phase_of_event[b.index()] = ls.phase_of_event[a.index()];
    ls.local_step[b.index()] = ls.local_step[a.index()];
    ls.step[b.index()] = ls.step[a.index()];
    assert!(structure_codes(&tr, &ls).contains(&"S003"));
}

#[test]
fn s004_leap_chare_overlap() {
    let (tr, mut ls) = structure_sample();
    let c = ls.phases[0].chares[0];
    let other = ls
        .phases
        .iter()
        .position(|ph| ph.id != ls.phases[0].id && ph.chares.contains(&c))
        .expect("chare appears in several phases");
    ls.phases[other].leap = ls.phases[0].leap;
    assert!(structure_codes(&tr, &ls).contains(&"S004"));
}

#[test]
fn s005_message_split_across_phases() {
    let (tr, mut ls) = structure_sample();
    let m = tr.msgs.iter().find(|m| m.recv_task.is_some()).expect("matched msg");
    let sink = tr.task(m.recv_task.unwrap()).sink.unwrap();
    let p = ls.phase_of_event[sink.index()];
    let other = (0..ls.phases.len() as u32).find(|&q| q != p).expect("several phases");
    ls.phase_of_event[sink.index()] = other;
    assert!(structure_codes(&tr, &ls).contains(&"S005"));
}

#[test]
fn s006_offset_inside_predecessor() {
    let (tr, mut ls) = structure_sample();
    let (p, s) = ls
        .phase_succs
        .iter()
        .enumerate()
        .find_map(|(p, ss)| ss.first().map(|&s| (p, s)))
        .expect("sample has phase edges");
    let pend = ls.phases[p].offset + ls.phases[p].max_local;
    // Pull the successor phase back onto its predecessor's end,
    // shifting its events too so the step identity still holds and the
    // offset check is what fires.
    let delta = ls.phases[s as usize].offset - pend;
    ls.phases[s as usize].offset = pend;
    for e in tr.event_ids() {
        if ls.phase_of_event[e.index()] == s {
            ls.step[e.index()] -= delta;
        }
    }
    assert!(structure_codes(&tr, &ls).contains(&"S006"));
}

// ---- P codes. -------------------------------------------------------

#[test]
fn p001_cyclic_stage_snapshot() {
    let snaps = [
        StageSnapshot { stage: "atoms", partitions: 9, is_dag: true, cycle: Vec::new() },
        StageSnapshot {
            stage: "dependency_merge",
            partitions: 4,
            is_dag: false,
            cycle: vec![1, 3],
        },
    ];
    let diags = lint_stages(&snaps);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "P001");
    assert_eq!(diags[0].severity, Severity::Error);
}

// ---- No false positives: every proxy app lints clean. ---------------

#[test]
fn all_proxy_apps_lint_clean() {
    let charm = Config::charm();
    let mpi = Config::mpi();
    let cases: Vec<(&str, Trace, Config)> = vec![
        ("jacobi", jacobi2d(&JacobiParams::fig15()), charm.clone()),
        ("lulesh-charm", lulesh_charm(&LuleshParams::fig16_charm()), charm.clone()),
        ("lulesh-mpi", lulesh_mpi(&LuleshParams::fig16_mpi()), mpi.clone()),
        ("lassen", lassen_charm(&LassenParams::chares8()), charm.clone()),
        ("pdes", pdes_charm(&PdesParams::fig24()), charm.clone()),
        (
            "mergetree",
            mergetree_mpi(&MergeTreeParams::small()),
            mpi.clone().with_process_order(false),
        ),
        ("bt", bt_mpi(&BtParams::fig1()), mpi.clone()),
        ("divcon", divcon_charm(&DivConParams::small()), charm.clone()),
    ];
    for (name, tr, cfg) in cases {
        let report = lint_trace(&tr, &LintOptions::with_config(cfg));
        assert!(report.is_clean(), "{name} must lint clean:\n{report}");
        assert!(report.structure_checked, "{name} structure passes must run");
    }
}

// ---- R codes: races and untraced-unordered pairs. -------------------

use lsr::lint::analyze_races;

/// Codes the race analyzer reports for a trace under a config.
fn race_codes(tr: &Trace, cfg: &Config, limit: usize) -> Vec<&'static str> {
    analyze_races(tr, cfg, limit).expect("acyclic").diagnostics.iter().map(|d| d.code).collect()
}

/// One sender fans `n` messages out to a second chare; entry serial
/// numbers per receive are given. Every adjacent receive pair is
/// causally concurrent and message-triggered — the minimal race.
fn fan_out(serials: &[Option<u32>]) -> Trace {
    let mut b = TraceBuilder::new(2);
    let app = b.add_array("a", Kind::Application);
    let c0 = b.add_chare(app, 0, PeId(0));
    let c1 = b.add_chare(app, 1, PeId(1));
    let go = b.add_entry("go", None);
    let entries: Vec<EntryId> =
        serials.iter().enumerate().map(|(i, s)| b.add_entry(&format!("e{i}"), *s)).collect();
    let t0 = b.begin_task(c0, go, PeId(0), Time(0));
    let msgs: Vec<_> = entries
        .iter()
        .enumerate()
        .map(|(i, &e)| b.record_send(t0, Time(i as u64 + 1), c1, e))
        .collect();
    b.end_task(t0, Time(serials.len() as u64 + 1));
    let mut at = serials.len() as u64 + 2;
    for (&e, m) in entries.iter().zip(msgs) {
        let t = b.begin_task_from(c1, e, PeId(1), Time(at), m);
        b.end_task(t, Time(at + 1));
        at += 3;
    }
    b.build().expect("fan-out trace is valid")
}

#[test]
fn r001_benign_race_fires_exactly_once() {
    let codes = race_codes(&fan_out(&[None, None]), &Config::charm(), 16);
    assert_eq!(codes, ["R001"]);
}

#[test]
fn r002_structure_affecting_race_fires_exactly_once() {
    // One receive runs a serial-numbered entry: the racy plain receive
    // could be absorbed into it under the other delivery order.
    let codes = race_codes(&fan_out(&[Some(1), None]), &Config::charm(), 16);
    assert_eq!(codes, ["R002"]);
}

#[test]
fn r003_pe_stream_race_fires_exactly_once() {
    // The fan-out targets two runtime chares on one PE: the pair
    // shares the PE's scheduler stream, not a chare.
    let mut b = TraceBuilder::new(2);
    let app = b.add_array("a", Kind::Application);
    let rt = b.add_array("mgr", Kind::Runtime);
    let ca = b.add_chare(app, 0, PeId(1));
    let r0 = b.add_chare(rt, 0, PeId(0));
    let r1 = b.add_chare(rt, 1, PeId(0));
    let go = b.add_entry("go", None);
    let tick = b.add_entry("tick", None);
    let t0 = b.begin_task(ca, go, PeId(1), Time(0));
    let m0 = b.record_send(t0, Time(1), r0, tick);
    let m1 = b.record_send(t0, Time(2), r1, tick);
    b.end_task(t0, Time(3));
    let t1 = b.begin_task_from(r0, tick, PeId(0), Time(4), m0);
    b.end_task(t1, Time(5));
    let t2 = b.begin_task_from(r1, tick, PeId(0), Time(6), m1);
    b.end_task(t2, Time(7));
    let tr = b.build().unwrap();
    let codes = race_codes(&tr, &Config::charm(), 16);
    assert_eq!(codes, ["R003"]);
}

#[test]
fn r004_untraced_pair_fires_exactly_once() {
    // An unmatched send toward a chare whose two tasks are spontaneous
    // and concurrent: no race (neither member has a traced trigger),
    // one R004, cross-linked to the unmatched message's candidate.
    let mut b = TraceBuilder::new(2);
    let app = b.add_array("a", Kind::Application);
    let c0 = b.add_chare(app, 0, PeId(0));
    let c1 = b.add_chare(app, 1, PeId(1));
    let go = b.add_entry("go", None);
    let work = b.add_entry("work", None);
    let t0 = b.begin_task(c1, go, PeId(1), Time(0));
    let m0 = b.record_send(t0, Time(1), c0, work);
    b.end_task(t0, Time(2));
    let t1 = b.begin_task(c0, work, PeId(0), Time(3));
    b.end_task(t1, Time(4));
    let t2 = b.begin_task(c0, work, PeId(0), Time(5));
    b.end_task(t2, Time(6));
    let tr = b.build().expect("unmatched send is valid");
    let report = analyze_races(&tr, &Config::charm(), 16).expect("acyclic");
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
    assert_eq!(codes, ["R004"], "{report}");
    assert!(report.races.is_empty());
    assert_eq!(report.untraced.len(), 1);
    assert!(
        report.diagnostics[0].message.contains(&m0.to_string()),
        "R004 names the unmatched message: {}",
        report.diagnostics[0].message
    );
}

#[test]
fn r005_truncation_fires_exactly_once() {
    // Three racy pairs, limit 1: one R001 plus exactly one R005.
    let codes = race_codes(&fan_out(&[None, None, None, None]), &Config::charm(), 1);
    assert_eq!(codes, ["R001", "R005"]);
}

/// The Fig. 24 PDES preset, mutated the way the paper's scenario
/// degrades: unmatching a traced message turns its receiver into an
/// H003 untraced-dependency candidate, and the race analyzer must
/// cross-link that candidate's R004 pair to the same message.
#[test]
fn pdes_h003_candidates_cross_link_to_r004() {
    let tr = pdes_charm(&PdesParams::fig24());
    let cfg = Config::charm();
    let opts = LintOptions { check_structure: false, ..LintOptions::default() };
    let mut linked = false;
    for (mi, m) in tr.msgs.iter().enumerate() {
        let Some(rt) = m.recv_task else { continue };
        let mut mutated = tr.clone();
        let sink = mutated.tasks[rt.index()].sink.expect("matched receiver has a sink");
        mutated.events[sink.index()].kind = EventKind::Recv { msg: None };
        mutated.msgs[mi].recv_task = None;
        mutated.msgs[mi].recv_time = None;
        // The trace lints with an H003 for this message...
        let lint = lint_trace(&mutated, &opts);
        let h003 = lint
            .diagnostics
            .iter()
            .any(|d| d.code == "H003" && d.message.contains(&m.id.to_string()));
        if !h003 {
            continue;
        }
        // ...and when its candidate sits in a concurrent pair, the race
        // analyzer reports the same message in an R004.
        let report = analyze_races(&mutated, &cfg, 100_000).expect("acyclic");
        if report
            .diagnostics
            .iter()
            .any(|d| d.code == "R004" && d.message.contains(&m.id.to_string()))
        {
            linked = true;
            break;
        }
    }
    assert!(linked, "some unmatched pdes message must cross-link H003 to R004");
}

/// Every Charm++ proxy preset races (over-decomposition guarantees
/// concurrent deliveries), every deterministic MPI preset does not,
/// and no preset has a structure-affecting race.
#[test]
fn preset_race_expectations() {
    let charm = Config::charm();
    let mpi = Config::mpi();
    let cases: Vec<(&str, Trace, Config, bool)> = vec![
        ("jacobi", jacobi2d(&JacobiParams::fig15()), charm.clone(), true),
        ("lulesh-charm", lulesh_charm(&LuleshParams::fig16_charm()), charm.clone(), true),
        ("lassen", lassen_charm(&LassenParams::chares8()), charm.clone(), true),
        ("pdes", pdes_charm(&PdesParams::fig24()), charm.clone(), true),
        ("divcon", divcon_charm(&DivConParams::small()), charm.clone(), true),
        ("lulesh-mpi", lulesh_mpi(&LuleshParams::fig16_mpi()), mpi.clone(), false),
        (
            "mergetree",
            mergetree_mpi(&MergeTreeParams::small()),
            mpi.clone().with_process_order(false),
            false,
        ),
        ("bt", bt_mpi(&BtParams::fig1()), mpi.clone(), false),
    ];
    for (name, tr, cfg, expect_races) in cases {
        let report = analyze_races(&tr, &cfg, 100_000).expect("acyclic");
        assert_eq!(!report.races.is_empty(), expect_races, "{name}: {report}");
        assert_eq!(report.structure_affecting_count(), 0, "{name}: {report}");
    }
}

//! The lint passes: trace-level (T…), happened-before (H…),
//! structure (S…), and pipeline (P…) codes. The full table lives in
//! `docs/lints.md`.

use crate::diag::{Diagnostic, Location, Severity};
use crate::hb::HbIndex;
use lsr_core::{
    ExtractError, InvariantViolation, LogicalStructure, StageSnapshot, StructureVerifier,
};
use lsr_trace::{EventKind, IngestCode, IngestReport, Trace, TraceIndex, ValidationError};

/// T-codes: every [`ValidationError`] maps to one coded diagnostic.
pub(crate) fn trace_passes(trace: &Trace, limit: usize) -> Vec<Diagnostic> {
    let errs = match lsr_trace::validate_with_limit(trace, limit) {
        Ok(()) => return Vec::new(),
        Err(errs) => errs,
    };
    errs.iter().map(trace_diag).collect()
}

/// The T-code diagnostic for one validation error.
pub(crate) fn trace_diag(e: &ValidationError) -> Diagnostic {
    let (code, name, location, explanation) = match *e {
        ValidationError::OpenTask(t) => (
            "T001",
            "OpenTask",
            Location::Task { task: t },
            "a task was begun but never closed; the trace was truncated or the \
             writer lost an end record",
        ),
        ValidationError::PeCountTooLarge(_) => (
            "T002",
            "PeCountTooLarge",
            Location::Global,
            "the header's PE count exceeds the supported maximum; the file is \
             corrupt or hostile",
        ),
        ValidationError::IdMismatch(_, _) => (
            "T003",
            "IdMismatch",
            Location::Global,
            "a record's id differs from its table position; the tables were \
             reordered or truncated",
        ),
        ValidationError::DanglingRef(_, _) => (
            "T004",
            "DanglingRef",
            Location::Global,
            "a record references an id beyond its table; records were dropped \
             or the file was stitched from mismatched parts",
        ),
        ValidationError::NegativeTaskSpan(t) => (
            "T005",
            "NegativeTaskSpan",
            Location::Task { task: t },
            "a task ends before it begins; timestamps are corrupt or clocks \
             ran backwards",
        ),
        ValidationError::EventOutsideTask(ev) => (
            "T006",
            "EventOutsideTask",
            Location::Event { event: ev },
            "a dependency event's timestamp lies outside its serial block's \
             span; events were misattributed",
        ),
        ValidationError::SinkNotAtBegin(t) => (
            "T007",
            "SinkNotAtBegin",
            Location::Task { task: t },
            "the receive that awoke a task is not at the task's begin time; \
             the block structure is inconsistent",
        ),
        ValidationError::SendsOutOfOrder(t) => (
            "T008",
            "SendsOutOfOrder",
            Location::Task { task: t },
            "a task's send events are not in time order; the writer reordered \
             records",
        ),
        ValidationError::InconsistentMessage(m) => (
            "T009",
            "DanglingMessage",
            Location::Msg { msg: m },
            "a message's endpoints disagree (send kind, sink backlink, or \
             timestamps); the message table is corrupt",
        ),
        ValidationError::OverlappingTasks(a, b) => (
            "T010",
            "OverlappingTasks",
            Location::Task { task: a.min(b) },
            "two serial blocks overlap on one PE; serial blocks are \
             uninterruptible, so the trace is inconsistent",
        ),
        ValidationError::BadIdleSpan(i) => (
            "T011",
            "BadIdleSpan",
            Location::Idle { index: i },
            "an idle span is empty, inverted, or on an out-of-range PE",
        ),
    };
    Diagnostic {
        code,
        name,
        severity: Severity::Error,
        location,
        message: e.to_string(),
        explanation,
    }
}

/// H-codes: happened-before analysis over program order + messages.
/// `rec` receives the index's reachability-query tally
/// (`lint.hb.queries`) once the passes finish.
pub(crate) fn hb_passes(
    trace: &Trace,
    ix: &TraceIndex,
    rec: &lsr_obs::Recorder,
    limit: usize,
) -> Vec<Diagnostic> {
    let hb = HbIndex::build(trace, ix);
    let out = hb_diagnostics(trace, &hb, limit);
    rec.add("lint.hb.queries", hb.query_count());
    out
}

fn hb_diagnostics(trace: &Trace, hb: &HbIndex, limit: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // H001 — a matched message whose receiving task begins before the
    // send happened. validate() checks each endpoint's local
    // consistency; this is the cross-task causality check.
    for m in &trace.msgs {
        if out.len() >= limit {
            return out;
        }
        if let Some(rt) = m.recv_task {
            if trace.task(rt).begin < m.send_time {
                out.push(Diagnostic {
                    code: "H001",
                    name: "ReceiveBeforeSend",
                    severity: Severity::Error,
                    location: Location::Msg { msg: m.id },
                    message: format!(
                        "message {} is received by task {rt} at {} before it was sent at {}",
                        m.id,
                        trace.task(rt).begin,
                        m.send_time
                    ),
                    explanation: "a message arrives before it was sent; per-PE clocks \
                                  are skewed or the message table is corrupt",
                });
            }
        }
    }

    // H002 — the happened-before relation has a cycle.
    let cyc = hb.cycle();
    if !cyc.is_empty() && out.len() < limit {
        let shown: Vec<String> = cyc.iter().take(8).map(|t| t.to_string()).collect();
        out.push(Diagnostic {
            code: "H002",
            name: "HbCycle",
            severity: Severity::Error,
            location: Location::Task { task: cyc[0] },
            message: format!(
                "happened-before cycle through {} task(s): {}{}",
                cyc.len(),
                shown.join(" -> "),
                if cyc.len() > 8 { " -> ..." } else { "" }
            ),
            explanation: "program order and message edges form a cycle, which no \
                          real execution can produce; the trace is corrupt",
        });
    }

    // H003 — untraced dependency candidates (paper Fig. 24): a send
    // whose receive side was never traced, paired with a plausible
    // untraced receive (a spontaneous task on the destination chare
    // starting after the send, not already ordered after it).
    if cyc.is_empty() {
        for m in &trace.msgs {
            if out.len() >= limit {
                return out;
            }
            if m.recv_task.is_some() {
                continue;
            }
            let candidate = untraced_candidate(trace, hb, m);
            let message = match candidate {
                Some(t) => format!(
                    "message {} to chare {} was never matched; task {} (begin {}) is an \
                     untraced-receive candidate",
                    m.id,
                    m.dst_chare,
                    t,
                    trace.task(t).begin
                ),
                None => format!(
                    "message {} to chare {} was never matched and no receive candidate \
                     exists",
                    m.id, m.dst_chare
                ),
            };
            out.push(Diagnostic {
                code: "H003",
                name: "UntracedDependencyCandidate",
                severity: Severity::Warning,
                location: Location::Msg { msg: m.id },
                message,
                explanation: "the runtime delivered a message whose receive was not \
                              traced (the paper's Fig. 24 PDES class); recovered \
                              structure may miss a dependency",
            });
        }
    }
    out
}

/// The untraced-receive candidate for an unmatched message — shared by
/// H003 and the race pass's R004 cross-link: the earliest spontaneous
/// task on the destination chare that starts after the send and is not
/// already ordered after the sender.
pub(crate) fn untraced_candidate(
    trace: &Trace,
    hb: &HbIndex,
    m: &lsr_trace::MsgRec,
) -> Option<lsr_trace::TaskId> {
    let from = trace.event(m.send_event).task;
    trace
        .tasks
        .iter()
        .filter(|t| {
            // Spontaneous: no recorded trigger — either no sink at all
            // (the builder's spontaneous form) or an untriggered
            // receive (a tracer that logged the receive but lost the
            // message).
            t.chare == m.dst_chare
                && t.begin >= m.send_time
                && t.sink
                    .is_none_or(|s| matches!(trace.event(s).kind, EventKind::Recv { msg: None }))
                && !hb.happens_before(from, t.id)
        })
        .min_by_key(|t| (t.begin, t.id))
        .map(|t| t.id)
}

/// S-codes: final-structure invariants via [`StructureVerifier`].
pub(crate) fn structure_passes(
    trace: &Trace,
    ls: &LogicalStructure,
    limit: usize,
) -> Vec<Diagnostic> {
    StructureVerifier::new()
        .with_limit(limit.max(1))
        .check_structure(trace, ls)
        .into_iter()
        .map(structure_diag)
        .collect()
}

/// The S-code diagnostic for one invariant violation.
fn structure_diag(v: InvariantViolation) -> Diagnostic {
    let (name, location, explanation) = match &v {
        InvariantViolation::TableSizeMismatch
        | InvariantViolation::EventWithoutPhase { .. }
        | InvariantViolation::LocalStepExceedsMax { .. }
        | InvariantViolation::GlobalStepMismatch { .. } => {
            let loc = match &v {
                InvariantViolation::EventWithoutPhase { event }
                | InvariantViolation::LocalStepExceedsMax { event }
                | InvariantViolation::GlobalStepMismatch { event } => {
                    Location::Event { event: *event }
                }
                _ => Location::Global,
            };
            (
                "InconsistentStepTables",
                loc,
                "the per-event phase/step tables disagree with each other or \
                 the trace; the structure was truncated or hand-edited",
            )
        }
        InvariantViolation::PhaseGraphCycle { .. } => (
            "PhaseGraphCycle",
            Location::Global,
            "the phase DAG contains a cycle; ordering is undefined",
        ),
        InvariantViolation::ChareStepCollision { b, .. } => (
            "NonMonotoneChareSteps",
            Location::Event { event: *b },
            "two events of one chare share a global step, breaking the \
             single-path-per-chare property (§3.1.4)",
        ),
        InvariantViolation::LeapChareOverlap { b, .. } => (
            "LeapChareOverlap",
            Location::Phase { phase: *b },
            "two phases at the same leap share a chare, violating §3.1.4 \
             property (1)",
        ),
        InvariantViolation::MessageSpansPhases { msg, .. }
        | InvariantViolation::MessageDoesNotAdvance { msg } => (
            "MessageStepViolation",
            Location::Msg { msg: *msg },
            "a matched message crosses phases or fails to advance a step, \
             violating the step-assignment invariant (§3.2)",
        ),
        InvariantViolation::OffsetBeforePredecessor { succ, .. } => (
            "PhaseOffsetOverlap",
            Location::Phase { phase: *succ },
            "a phase's global-step offset does not clear its predecessor's \
             end; the phase DAG and offsets disagree",
        ),
        InvariantViolation::Truncated { .. } => (
            "VerifierTruncated",
            Location::Global,
            "the verifier stopped collecting at its limit; per-kind \
             violation counts are lower bounds (raise --limit for more)",
        ),
    };
    let severity = match &v {
        InvariantViolation::Truncated { .. } => Severity::Warning,
        _ => Severity::Error,
    };
    Diagnostic { code: v.code(), name, severity, location, message: v.to_string(), explanation }
}

/// P-codes: pipeline-stage observations.
pub(crate) fn stage_passes(snapshots: &[StageSnapshot]) -> Vec<Diagnostic> {
    snapshots
        .iter()
        .filter(|s| !s.is_dag)
        .map(|s| {
            let shown: Vec<String> = s.cycle.iter().take(8).map(|p| p.to_string()).collect();
            let witness = if s.cycle.is_empty() {
                String::new()
            } else {
                format!(
                    "; cycle through {} partition(s): {}{}",
                    s.cycle.len(),
                    shown.join(" -> "),
                    if s.cycle.len() > 8 { " -> ..." } else { "" }
                )
            };
            Diagnostic {
                code: "P001",
                name: "StageNotADag",
                severity: Severity::Error,
                location: Location::Stage { stage: s.stage.to_string() },
                message: format!(
                    "partition graph has a cycle after stage '{}' ({} partitions){witness}",
                    s.stage, s.partitions
                ),
                explanation: "every merge stage ends with a cycle merge, so the \
                          partition graph must be a DAG afterwards (DESIGN §7 \
                          invariant 1)",
            }
        })
        .collect()
}

/// P002/P003: the extraction pipeline aborted with a typed error
/// instead of producing a structure.
pub(crate) fn extract_error_diag(e: &ExtractError) -> Diagnostic {
    match *e {
        ExtractError::StepCycle { phase, .. } => Diagnostic {
            code: "P002",
            name: "ExtractAborted",
            severity: Severity::Error,
            location: Location::Phase { phase },
            message: e.to_string(),
            explanation: "step assignment needs a replay order, which exists only \
                          when timestamps respect causality; validated traces \
                          cannot trigger this, unchecked or salvaged ones can",
        },
        ExtractError::PhaseCycle { ref cycle } => Diagnostic {
            code: "P003",
            name: "PhaseGraphCycle",
            severity: Severity::Error,
            location: Location::Phase { phase: cycle.first().copied().unwrap_or(0) },
            message: e.to_string(),
            explanation: "every merge stage ends with a cycle merge, so the phase \
                          graph must be a DAG when leaps are assigned; a typed \
                          PhaseCycle witness (instead of the old panic) means the \
                          partition state is internally inconsistent",
        },
    }
}

/// I-codes: ingestion findings from a salvage read, re-rendered as lint
/// diagnostics so `lsr lint --salvage` shows one merged report.
pub(crate) fn ingest_diags(report: &IngestReport) -> Vec<Diagnostic> {
    fn name_of(code: IngestCode) -> &'static str {
        match code {
            IngestCode::MalformedRecord => "MalformedRecord",
            IngestCode::DuplicateId => "DuplicateId",
            IngestCode::DanglingReference => "DanglingReference",
            IngestCode::DowngradedLink => "DowngradedLink",
            IngestCode::BadFileHeader => "BadFileHeader",
            IngestCode::TableCompacted => "TableCompacted",
        }
    }
    report
        .diagnostics
        .iter()
        .map(|d| Diagnostic {
            code: d.code.code(),
            name: name_of(d.code),
            severity: Severity::Warning,
            location: Location::Input { file: d.file.clone(), line: d.line },
            message: d.message.clone(),
            explanation: d.code.explanation(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_trace::{Kind, PeId, TaskId, Time, TraceBuilder};

    #[test]
    fn every_validation_error_has_a_distinct_code() {
        let samples = [
            ValidationError::OpenTask(TaskId(0)),
            ValidationError::PeCountTooLarge(0),
            ValidationError::IdMismatch("t", 0),
            ValidationError::DanglingRef("t", 0),
            ValidationError::NegativeTaskSpan(TaskId(0)),
            ValidationError::EventOutsideTask(lsr_trace::EventId(0)),
            ValidationError::SinkNotAtBegin(TaskId(0)),
            ValidationError::SendsOutOfOrder(TaskId(0)),
            ValidationError::InconsistentMessage(lsr_trace::MsgId(0)),
            ValidationError::OverlappingTasks(TaskId(0), TaskId(1)),
            ValidationError::BadIdleSpan(0),
        ];
        let codes: Vec<&str> = samples.iter().map(|e| trace_diag(e).code).collect();
        let mut unique = codes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), samples.len(), "codes collide: {codes:?}");
        assert!(codes.iter().all(|c| c.starts_with('T')));
    }

    #[test]
    fn p002_names_the_phase_and_cause() {
        let d = extract_error_diag(&ExtractError::StepCycle {
            phase: 3,
            cycle: vec![lsr_trace::EventId(4), lsr_trace::EventId(7)],
        });
        assert_eq!(d.code, "P002");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.location, Location::Phase { phase: 3 });
        assert!(d.message.contains("phase 3"), "{}", d.message);
    }

    #[test]
    fn p003_names_a_cycle_member_and_the_witness() {
        let d = extract_error_diag(&ExtractError::PhaseCycle { cycle: vec![5, 2, 9] });
        assert_eq!(d.code, "P003");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.location, Location::Phase { phase: 5 });
        assert!(d.message.contains("5 -> 2 -> 9"), "{}", d.message);
    }

    #[test]
    fn stage_pass_flags_only_cyclic_snapshots() {
        let snaps = [
            StageSnapshot { stage: "atoms", partitions: 5, is_dag: true, cycle: Vec::new() },
            StageSnapshot { stage: "infer", partitions: 3, is_dag: false, cycle: vec![2, 0] },
        ];
        let diags = stage_passes(&snaps);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "P001");
        assert!(diags[0].message.contains("infer"), "{}", diags[0].message);
    }

    #[test]
    fn h001_fires_on_receive_before_send() {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(1));
        let e = b.add_entry("m", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(10));
        let m = b.record_send(t0, Time(11), c1, e);
        b.end_task(t0, Time(12));
        let t1 = b.begin_task_from(c1, e, PeId(1), Time(13), m);
        b.end_task(t1, Time(14));
        let mut tr = b.build().unwrap();
        // Corrupt the send time to be after the receive.
        tr.msgs[m.index()].send_time = Time(20);
        tr.events[tr.msgs[m.index()].send_event.index()].time = Time(20);
        let ix = tr.index();
        let diags = hb_passes(&tr, &ix, &lsr_obs::Recorder::disabled(), 64);
        assert!(diags.iter().any(|d| d.code == "H001"), "{diags:?}");
    }
}

//! Release-mode verification of a recovered [`LogicalStructure`].
//!
//! [`LogicalStructure::verify`] (the historical API) reports the
//! *first* violation as a string; [`StructureVerifier`] underneath it
//! collects *all* violations as typed [`InvariantViolation`]s, so the
//! lint framework (`lsr-lint`) can report every problem with a code
//! and location instead of bailing at the first.
//!
//! The checks cover DESIGN §7 invariants 1–6 as they appear in the
//! final structure (invariant 7 concerns derived metrics and is
//! enforced by construction — `Dur` is unsigned and differential
//! durations subtract the per-step minimum — plus the metrics
//! property tests). Pipeline-internal forms of invariants 1–2 are
//! additionally re-checked during extraction when
//! [`Config::verify_invariants`](crate::Config::verify_invariants)
//! is set.

use crate::structure::LogicalStructure;
use lsr_trace::{ChareId, EventId, MsgId, Trace};
use std::collections::HashMap;

/// Default cap on collected violations (mirrors
/// `lsr_trace::DEFAULT_ERROR_LIMIT`).
pub const DEFAULT_VIOLATION_LIMIT: usize = 64;

/// One violated structural invariant.
///
/// `Display` renders the same messages `LogicalStructure::verify` has
/// always produced, so existing callers matching on substrings keep
/// working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantViolation {
    /// The per-event tables disagree with the trace's event count, or
    /// the phase graph has more rows than there are phases or names a
    /// phase that does not exist.
    TableSizeMismatch,
    /// An event's phase id is out of range.
    EventWithoutPhase {
        /// The offending event.
        event: EventId,
    },
    /// An event's local step exceeds its phase's `max_local`.
    LocalStepExceedsMax {
        /// The offending event.
        event: EventId,
    },
    /// An event's global step is not `phase.offset + local_step`.
    GlobalStepMismatch {
        /// The offending event.
        event: EventId,
    },
    /// The phase graph contains a cycle.
    PhaseGraphCycle {
        /// Members of one offending cycle, in edge order.
        cycle: Vec<u32>,
    },
    /// A successor phase starts at or before a predecessor's end.
    OffsetBeforePredecessor {
        /// Predecessor phase id.
        pred: u32,
        /// Successor phase id.
        succ: u32,
        /// Predecessor's last global step.
        pred_end: u64,
        /// Successor's offset.
        succ_offset: u64,
    },
    /// Two phases at the same leap share a chare (§3.1.4 property 1).
    LeapChareOverlap {
        /// First phase (lower id).
        a: u32,
        /// Second phase.
        b: u32,
        /// The shared chare.
        chare: ChareId,
        /// The common leap.
        leap: u32,
    },
    /// A matched message's send and receive lie in different phases.
    MessageSpansPhases {
        /// The message.
        msg: MsgId,
        /// Phase of the send event.
        send_phase: u32,
        /// Phase of the receive sink.
        recv_phase: u32,
    },
    /// A matched message's receive does not step past its send.
    MessageDoesNotAdvance {
        /// The message.
        msg: MsgId,
    },
    /// Two events of one chare share a global step.
    ChareStepCollision {
        /// Earlier-seen event.
        a: EventId,
        /// Later event.
        b: EventId,
        /// The chare.
        chare: ChareId,
        /// The shared step.
        step: u64,
    },
    /// Collection stopped at the verifier's limit; later checks did not
    /// run, so per-kind counts are lower bounds. Always the final
    /// element when present — never silent truncation.
    Truncated {
        /// The limit that fired.
        limit: usize,
    },
}

impl InvariantViolation {
    /// The lint code this violation maps to (see `docs/lints.md`).
    pub fn code(&self) -> &'static str {
        match self {
            InvariantViolation::TableSizeMismatch
            | InvariantViolation::EventWithoutPhase { .. }
            | InvariantViolation::LocalStepExceedsMax { .. }
            | InvariantViolation::GlobalStepMismatch { .. } => "S001",
            InvariantViolation::PhaseGraphCycle { .. } => "S002",
            InvariantViolation::ChareStepCollision { .. } => "S003",
            InvariantViolation::LeapChareOverlap { .. } => "S004",
            InvariantViolation::MessageSpansPhases { .. }
            | InvariantViolation::MessageDoesNotAdvance { .. } => "S005",
            InvariantViolation::OffsetBeforePredecessor { .. } => "S006",
            InvariantViolation::Truncated { .. } => "S007",
        }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvariantViolation::TableSizeMismatch => {
                write!(f, "event table sizes mismatch")
            }
            InvariantViolation::EventWithoutPhase { event } => {
                write!(f, "event {event} has no phase")
            }
            InvariantViolation::LocalStepExceedsMax { event } => {
                write!(f, "event {event} exceeds its phase's max local step")
            }
            InvariantViolation::GlobalStepMismatch { event } => {
                write!(f, "event {event} global step != offset + local")
            }
            InvariantViolation::PhaseGraphCycle { cycle } => {
                let shown: Vec<String> = cycle.iter().take(8).map(|p| p.to_string()).collect();
                write!(
                    f,
                    "phase graph has a cycle through {} phase(s): {}{}",
                    cycle.len(),
                    shown.join(" -> "),
                    if cycle.len() > 8 { " -> ..." } else { "" }
                )
            }
            InvariantViolation::OffsetBeforePredecessor { pred, succ, pred_end, succ_offset } => {
                write!(
                    f,
                    "phase {succ} starts at {succ_offset} but predecessor {pred} ends at {pred_end}"
                )
            }
            InvariantViolation::LeapChareOverlap { a, b, chare, leap } => {
                write!(f, "phases {a} and {b} overlap on chare {chare} at leap {leap}")
            }
            InvariantViolation::MessageSpansPhases { msg, send_phase, recv_phase } => {
                write!(f, "message {msg} spans phases {send_phase} and {recv_phase}")
            }
            InvariantViolation::MessageDoesNotAdvance { msg } => {
                write!(f, "message {msg} does not advance a step")
            }
            InvariantViolation::ChareStepCollision { a, b, chare, step } => {
                write!(f, "events {a} and {b} of chare {chare} share step {step}")
            }
            InvariantViolation::Truncated { limit } => {
                write!(f, "verification stopped at the {limit}-violation limit")
            }
        }
    }
}

/// Collects violations of the final-structure invariants.
#[derive(Debug, Clone)]
pub struct StructureVerifier {
    limit: usize,
}

impl Default for StructureVerifier {
    fn default() -> Self {
        StructureVerifier::new()
    }
}

impl StructureVerifier {
    /// A verifier collecting up to [`DEFAULT_VIOLATION_LIMIT`]
    /// violations.
    pub fn new() -> StructureVerifier {
        StructureVerifier { limit: DEFAULT_VIOLATION_LIMIT }
    }

    /// Overrides the collection cap (clamped to at least 1).
    pub fn with_limit(mut self, limit: usize) -> StructureVerifier {
        self.limit = limit.max(1);
        self
    }

    /// Checks every final-structure invariant, returning all
    /// violations found (empty = structure is consistent). Checks run
    /// in the same order `LogicalStructure::verify` historically used,
    /// so `first()` reproduces its message.
    pub fn check_structure(&self, trace: &Trace, ls: &LogicalStructure) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        macro_rules! emit {
            ($v:expr) => {
                out.push($v);
                if out.len() >= self.limit {
                    out.push(InvariantViolation::Truncated { limit: self.limit });
                    return out;
                }
            };
        }

        // Table sizes first: the remaining checks index these tables,
        // so nothing else can be checked safely if they mismatch. The
        // phase graph indexes `phases` by both ends of every edge.
        let nphases = ls.phases.len();
        if ls.phase_of_event.len() != trace.events.len()
            || ls.step.len() != trace.events.len()
            || ls.local_step.len() != trace.events.len()
            || ls.phase_succs.len() > nphases
            || ls.phase_succs.iter().flatten().any(|&s| s as usize >= nphases)
        {
            out.push(InvariantViolation::TableSizeMismatch);
            return out;
        }

        // Per-event phase / step identities.
        let mut phase_ok = true;
        for e in trace.event_ids() {
            let p = ls.phase_of_event[e.index()];
            if p as usize >= ls.phases.len() {
                phase_ok = false;
                emit!(InvariantViolation::EventWithoutPhase { event: e });
                continue;
            }
            let ph = &ls.phases[p as usize];
            if ls.local_step[e.index()] > ph.max_local {
                emit!(InvariantViolation::LocalStepExceedsMax { event: e });
            }
            if ls.step[e.index()] != ph.offset + ls.local_step[e.index()] {
                emit!(InvariantViolation::GlobalStepMismatch { event: e });
            }
        }

        // Phase DAG acyclicity, and offsets along its edges.
        let g = crate::graph::DiGraph::from_edges(
            ls.phases.len(),
            ls.phase_succs
                .iter()
                .enumerate()
                .flat_map(|(p, ss)| ss.iter().map(move |&s| (p as u32, s))),
        );
        if let Err(cycle) = g.topo_order() {
            emit!(InvariantViolation::PhaseGraphCycle { cycle });
        }
        for (p, succs) in ls.phase_succs.iter().enumerate() {
            let pend = ls.phases[p].offset + ls.phases[p].max_local;
            for &s in succs {
                let succ_offset = ls.phases[s as usize].offset;
                if succ_offset <= pend {
                    emit!(InvariantViolation::OffsetBeforePredecessor {
                        pred: p as u32,
                        succ: s,
                        pred_end: pend,
                        succ_offset,
                    });
                }
            }
        }

        // §3.1.4 property (1): same-leap phases never share a chare.
        let mut seen: HashMap<(u32, ChareId), u32> = HashMap::new();
        for ph in &ls.phases {
            for &c in &ph.chares {
                if let Some(&other) = seen.get(&(ph.leap, c)) {
                    emit!(InvariantViolation::LeapChareOverlap {
                        a: other,
                        b: ph.id,
                        chare: c,
                        leap: ph.leap,
                    });
                } else {
                    seen.insert((ph.leap, c), ph.id);
                }
            }
        }

        // Matched messages stay intra-phase and advance a step. Skip
        // if phase assignment was already broken (indexing hazard).
        if phase_ok {
            for m in &trace.msgs {
                if let Some(rt) = m.recv_task {
                    let Some(sink) = trace.task(rt).sink else {
                        continue;
                    };
                    let (ps, pr) =
                        (ls.phase_of_event[m.send_event.index()], ls.phase_of_event[sink.index()]);
                    if ps != pr {
                        emit!(InvariantViolation::MessageSpansPhases {
                            msg: m.id,
                            send_phase: ps,
                            recv_phase: pr,
                        });
                    }
                    if ls.step[sink.index()] < ls.step[m.send_event.index()] + 1 {
                        emit!(InvariantViolation::MessageDoesNotAdvance { msg: m.id });
                    }
                }
            }
        }

        // Per-chare global-step uniqueness (single path through the
        // phase DAG per chare — the point of the §3.1.4 properties).
        let mut per_chare: HashMap<(ChareId, u64), EventId> = HashMap::new();
        for e in trace.event_ids() {
            let c = trace.event_chare(e);
            let s = ls.step[e.index()];
            if let Some(&other) = per_chare.get(&(c, s)) {
                emit!(InvariantViolation::ChareStepCollision { a: other, b: e, chare: c, step: s });
            } else {
                per_chare.insert((c, s), e);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_cover_s001_through_s007() {
        let samples = [
            InvariantViolation::TableSizeMismatch,
            InvariantViolation::PhaseGraphCycle { cycle: vec![0, 1] },
            InvariantViolation::ChareStepCollision {
                a: EventId(0),
                b: EventId(1),
                chare: ChareId(0),
                step: 3,
            },
            InvariantViolation::LeapChareOverlap { a: 0, b: 1, chare: ChareId(2), leap: 4 },
            InvariantViolation::MessageDoesNotAdvance { msg: MsgId(9) },
            InvariantViolation::OffsetBeforePredecessor {
                pred: 0,
                succ: 1,
                pred_end: 5,
                succ_offset: 5,
            },
            InvariantViolation::Truncated { limit: 64 },
        ];
        let codes: Vec<_> = samples.iter().map(|v| v.code()).collect();
        assert_eq!(codes, ["S001", "S002", "S003", "S004", "S005", "S006", "S007"]);
        for v in &samples {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn display_matches_legacy_verify_messages() {
        assert_eq!(InvariantViolation::TableSizeMismatch.to_string(), "event table sizes mismatch");
        assert_eq!(
            InvariantViolation::OffsetBeforePredecessor {
                pred: 2,
                succ: 5,
                pred_end: 7,
                succ_offset: 6
            }
            .to_string(),
            "phase 5 starts at 6 but predecessor 2 ends at 7"
        );
        assert_eq!(
            InvariantViolation::MessageSpansPhases { msg: MsgId(3), send_phase: 1, recv_phase: 2 }
                .to_string(),
            format!("message {} spans phases 1 and 2", MsgId(3))
        );
    }
}

//! R passes: message-race detection and structure-stability
//! classification.
//!
//! A *message race* is a pair of tasks in one serial stream — the same
//! chare, or the same PE's runtime stream — whose triggering messages
//! are concurrent under the causal happened-before relation
//! ([`HbMode::Causal`]): every ordering the observed schedule imposed
//! on them was a scheduler decision, so another legal run may deliver
//! them the other way around (paper §3.2.1's reordering assumptions).
//!
//! Both tasks must have *traced* triggering messages to qualify. A
//! task with no recorded trigger is the trace's representation of an
//! untraced delivery (the paper's Fig. 24 PDES class): its causality
//! is unknown, not provably concurrent — the invisible dependency may
//! be exactly what orders the pair. Such concurrent pairs are reported
//! separately as *untraced-unordered* (R004, a warning), never as
//! races, so the race verdicts only ever rest on evidence the trace
//! actually contains.
//!
//! Each race is then *classified*: it is **structure-affecting** when
//! the pair participates in an order-sensitive decision of the
//! extraction pipeline — an SDAG absorb/edge window, an inferred
//! dependency, or a leap-ordering comparison, as recorded by
//! [`lsr_core::MergeProvenance`] — and **benign** otherwise: the
//! recovered *event-level* structure
//! ([`lsr_core::LogicalStructure::same_event_structure`]) is the same
//! under either delivery order. [`swap_adjacent_delivery`] makes the
//! claim testable: it rewrites a trace as if the runtime had delivered
//! a schedule-adjacent pair in the opposite order.
//!
//! Codes (full table in `docs/lints.md`): R001 benign chare race,
//! R002 structure-affecting race, R003 benign runtime-stream race,
//! R004 untraced-unordered pair (the Fig. 24 PDES class, cross-linked
//! to H003 candidates), R005 enumeration truncated.

use crate::diag::{Diagnostic, Location, Severity};
use crate::hb::{HbIndex, HbMode, HbStats};
use crate::passes;
use lsr_core::{Config, MergeProvenance, TraceModel};
use lsr_trace::{ChareId, PeId, TaskId, Time, Trace, TraceIndex};
use serde::{Serialize, Value};

/// The serial stream a racy pair competes for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceScope {
    /// Both tasks run on one application chare.
    Chare(ChareId),
    /// Both tasks belong to one PE's runtime stream.
    PeStream(PeId),
}

impl std::fmt::Display for RaceScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaceScope::Chare(c) => write!(f, "chare {c}"),
            RaceScope::PeStream(pe) => write!(f, "{pe} runtime stream"),
        }
    }
}

/// Whether reversing the pair's delivery order can change the
/// recovered structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceClass {
    /// No order-sensitive pipeline decision involves the pair; the
    /// recovered event-level structure is delivery-order invariant.
    Benign,
    /// The pair decides an order-sensitive rule; `rule` names it.
    StructureAffecting {
        /// Stable rule name (a [`lsr_core::ProvenanceRule::name`], or
        /// `"sdag-window"` for the static SDAG check).
        rule: &'static str,
    },
}

impl RaceClass {
    /// True for [`RaceClass::StructureAffecting`].
    pub fn is_structure_affecting(self) -> bool {
        matches!(self, RaceClass::StructureAffecting { .. })
    }
}

/// One detected message race: `first` was delivered before `second`,
/// but the causal relation allows either order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Race {
    /// The task delivered first in the observed schedule.
    pub first: TaskId,
    /// The task delivered second.
    pub second: TaskId,
    /// The serial stream the pair competes for.
    pub scope: RaceScope,
    /// Benign or structure-affecting.
    pub class: RaceClass,
}

/// A causally concurrent stream pair that cannot be called a race
/// because at least one member has no traced triggering message: the
/// untraced delivery's unknown causality may be what orders the pair
/// (reported as R004, the Fig. 24 PDES class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UntracedPair {
    /// The task delivered first in the observed schedule.
    pub first: TaskId,
    /// The task delivered second.
    pub second: TaskId,
    /// The serial stream the pair shares.
    pub scope: RaceScope,
}

/// The outcome of [`analyze_races`].
#[derive(Debug, Clone)]
pub struct RaceReport {
    /// Detected races in stream order, capped at the limit.
    pub races: Vec<Race>,
    /// Concurrent pairs involving an untriggered task, in stream
    /// order; reported as R004 warnings, not races. Shares the limit
    /// with `races`.
    pub untraced: Vec<UntracedPair>,
    /// The R-coded diagnostics for the races (plus cross-links and the
    /// truncation note).
    pub diagnostics: Vec<Diagnostic>,
    /// Adjacent stream pairs examined.
    pub scanned_pairs: usize,
    /// True when enumeration stopped at the limit (R005 reported).
    pub truncated: bool,
    /// Size and search statistics of the causal happened-before index.
    /// Deliberately absent from [`RaceReport::to_json`]: they describe
    /// the index, not the trace.
    pub hb_stats: HbStats,
}

impl RaceReport {
    /// Number of structure-affecting races.
    pub fn structure_affecting_count(&self) -> usize {
        self.races.iter().filter(|r| r.class.is_structure_affecting()).count()
    }

    /// Number of benign races.
    pub fn benign_count(&self) -> usize {
        self.races.len() - self.structure_affecting_count()
    }

    /// True when no race was found.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty()
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let races: Vec<Value> = self
            .races
            .iter()
            .map(|r| {
                let (scope, id) = match r.scope {
                    RaceScope::Chare(c) => ("chare", c.0),
                    RaceScope::PeStream(pe) => ("pe-stream", pe.0),
                };
                let mut fields = vec![
                    ("first".into(), Value::U64(r.first.0 as u64)),
                    ("second".into(), Value::U64(r.second.0 as u64)),
                    ("scope".into(), Value::Str(scope.into())),
                    ("scope_id".into(), Value::U64(id as u64)),
                    ("structure_affecting".into(), Value::Bool(r.class.is_structure_affecting())),
                ];
                if let RaceClass::StructureAffecting { rule } = r.class {
                    fields.push(("rule".into(), Value::Str(rule.into())));
                }
                Value::Obj(fields)
            })
            .collect();
        let obj = Value::Obj(vec![
            ("races".into(), Value::U64(self.races.len() as u64)),
            ("benign".into(), Value::U64(self.benign_count() as u64)),
            ("structure_affecting".into(), Value::U64(self.structure_affecting_count() as u64)),
            ("untraced_unordered".into(), Value::U64(self.untraced.len() as u64)),
            ("scanned_pairs".into(), Value::U64(self.scanned_pairs as u64)),
            ("truncated".into(), Value::Bool(self.truncated)),
            ("race_list".into(), Value::Arr(races)),
            ("diagnostics".into(), self.diagnostics.ser()),
        ]);
        serde_json::to_string_pretty(&obj).expect("value rendering is infallible")
    }
}

impl std::fmt::Display for RaceReport {
    /// One line per diagnostic followed by a summary line.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} race(s): {} benign, {} structure-affecting; {} untraced-unordered \
             pair(s) ({} pair(s) scanned{})",
            self.races.len(),
            self.benign_count(),
            self.structure_affecting_count(),
            self.untraced.len(),
            self.scanned_pairs,
            if self.truncated { ", truncated" } else { "" }
        )
    }
}

/// The causal [`HbMode`] race analysis uses for a pipeline
/// configuration: ranks of a message-passing trace run deterministic
/// sequential programs (chare order holds in every schedule), while a
/// Charm++ chare only promises message edges — plus the deterministic
/// SDAG consumption order when SDAG inference is modeling it.
pub fn causal_mode(cfg: &Config) -> HbMode {
    match cfg.model {
        TraceModel::MessagePassing => HbMode::Causal { chare_order: true, sdag_order: false },
        TraceModel::TaskBased => {
            HbMode::Causal { chare_order: false, sdag_order: cfg.sdag_inference }
        }
    }
}

/// True when the task's sink is a traced message delivery: its start
/// is an observable scheduler decision, so concurrency claims about it
/// rest on recorded evidence.
fn message_triggered(trace: &Trace, t: TaskId) -> bool {
    trace
        .task(t)
        .sink
        .is_some_and(|s| matches!(trace.event(s).kind, lsr_trace::EventKind::Recv { msg: Some(_) }))
}

/// Enumerates and classifies the message races of a well-formed trace.
///
/// Walks every serial stream — application chares, and each PE's
/// runtime-task subsequence — and examines each schedule-adjacent pair
/// the causal relation leaves concurrent. Adjacent pairs suffice: a
/// stream whose consecutive pairs are all ordered is totally ordered
/// by transitivity. A concurrent pair whose tasks are both
/// message-triggered is a race, classified against a reference
/// extraction's [`MergeProvenance`] plus a static SDAG-window check
/// (see [`classify`]); a pair with an untriggered member has unknown
/// causality and lands in [`RaceReport::untraced`] instead.
///
/// `limit` caps the total findings reported — races plus untraced
/// pairs, at least 1; hitting it adds an R005 diagnostic. Returns the
/// causal cycle witness as `Err` when the causal relation is not a
/// partial order (a corrupt trace — run [`crate::lint_trace`] first).
pub fn analyze_races(trace: &Trace, cfg: &Config, limit: usize) -> Result<RaceReport, Vec<TaskId>> {
    let ix = trace.index();
    let causal = HbIndex::build_with_mode(trace, &ix, causal_mode(cfg));
    analyze_with_index(trace, &ix, cfg, limit, &causal)
}

/// [`analyze_races`] over a pre-built causal index. Mutation tests use
/// this to feed a deliberately corrupted index through the real scan
/// and watch the verdict flip; it is not API.
#[doc(hidden)]
pub fn analyze_races_with_index(
    trace: &Trace,
    cfg: &Config,
    limit: usize,
    causal: &HbIndex,
) -> Result<RaceReport, Vec<TaskId>> {
    let ix = trace.index();
    analyze_with_index(trace, &ix, cfg, limit, causal)
}

fn analyze_with_index(
    trace: &Trace,
    ix: &TraceIndex,
    cfg: &Config,
    limit: usize,
    causal: &HbIndex,
) -> Result<RaceReport, Vec<TaskId>> {
    let limit = limit.max(1);
    if !causal.cycle().is_empty() {
        return Err(causal.cycle().to_vec());
    }

    // Reference extraction: which pairs decided order-sensitive rules
    // in the observed order.
    let (_, prov) = lsr_core::extract_with_provenance(trace, &cfg.clone().with_verify(false));

    let mut races = Vec::new();
    let mut untraced = Vec::new();
    let mut scanned = 0usize;
    let mut truncated = false;
    'streams: for (scope, stream) in streams(trace, ix) {
        for w in stream.windows(2) {
            scanned += 1;
            let (a, b) = (w[0], w[1]);
            if !causal.concurrent(a, b) {
                continue;
            }
            if races.len() + untraced.len() >= limit {
                truncated = true;
                break 'streams;
            }
            if message_triggered(trace, a) && message_triggered(trace, b) {
                let class = classify(trace, cfg, &prov, a, b);
                races.push(Race { first: a, second: b, scope, class });
            } else {
                untraced.push(UntracedPair { first: a, second: b, scope });
            }
        }
    }

    let diagnostics =
        race_diagnostics(trace, ix, &cfg.recorder, &races, &untraced, truncated, limit);
    let hb_stats = causal.stats();
    cfg.recorder.add("lint.hb.queries", causal.query_count());
    cfg.recorder.add("lint.races.scanned_pairs", scanned as u64);
    // Index counters. The recorder drops zero deltas, so a scan the
    // labels settled alone shows no search counters.
    cfg.recorder.add("lint.hb.bytes", hb_stats.bytes as u64);
    cfg.recorder.add("lint.hb.searches", hb_stats.searches);
    cfg.recorder.add("lint.hb.search_visits", hb_stats.search_visits);
    Ok(RaceReport { races, untraced, diagnostics, scanned_pairs: scanned, truncated, hb_stats })
}

/// The serial streams race analysis scans: one per application chare
/// (delivery order to a chare is serialized) and one per PE holding its
/// runtime tasks (runtime bookkeeping shares the PE's scheduler
/// stream). Runtime chares are covered by the PE streams, not the chare
/// streams, so no pair is scanned twice.
fn streams(trace: &Trace, ix: &TraceIndex) -> Vec<(RaceScope, Vec<TaskId>)> {
    let mut out = Vec::new();
    for (ci, list) in ix.tasks_by_chare.iter().enumerate() {
        let chare = ChareId::from_index(ci);
        if list.len() >= 2 && !trace.chare(chare).kind.is_runtime() {
            out.push((RaceScope::Chare(chare), list.clone()));
        }
    }
    for (pi, list) in ix.tasks_by_pe.iter().enumerate() {
        let stream: Vec<TaskId> = list
            .iter()
            .copied()
            .filter(|&t| trace.chare(trace.task(t).chare).kind.is_runtime())
            .collect();
        if stream.len() >= 2 {
            out.push((RaceScope::PeStream(PeId(pi as u32)), stream));
        }
    }
    out
}

/// Classifies one racy pair.
///
/// Structure-affecting when any check fires, benign otherwise:
///
/// 1. **Provenance pair**: the reference extraction recorded the pair
///    as the deciding pair of an order-sensitive rule
///    ([`MergeProvenance::order_sensitive_pair`]) — the observed
///    delivery order directly selected a pipeline outcome.
/// 2. **Provenance membership**: either task decided an
///    order-sensitive rule against some *third* task
///    ([`MergeProvenance::order_sensitive_member`]). Reversing the
///    racy delivery moves that task in time, which can flip the
///    recorded comparison (e.g. the physical-time sort behind an
///    inferred edge) even though the race partner itself was not part
///    of it.
/// 3. **Static SDAG window**: under SDAG inference on a task-based
///    trace, a same-chare pair where exactly one task runs a
///    serial-numbered entry is order-sensitive even when no rule fired
///    in the observed order: delivered the other way, the plain task
///    can land back-to-back before the serial and be absorbed into it
///    (§2.1), an outcome the observed order did not offer.
pub fn classify(
    trace: &Trace,
    cfg: &Config,
    prov: &MergeProvenance,
    a: TaskId,
    b: TaskId,
) -> RaceClass {
    if let Some(rule) = prov.order_sensitive_pair(a, b) {
        return RaceClass::StructureAffecting { rule: rule.name() };
    }
    if let Some(rule) = prov.order_sensitive_member(a).or_else(|| prov.order_sensitive_member(b)) {
        return RaceClass::StructureAffecting { rule: rule.name() };
    }
    if cfg.sdag_inference
        && cfg.model == TraceModel::TaskBased
        && trace.task(a).chare == trace.task(b).chare
    {
        let serial = |t: TaskId| trace.entry(trace.task(t).entry).sdag_serial.is_some();
        if serial(a) != serial(b) {
            return RaceClass::StructureAffecting { rule: "sdag-window" };
        }
    }
    RaceClass::Benign
}

/// Renders the R-coded diagnostics: R001/R002/R003 per race, R004 per
/// untraced-unordered pair (cross-linked to H003's unmatched-message
/// candidates where one matches), and R005 when enumeration was
/// truncated.
fn race_diagnostics(
    trace: &Trace,
    ix: &TraceIndex,
    rec: &lsr_obs::Recorder,
    races: &[Race],
    untraced: &[UntracedPair],
    truncated: bool,
    limit: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in races {
        let pair = format!(
            "tasks {} and {} on {} are delivered in schedule order but causally \
             concurrent",
            r.first, r.second, r.scope
        );
        out.push(match r.class {
            RaceClass::StructureAffecting { rule } => Diagnostic {
                code: "R002",
                name: "StructureAffectingRace",
                severity: Severity::Error,
                location: Location::Task { task: r.first },
                message: format!("{pair}; the pair decides the order-sensitive rule `{rule}`"),
                explanation: "another legal delivery order changes an order-sensitive \
                              pipeline decision, so the recovered structure is not \
                              stable across runs (paper §3.2.1)",
            },
            RaceClass::Benign if matches!(r.scope, RaceScope::PeStream(_)) => Diagnostic {
                code: "R003",
                name: "PeStreamRace",
                severity: Severity::Warning,
                location: Location::Task { task: r.first },
                message: pair,
                explanation: "two runtime tasks on one PE could be scheduled in either \
                              order; no order-sensitive decision involves them, so the \
                              recovered structure is unaffected",
            },
            RaceClass::Benign => Diagnostic {
                code: "R001",
                name: "MessageRace",
                severity: Severity::Warning,
                location: Location::Task { task: r.first },
                message: pair,
                explanation: "two messages to one chare race; no order-sensitive \
                              decision involves them, so the recovered structure is \
                              delivery-order invariant",
            },
        });
    }

    // R004 — concurrent pairs with an untriggered member (the Fig. 24
    // PDES class): the unknown trigger's causality may be exactly what
    // orders the pair, so no race verdict is possible. Where an
    // untriggered member is also H003's untraced-receive candidate for
    // an unmatched message, the diagnostic names that message.
    if !untraced.is_empty() {
        // Unmatched-message candidates, resolved once: TaskId -> MsgId,
        // against the schedule relation H003 uses. A cyclic schedule
        // (H002 territory) resolves no candidates.
        let mut candidates: Vec<(TaskId, lsr_trace::MsgId)> = Vec::new();
        let sched = HbIndex::build(trace, ix);
        if sched.cycle().is_empty() {
            for m in trace.msgs.iter().filter(|m| m.recv_task.is_none()) {
                if let Some(c) = passes::untraced_candidate(trace, &sched, m) {
                    candidates.push((c, m.id));
                }
            }
            rec.add("lint.hb.queries", sched.query_count());
        }
        for u in untraced {
            let untriggered = if message_triggered(trace, u.first) { u.second } else { u.first };
            let link = candidates
                .iter()
                .find(|(c, _)| *c == untriggered)
                .map(|(_, mid)| {
                    format!(
                        "; task {untriggered} is the untraced-receive candidate of \
                         unmatched message {mid} (H003)"
                    )
                })
                .unwrap_or_default();
            out.push(Diagnostic {
                code: "R004",
                name: "UntracedUnordered",
                severity: Severity::Warning,
                location: Location::Task { task: untriggered },
                message: format!(
                    "tasks {} and {} on {} are causally concurrent, but task \
                     {untriggered} has no traced trigger, so the pair cannot be \
                     proven reorderable{link}",
                    u.first, u.second, u.scope
                ),
                explanation: "an untraced delivery's causality is unknown: the \
                              invisible dependency may be exactly what orders the \
                              pair, so it is reported as unordered, not as a race \
                              (Fig. 24)",
            });
        }
    }

    if truncated {
        out.push(Diagnostic {
            code: "R005",
            name: "RaceLimitTruncated",
            severity: Severity::Warning,
            location: Location::Global,
            message: format!("race enumeration stopped at the limit of {limit}"),
            explanation: "more findings exist than the reporting cap; raise --limit \
                          to see them all",
        });
    }
    out
}

/// Rewrites `trace` as if the runtime had delivered the
/// schedule-adjacent pair `(first, second)` in the opposite order.
///
/// `second` must directly follow `first` on one PE. The rewrite keeps
/// every id stable and reflows times minimally: the swapped pair is
/// re-timed from its constraints alone, every other task keeps its
/// recorded begin unless a constraint (its PE predecessor's new end,
/// or a trigger's new send time) pushes it later, and durations and
/// intra-task event offsets are preserved throughout. Returns `None`
/// when the pair is not schedule-adjacent, when the reversed order is
/// not a legal schedule (the new dependency graph has a cycle — e.g.
/// `second`'s trigger causally depends on `first`), or when the result
/// fails validation.
pub fn swap_adjacent_delivery(trace: &Trace, first: TaskId, second: TaskId) -> Option<Trace> {
    let ix = trace.index();
    if ix.next_on_pe(trace, first) != Some(second) {
        return None;
    }
    let n = trace.tasks.len();

    // The new per-PE order: the pair's slots exchanged.
    let mut lists: Vec<Vec<TaskId>> = ix.tasks_by_pe.clone();
    let pe = trace.task(first).pe;
    let slot = ix.pe_pos[first.index()] as usize;
    lists[pe.index()].swap(slot, slot + 1);

    // Dependency graph of the new schedule: new PE order plus message
    // edges. A cycle means the reversed order is unreachable.
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    for list in &lists {
        for w in list.windows(2) {
            succs[w[0].index()].push(w[1].0);
        }
    }
    for me in trace.message_edges() {
        if me.from != me.to {
            succs[me.from.index()].push(me.to.0);
        }
    }
    let topo = lsr_core::graph::kahn_order(n, |t| &succs[t as usize]);
    if topo.len() < n {
        return None;
    }

    // Per-task trigger messages and new PE predecessors.
    let mut triggers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (mi, m) in trace.msgs.iter().enumerate() {
        if let Some(rt) = m.recv_task {
            triggers[rt.index()].push(mi);
        }
    }
    let mut pe_pred: Vec<Option<TaskId>> = vec![None; n];
    for list in &lists {
        for w in list.windows(2) {
            pe_pred[w[1].index()] = Some(w[0]);
        }
    }

    // Reflow in topological order. The swapped pair is anchored only
    // by its constraints; everyone else also keeps the recorded begin
    // as a lower bound, so undisturbed tasks do not move.
    let mut new_begin = vec![Time::ZERO; n];
    let mut new_end = vec![Time::ZERO; n];
    for &t in &topo {
        let ti = t as usize;
        let rec = trace.task(TaskId(t));
        let mut b = if t == first.0 || t == second.0 { Time::ZERO } else { rec.begin };
        if let Some(p) = pe_pred[ti] {
            b = b.max(new_end[p.index()]);
        }
        for &mi in &triggers[ti] {
            let sev = trace.event(trace.msgs[mi].send_event);
            let sender = trace.task(sev.task);
            b = b.max(new_begin[sev.task.index()] + (sev.time - sender.begin));
        }
        new_begin[ti] = b;
        new_end[ti] = b + (rec.end - rec.begin);
    }

    // Apply: tasks, then events at preserved offsets, then messages.
    let mut out = trace.clone();
    for t in 0..n {
        out.tasks[t].begin = new_begin[t];
        out.tasks[t].end = new_end[t];
    }
    for e in 0..out.events.len() {
        let task = trace.event(lsr_trace::EventId(e as u32)).task;
        let off = trace.events[e].time - trace.task(task).begin;
        out.events[e].time = new_begin[task.index()] + off;
    }
    for m in 0..out.msgs.len() {
        out.msgs[m].send_time = out.events[trace.msgs[m].send_event.index()].time;
        if let Some(rt) = out.msgs[m].recv_task {
            out.msgs[m].recv_time = Some(new_begin[rt.index()]);
        }
    }
    lsr_trace::validate(&out).ok()?;
    Some(out)
}

/// The subset of a report's races [`swap_adjacent_delivery`] can
/// reorder: pairs that are adjacent on one PE in the observed
/// schedule.
pub fn swappable_races<'a>(trace: &Trace, report: &'a RaceReport) -> Vec<&'a Race> {
    let ix = trace.index();
    report.races.iter().filter(|r| ix.next_on_pe(trace, r.first) == Some(r.second)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_trace::{Kind, TraceBuilder};

    /// Two spontaneous tasks on one app chare (no serials, no
    /// messages): causally concurrent, but with no traced triggers the
    /// pair is untraced-unordered, not a race.
    fn two_spontaneous() -> Trace {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c = b.add_chare(app, 0, PeId(0));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c, e, PeId(0), Time(0));
        b.end_task(t0, Time(2));
        let t1 = b.begin_task(c, e, PeId(0), Time(3));
        b.end_task(t1, Time(5));
        b.build().unwrap()
    }

    /// One sender fans two messages out to a second chare: the two
    /// triggered receives are adjacent in the chare's stream and
    /// causally concurrent — a genuine message race. Entry serial
    /// numbers for the two receives are parameters.
    fn fan_out_two(sa: Option<u32>, sb: Option<u32>) -> Trace {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(1));
        let go = b.add_entry("go", None);
        let ea = b.add_entry("recv_a", sa);
        let eb = b.add_entry("recv_b", sb);
        let t0 = b.begin_task(c0, go, PeId(0), Time(0));
        let m0 = b.record_send(t0, Time(1), c1, ea);
        let m1 = b.record_send(t0, Time(2), c1, eb);
        b.end_task(t0, Time(3));
        let t1 = b.begin_task_from(c1, ea, PeId(1), Time(4), m0);
        b.end_task(t1, Time(6));
        let t2 = b.begin_task_from(c1, eb, PeId(1), Time(7), m1);
        b.end_task(t2, Time(9));
        b.build().unwrap()
    }

    #[test]
    fn benign_chare_race_is_r001() {
        let tr = fan_out_two(None, None);
        let report = analyze_races(&tr, &Config::charm(), 16).unwrap();
        assert_eq!(report.races.len(), 1, "{report}");
        assert_eq!(report.races[0].class, RaceClass::Benign);
        assert_eq!(report.diagnostics[0].code, "R001");
        assert_eq!(report.benign_count(), 1);
        assert_eq!(report.structure_affecting_count(), 0);
        assert!(report.untraced.is_empty());
    }

    #[test]
    fn mpi_chare_order_suppresses_the_race() {
        let tr = fan_out_two(None, None);
        let report = analyze_races(&tr, &Config::mpi(), 16).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.untraced.is_empty(), "{report}");
        assert!(report.scanned_pairs >= 1);
    }

    #[test]
    fn spontaneous_pair_is_untraced_not_race() {
        // Concurrent, but neither task has a traced trigger: the
        // invisible dependency may order them, so R004, not R001.
        let tr = two_spontaneous();
        let report = analyze_races(&tr, &Config::charm(), 16).unwrap();
        assert!(report.races.is_empty(), "{report}");
        assert_eq!(report.untraced.len(), 1, "{report}");
        assert_eq!(report.diagnostics[0].code, "R004");
    }

    #[test]
    fn sdag_window_race_is_structure_affecting() {
        // A plain receive races with a serial-numbered receive on one
        // chare: delivered the other way, the plain task can land
        // back-to-back before the serial and be absorbed.
        let tr = fan_out_two(Some(1), None);
        let report = analyze_races(&tr, &Config::charm(), 16).unwrap();
        assert_eq!(report.structure_affecting_count(), 1, "{report}");
        assert_eq!(report.diagnostics[0].code, "R002");
        assert!(report.diagnostics[0].message.contains("sdag-window"), "{report}");
        // Without SDAG inference the window check is off and no
        // absorb can fire: benign.
        let relaxed = analyze_races(&tr, &Config::charm().with_sdag(false), 16).unwrap();
        assert_eq!(relaxed.structure_affecting_count(), 0, "{relaxed}");
    }

    #[test]
    fn sdag_order_chains_serial_tasks() {
        // Both tasks serial-numbered: SDAG consumption order is
        // deterministic, so they are not racy under Charm's causal
        // mode.
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c = b.add_chare(app, 0, PeId(0));
        let s1 = b.add_entry("s1", Some(1));
        let s2 = b.add_entry("s2", Some(2));
        let t0 = b.begin_task(c, s1, PeId(0), Time(0));
        b.end_task(t0, Time(2));
        let t1 = b.begin_task(c, s2, PeId(0), Time(3));
        b.end_task(t1, Time(5));
        let tr = b.build().unwrap();
        let report = analyze_races(&tr, &Config::charm(), 16).unwrap();
        assert!(report.is_clean(), "{report}");
        assert!(report.untraced.is_empty(), "{report}");
    }

    #[test]
    fn runtime_stream_race_is_r003() {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let rt = b.add_array("mgr", Kind::Runtime);
        let ca = b.add_chare(app, 0, PeId(1));
        let c0 = b.add_chare(rt, 0, PeId(0));
        let c1 = b.add_chare(rt, 1, PeId(0));
        let go = b.add_entry("go", None);
        let e = b.add_entry("tick", None);
        let t0 = b.begin_task(ca, go, PeId(1), Time(0));
        let m0 = b.record_send(t0, Time(1), c0, e);
        let m1 = b.record_send(t0, Time(2), c1, e);
        b.end_task(t0, Time(3));
        let t1 = b.begin_task_from(c0, e, PeId(0), Time(4), m0);
        b.end_task(t1, Time(5));
        let t2 = b.begin_task_from(c1, e, PeId(0), Time(6), m1);
        b.end_task(t2, Time(7));
        let tr = b.build().unwrap();
        let report = analyze_races(&tr, &Config::charm(), 16).unwrap();
        assert_eq!(report.races.len(), 1, "{report}");
        assert_eq!(report.diagnostics[0].code, "R003");
        assert!(matches!(report.races[0].scope, RaceScope::PeStream(_)));
    }

    #[test]
    fn limit_truncates_with_r005() {
        // One sender fans four messages out to one chare: three
        // adjacent racy pairs.
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(1));
        let go = b.add_entry("go", None);
        let e = b.add_entry("recv", None);
        let t0 = b.begin_task(c0, go, PeId(0), Time(0));
        let msgs: Vec<_> = (0..4u64).map(|i| b.record_send(t0, Time(i + 1), c1, e)).collect();
        b.end_task(t0, Time(5));
        for (i, m) in msgs.into_iter().enumerate() {
            let t = b.begin_task_from(c1, e, PeId(1), Time(6 + 3 * i as u64), m);
            b.end_task(t, Time(7 + 3 * i as u64));
        }
        let tr = b.build().unwrap();
        let report = analyze_races(&tr, &Config::charm(), 1).unwrap();
        assert!(report.truncated);
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.diagnostics.last().unwrap().code, "R005");
        let full = analyze_races(&tr, &Config::charm(), 16).unwrap();
        assert_eq!(full.races.len(), 3);
        assert!(!full.truncated);
    }

    #[test]
    fn untraced_candidate_cross_links_r004() {
        // An unmatched message whose candidate receive (a spontaneous
        // task) forms an untraced-unordered pair with its chare
        // neighbor: R004 names the message.
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(1));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c1, e, PeId(1), Time(0));
        let _unmatched = b.record_send(t0, Time(1), c0, e);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task(c0, e, PeId(0), Time(3));
        b.end_task(t1, Time(4));
        let t2 = b.begin_task(c0, e, PeId(0), Time(5));
        b.end_task(t2, Time(6));
        let tr = b.build().unwrap();
        let report = analyze_races(&tr, &Config::charm(), 16).unwrap();
        assert!(report.races.is_empty(), "{report}");
        assert_eq!(report.untraced.len(), 1, "{report}");
        let r004 = report.diagnostics.iter().find(|d| d.code == "R004").expect("R004");
        assert!(r004.message.contains("unmatched message"), "{r004}");
        let _ = t1;
        let _ = t2;
    }

    #[test]
    fn swap_reverses_delivery_and_validates() {
        let tr = fan_out_two(None, None);
        let report = analyze_races(&tr, &Config::charm(), 16).unwrap();
        let swappable = swappable_races(&tr, &report);
        assert_eq!(swappable.len(), 1);
        let r = swappable[0];
        let swapped = swap_adjacent_delivery(&tr, r.first, r.second).expect("swappable");
        // Ids are stable; the delivery order is reversed.
        let ix = swapped.index();
        assert_eq!(ix.next_on_pe(&swapped, r.second), Some(r.first));
        assert_eq!(swapped.tasks.len(), tr.tasks.len());
    }

    #[test]
    fn swap_refuses_causally_ordered_pairs() {
        // t0 sends to t1 on the same PE: adjacent but ordered, so the
        // reversed schedule would be cyclic.
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m = b.record_send(t0, Time(1), c1, e);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task_from(c1, e, PeId(0), Time(3), m);
        b.end_task(t1, Time(4));
        let tr = b.build().unwrap();
        assert!(swap_adjacent_delivery(&tr, TaskId(0), TaskId(1)).is_none());
        // Non-adjacent pairs are refused outright.
        assert!(swap_adjacent_delivery(&tr, TaskId(1), TaskId(0)).is_none());
    }

    #[test]
    fn swap_pushes_downstream_receivers() {
        // t0's send is consumed on another PE; after swapping t0 later,
        // the receiver must move past the new send time.
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let c2 = b.add_chare(app, 2, PeId(1));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m = b.record_send(t0, Time(1), c2, e);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task(c1, e, PeId(0), Time(2));
        b.end_task(t1, Time(10));
        let t2 = b.begin_task_from(c2, e, PeId(1), Time(3), m);
        b.end_task(t2, Time(4));
        let tr = b.build().unwrap();
        let swapped = swap_adjacent_delivery(&tr, t0, t1).expect("legal swap");
        // t1 re-anchors at 0 (duration 8); t0 follows at 8 and its send
        // (offset 1) moves to 9, pushing t2 from 3 to 9.
        assert_eq!(swapped.task(t1).begin, Time(0));
        assert_eq!(swapped.task(t0).begin, Time(8));
        assert_eq!(swapped.msg(m).send_time, Time(9));
        assert_eq!(swapped.task(t2).begin, Time(9));
        assert_eq!(swapped.msg(m).recv_time, Some(Time(9)));
    }
}

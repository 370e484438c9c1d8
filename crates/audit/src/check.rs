//! The certificate check: replay a [`MergeProvenance`] log against the
//! trace and the recovered [`LogicalStructure`], verifying each rule
//! application's precondition (paper Algorithms 1–5), phase-DAG
//! acyclicity, and the §3.2 step-assignment laws.
//!
//! The replay works at *task* granularity: the pipeline merges atoms
//! (serial-block fragments), but every atom union is recorded as a
//! union of the atoms' tasks, so the task-level quotient the replay
//! maintains is exactly the task image of the pipeline's partition
//! state at every record. Task granularity is a coarsening — see
//! `docs/audit.md` for which checks stay sound under it (notably:
//! SCC membership does, replay-graph acyclicity does not, which is why
//! A004 checks the *final* phase DAG instead).

use crate::graph::{sccs, IncrementalDag, UnionFind};
use lsr_core::{Config, LogicalStructure, MergeProvenance, ProvenanceRule, TraceModel, NO_PHASE};
use lsr_lint::{Diagnostic, Location, Severity};
use lsr_trace::{ChareId, EventKind, TaskId, Time, Trace};

/// Default cap on collected audit diagnostics; mirrors the lint
/// framework's per-pass default.
pub const DEFAULT_AUDIT_LIMIT: usize = 64;

/// Options for [`audit`].
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// Stop collecting after this many diagnostics (an `A007` warning
    /// is appended when the cap fires). Clamped to at least 1.
    pub limit: usize,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions { limit: DEFAULT_AUDIT_LIMIT }
    }
}

/// The outcome of one certificate check.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Violations found, in replay order. Error severity means the
    /// certificate does not certify the structure.
    pub diagnostics: Vec<Diagnostic>,
    /// Provenance records replayed.
    pub records_replayed: usize,
    /// Individual law checks evaluated (precondition, gate, phase,
    /// time, DAG insertion, and step-law checks).
    pub checks: u64,
    /// Task-level happened-before edges in the replay graph (matched
    /// messages, gated process order, and certificate edge records).
    pub replay_edges: usize,
}

impl AuditReport {
    /// True when no error-severity diagnostic was found. `A007`
    /// truncation is a warning and does not flip this; a truncated
    /// clean report still means "no violation found before the cap".
    pub fn is_certified(&self) -> bool {
        self.diagnostics.iter().all(|d| d.severity < Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// Renders the report as pretty-printed JSON (same diagnostic
    /// shape as `lsr lint --json`).
    pub fn to_json(&self) -> String {
        use serde::{Serialize, Value};
        let obj = Value::Obj(vec![
            ("errors".into(), Value::U64(self.error_count() as u64)),
            ("warnings".into(), Value::U64(self.warning_count() as u64)),
            ("certified".into(), Value::Bool(self.is_certified())),
            ("records_replayed".into(), Value::U64(self.records_replayed as u64)),
            ("checks".into(), Value::U64(self.checks)),
            ("replay_edges".into(), Value::U64(self.replay_edges as u64)),
            ("diagnostics".into(), self.diagnostics.ser()),
        ]);
        serde_json::to_string_pretty(&obj).expect("value rendering is infallible")
    }
}

const EXPLAIN_A001: &str = "the certificate names a merge rule whose pipeline stage is disabled \
     by this configuration, so this provenance log cannot have been \
     produced by the configuration it is being checked against";
const EXPLAIN_A002: &str = "replaying the merge log reached a record whose rule precondition \
     (paper Algorithms 1-5) does not hold in the replayed partition \
     state; the provenance log does not certify this structure";
const EXPLAIN_A003: &str = "two tasks recorded as merged share no phase in the final structure; \
     the structure contradicts its own merge certificate";
const EXPLAIN_A004: &str = "the phase successor relation contains a cycle; recovered phases must \
     form a DAG (paper \u{a7}3.1.4, Algorithm 5)";
const EXPLAIN_A005: &str = "a time-witnessed merge decision contradicts the trace: the task \
     recorded as earlier has its earliest event after the latest event \
     of the task recorded as later";
const EXPLAIN_A006: &str = "the step assignment violates a \u{a7}3.2 law: global step must equal \
     phase offset plus local step, a receive must land on a strictly \
     later local step than its intra-phase send, phase offsets must \
     respect the phase DAG, and a task's events must keep strictly \
     increasing local steps within one phase";
const EXPLAIN_A007: &str = "the audit stopped collecting at its diagnostic limit; later checks \
     did not run, so violation counts are lower bounds (raise the \
     limit for the full list)";

/// Bounded diagnostic sink: `push` returns false once the cap fires
/// (after appending the `A007` truncation warning).
struct Sink {
    out: Vec<Diagnostic>,
    limit: usize,
    full: bool,
}

impl Sink {
    fn new(limit: usize) -> Sink {
        Sink { out: Vec::new(), limit: limit.max(1), full: false }
    }

    fn push(&mut self, d: Diagnostic) -> bool {
        if self.full {
            return false;
        }
        self.out.push(d);
        if self.out.len() >= self.limit {
            self.out.push(Diagnostic {
                code: "A007",
                name: "AuditTruncated",
                severity: Severity::Warning,
                location: Location::Global,
                message: format!("stopped at the {}-diagnostic limit", self.limit),
                explanation: EXPLAIN_A007,
            });
            self.full = true;
        }
        !self.full
    }
}

fn diag(code: &'static str, name: &'static str, location: Location, message: String) -> Diagnostic {
    let explanation = match code {
        "A001" => EXPLAIN_A001,
        "A002" => EXPLAIN_A002,
        "A003" => EXPLAIN_A003,
        "A004" => EXPLAIN_A004,
        "A005" => EXPLAIN_A005,
        _ => EXPLAIN_A006,
    };
    Diagnostic { code, name, severity: Severity::Error, location, message, explanation }
}

/// True for rules that union two partitions (as opposed to adding a
/// happened-before edge between them).
fn is_union_rule(rule: ProvenanceRule) -> bool {
    !matches!(
        rule,
        ProvenanceRule::SdagEdge
            | ProvenanceRule::InferredEdge
            | ProvenanceRule::OrderingEdge
            | ProvenanceRule::EnforcePathEdge
    )
}

/// The configuration gate a rule's pipeline stage runs behind, if any.
/// Mirrors `extract_inner`: leap resolution (ordering + leap merges),
/// DAG enforcement, dependency and collective merges, and cycle merges
/// are unconditional.
fn rule_gate(rule: ProvenanceRule, cfg: &Config) -> Option<(&'static str, bool)> {
    match rule {
        ProvenanceRule::SdagAbsorb
        | ProvenanceRule::SdagEdge
        | ProvenanceRule::NeighborSerialMerge => Some(("sdag_inference", cfg.sdag_inference)),
        ProvenanceRule::RepairMerge => Some(("split_app_runtime", cfg.split_app_runtime)),
        ProvenanceRule::InferredEdge => Some(("infer_dependencies", cfg.infer_dependencies)),
        _ => None,
    }
}

/// Per-task facts precomputed from the trace and final structure, as
/// flat per-task tables: the replay looks them up at random task ids,
/// so they stay small enough to cache.
struct TaskFacts {
    /// Sorted unique final phases of each task's events (valid phases
    /// only), as CSR: task t's at `phases[phase_off[t]..phase_off[t + 1]]`.
    phase_off: Vec<u32>,
    phases: Vec<u32>,
    /// Earliest and latest event time per task. A task without events
    /// gets `Time(0)` and `Time(u64::MAX)`, so `first[a] > last[b]`
    /// never holds when either task has none.
    first: Vec<Time>,
    last: Vec<Time>,
    /// Chare per task.
    chare: Vec<ChareId>,
}

impl TaskFacts {
    fn build(trace: &Trace, ls: &LogicalStructure) -> TaskFacts {
        let nphases = ls.phases.len() as u32;
        let n = trace.tasks.len();
        let mut phase_off = Vec::with_capacity(n + 1);
        phase_off.push(0);
        let mut phases = Vec::new();
        let mut set = Vec::new();
        let (mut first, mut last) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for t in &trace.tasks {
            set.clear();
            let mut range: Option<(Time, Time)> = None;
            for e in t.events() {
                let Some(ev) = trace.events.get(e.index()) else { continue };
                range = match range {
                    None => Some((ev.time, ev.time)),
                    Some((lo, hi)) => Some((lo.min(ev.time), hi.max(ev.time))),
                };
                if let Some(&p) = ls.phase_of_event.get(e.index()) {
                    if p < nphases {
                        set.push(p);
                    }
                }
            }
            let (lo, hi) = range.unwrap_or((Time(0), Time(u64::MAX)));
            first.push(lo);
            last.push(hi);
            set.sort_unstable();
            set.dedup();
            phases.extend_from_slice(&set);
            phase_off.push(phases.len() as u32);
        }
        let chare = trace.tasks.iter().map(|t| t.chare).collect();
        TaskFacts { phase_off, phases, first, last, chare }
    }

    fn phases(&self, t: TaskId) -> &[u32] {
        &self.phases[self.phase_off[t.index()] as usize..self.phase_off[t.index() + 1] as usize]
    }
}

fn sorted_intersect(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Checks `prov` as a certificate for `ls` over `trace` under `cfg`.
///
/// Emits `A001`–`A006` error diagnostics for every violated law (up to
/// `opts.limit`, then an `A007` warning) through the shared `lsr-lint`
/// diagnostic machinery. A clean report means the merge log replays
/// with every precondition intact, the phase DAG is acyclic, and the
/// step numbering obeys the §3.2 laws — independently re-derived here,
/// sharing no code with the extraction pipeline.
pub fn audit(
    trace: &Trace,
    cfg: &Config,
    prov: &MergeProvenance,
    ls: &LogicalStructure,
    opts: AuditOptions,
) -> AuditReport {
    let _span = cfg.recorder.span("audit");
    let mut sink = Sink::new(opts.limit);
    let mut checks: u64 = 0;

    let n = trace.tasks.len();
    let facts = TaskFacts::build(trace, ls);

    // Base happened-before edges of the replay graph, mirroring the
    // atom graph's task-level image: matched messages always, chare
    // (process) order only in the message-passing model with the
    // process-order flag on. The receivers of each task's matched
    // messages are also kept as CSR (`msg_to[msg_off[a]..msg_off[a +
    // 1]]`), so the dependency-merge precondition scans one short list.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut msg_off = vec![0u32; n + 1];
    for me in trace.message_edges() {
        msg_off[me.from.index() + 1] += 1;
    }
    for t in 0..n {
        msg_off[t + 1] += msg_off[t];
    }
    let mut fill = msg_off.clone();
    let mut msg_to = vec![0u32; msg_off[n] as usize];
    for me in trace.message_edges() {
        msg_to[fill[me.from.index()] as usize] = me.to.0;
        fill[me.from.index()] += 1;
        if me.from != me.to {
            edges.push((me.from.0, me.to.0));
        }
    }
    if cfg.model == TraceModel::MessagePassing && cfg.mp_process_order {
        let ix = trace.index();
        for (a, b) in ix.chare_order_edges() {
            edges.push((a.0, b.0));
        }
    }

    // Each task's replayed group carries its set of entry types: the
    // one fact the repair and neighbor-serial preconditions ask of it.
    let mut uf = UnionFind::new(trace.tasks.iter().map(|t| t.entry.0));
    // Component id per task, recomputed lazily at the start of each
    // contiguous run of CycleMerge records (the pipeline collapses all
    // SCCs of one graph snapshot in one burst, so one Tarjan pass per
    // burst sees exactly the graph that burst was computed on).
    let mut comp: Option<Vec<u32>> = None;
    let mut records_replayed = 0usize;

    'records: for (i, rec) in prov.records.iter().enumerate() {
        records_replayed = i + 1;
        if rec.rule != ProvenanceRule::CycleMerge {
            comp = None;
        }
        // Record sanity: task ids must resolve.
        if rec.a.index() >= n || rec.b.index() >= n {
            checks += 1;
            if !sink.push(diag(
                "A002",
                "BadMergePrecondition",
                Location::Global,
                format!(
                    "record {i} ({}) names task {} but the trace has {n} tasks",
                    rec.rule.name(),
                    rec.a.index().max(rec.b.index()),
                ),
            )) {
                break 'records;
            }
            continue;
        }
        let (a, b) = (rec.a.0, rec.b.0);

        // A001: the rule's pipeline stage must be enabled.
        checks += 1;
        if let Some((flag, enabled)) = rule_gate(rec.rule, cfg) {
            if !enabled
                && !sink.push(diag(
                    "A001",
                    "RuleNotEnabled",
                    Location::Task { task: rec.a },
                    format!(
                        "record {i}: rule {} requires config flag {flag}, which is off",
                        rec.rule.name()
                    ),
                ))
            {
                break 'records;
            }
        }

        // A002: the rule's precondition in the replayed state.
        checks += 1;
        let precondition_ok = match rec.rule {
            // Alg. 1: a matched message must connect sender to receiver.
            ProvenanceRule::DependencyMerge => {
                a == b
                    || msg_to[msg_off[a as usize] as usize..msg_off[a as usize + 1] as usize]
                        .contains(&b)
            }
            // Cycle collapse: both tasks in one SCC of the current
            // replay graph (task-level coarsening preserves SCC
            // membership of the pipeline's partition graph).
            ProvenanceRule::CycleMerge => {
                let comp = comp.get_or_insert_with(|| {
                    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
                    for &(u, v) in &edges {
                        let (ru, rv) = (uf.find(u), uf.find(v));
                        if ru != rv {
                            succs[ru as usize].push(rv);
                        }
                    }
                    sccs(n, &succs)
                });
                comp[uf.find(a) as usize] == comp[uf.find(b) as usize]
            }
            // Alg. 2: the anchor's partition holds a fragment of the
            // same entry type as the reunited fragment.
            ProvenanceRule::RepairMerge => uf.labels(a).binary_search(&uf.label(b)).is_ok(),
            // §3.1.3: the merged partitions hold serials of a common
            // entry type (the group key both were filed under).
            ProvenanceRule::NeighborSerialMerge => sorted_intersect(uf.labels(a), uf.labels(b)),
            // §7.1: both ends run collective entry methods.
            ProvenanceRule::CollectiveMerge => {
                trace.entry(trace.task(rec.a).entry).collective
                    && trace.entry(trace.task(rec.b).entry).collective
            }
            // §2.1 SDAG heuristics act within one chare.
            ProvenanceRule::SdagAbsorb | ProvenanceRule::SdagEdge => {
                facts.chare[rec.a.index()] == facts.chare[rec.b.index()]
            }
            // Representative pairs with no per-record law beyond the
            // phase-sharing and time checks below.
            ProvenanceRule::LeapMerge
            | ProvenanceRule::InferredEdge
            | ProvenanceRule::OrderingEdge
            | ProvenanceRule::EnforcePathEdge => true,
        };
        if !precondition_ok
            && !sink.push(diag(
                "A002",
                "BadMergePrecondition",
                Location::Task { task: rec.a },
                format!(
                    "record {i}: {} precondition fails for pair ({}, {})",
                    rec.rule.name(),
                    rec.a,
                    rec.b
                ),
            ))
        {
            break 'records;
        }

        // A005: time witnesses must be consistent with the trace.
        if rec.timed {
            checks += 1;
            let (lo_a, hi_b) = (facts.first[rec.a.index()], facts.last[rec.b.index()]);
            if lo_a > hi_b
                && !sink.push(diag(
                    "A005",
                    "TimeContradiction",
                    Location::Task { task: rec.a },
                    format!(
                        "record {i}: {} orders {} before {} but {}'s earliest event \
                         ({:?}) is after {}'s latest ({:?})",
                        rec.rule.name(),
                        rec.a,
                        rec.b,
                        rec.a,
                        lo_a,
                        rec.b,
                        hi_b
                    ),
                ))
            {
                break 'records;
            }
        }

        // Apply the record to the replay state.
        if is_union_rule(rec.rule) {
            // A003: merged tasks must share a final phase.
            checks += 1;
            let (pa, pb) = (facts.phases(rec.a), facts.phases(rec.b));
            if a != b
                && !pa.is_empty()
                && !pb.is_empty()
                && !sorted_intersect(pa, pb)
                && !sink.push(diag(
                    "A003",
                    "PhaseSharingViolation",
                    Location::Task { task: rec.a },
                    format!(
                        "record {i}: {} merges {} and {}, but they share no phase in the \
                         final structure",
                        rec.rule.name(),
                        rec.a,
                        rec.b
                    ),
                ))
            {
                break 'records;
            }
            uf.union(a, b);
        } else {
            edges.push((a, b));
        }
    }

    // A004: the final phase successor relation must stay acyclic under
    // incremental (Pearce-Kelly) insertion. Detection stays
    // independent of the pipeline; only the *witness* in the message
    // comes from the flow oracle's rejected build (a cold path — it
    // runs once per reported cycle, never on clean structures).
    let nphases = ls.phases.len();
    let mut dag = IncrementalDag::new(nphases);
    'phases: for (p, succs) in ls.phase_succs.iter().enumerate() {
        for &s in succs {
            checks += 1;
            let ok = (s as usize) < nphases && dag.insert_edge(p as u32, s);
            if !ok
                && !sink.push(diag(
                    "A004",
                    "PhaseDagCycle",
                    Location::Phase { phase: p as u32 },
                    if (s as usize) < nphases {
                        format!(
                            "inserting phase edge {p} -> {s} closes a cycle{}",
                            phase_cycle_witness(ls)
                        )
                    } else {
                        format!("phase edge {p} -> {s} points past the {nphases}-phase table")
                    },
                ))
            {
                break 'phases;
            }
        }
    }

    step_laws(trace, ls, &mut sink, &mut checks);

    let report =
        AuditReport { diagnostics: sink.out, records_replayed, checks, replay_edges: edges.len() };
    cfg.recorder.add("audit.records", records_replayed as u64);
    cfg.recorder.add("audit.checks", report.checks);
    cfg.recorder.add("audit.edges", report.replay_edges as u64);
    cfg.recorder.add("audit.violations", report.error_count() as u64);
    report
}

/// Renders a cycle witness for an A004 message by asking the flow
/// oracle to index the phase DAG: the build is rejected with one
/// cycle's members in edge order. Returns an empty string when the
/// oracle unexpectedly accepts (only possible when the offending edge
/// was out of range, which A004 reports separately).
fn phase_cycle_witness(ls: &LogicalStructure) -> String {
    match lsr_flow::ReachOracle::build(&lsr_flow::FlowGraph::phase_dag(ls)) {
        Err(cycle) => {
            let shown: Vec<String> = cycle.iter().take(8).map(|p| p.to_string()).collect();
            format!(
                " through {} phase(s): {}{}",
                cycle.len(),
                shown.join(" -> "),
                if cycle.len() > 8 { " -> ..." } else { "" }
            )
        }
        Ok(_) => String::new(),
    }
}

/// §3.2 step-assignment laws, re-derived from the paper rather than
/// shared with `lsr-core`'s verifier:
///
/// 1. tables are sized to the trace;
/// 2. `step(e) = offset(phase(e)) + local(e)` with `local ≤ max_local`;
/// 3. along every phase edge `p → s`: `offset(s) ≥ offset(p) +
///    max_local(p) + 1` (phases occupy disjoint, ordered step ranges);
/// 4. a matched receive lands at least one local step after its send
///    when both are in one phase (`w_send = 1 + max w_recv` collapses
///    to this inequality after longest-path numbering);
/// 5. one task's events within one phase keep strictly increasing
///    local steps (serial blocks stay serial under reordering).
fn step_laws(trace: &Trace, ls: &LogicalStructure, sink: &mut Sink, checks: &mut u64) {
    let nev = trace.events.len();
    *checks += 1;
    if ls.phase_of_event.len() != nev || ls.local_step.len() != nev || ls.step.len() != nev {
        sink.push(diag(
            "A006",
            "StepLawViolation",
            Location::Global,
            format!(
                "step tables sized {}/{}/{} for a {nev}-event trace",
                ls.phase_of_event.len(),
                ls.local_step.len(),
                ls.step.len()
            ),
        ));
        return;
    }
    let nphases = ls.phases.len() as u32;

    // Law 2: per-event identities.
    for e in trace.event_ids() {
        *checks += 1;
        let p = ls.phase_of_event[e.index()];
        if p >= nphases {
            let what = if p == NO_PHASE { "no phase".to_string() } else { format!("phase {p}") };
            if !sink.push(diag(
                "A006",
                "StepLawViolation",
                Location::Event { event: e },
                format!("event assigned {what}, outside the {nphases}-phase table"),
            )) {
                return;
            }
            continue;
        }
        let ph = &ls.phases[p as usize];
        let (local, step) = (ls.local_step[e.index()], ls.step[e.index()]);
        if (local > ph.max_local || step != ph.offset + local)
            && !sink.push(diag(
                "A006",
                "StepLawViolation",
                Location::Event { event: e },
                format!(
                    "step {step} != offset {} + local {local} (max_local {}) in phase {p}",
                    ph.offset, ph.max_local
                ),
            ))
        {
            return;
        }
    }

    // Law 3: offsets respect the phase DAG.
    for (p, succs) in ls.phase_succs.iter().enumerate() {
        let pp = &ls.phases[p];
        for &s in succs {
            if (s as usize) >= ls.phases.len() {
                continue; // already reported by A004
            }
            *checks += 1;
            let ps = &ls.phases[s as usize];
            if ps.offset < pp.offset + pp.max_local + 1
                && !sink.push(diag(
                    "A006",
                    "StepLawViolation",
                    Location::Phase { phase: s },
                    format!(
                        "phase {s} starts at step {} inside predecessor {p}'s range \
                         (offset {} + max_local {})",
                        ps.offset, pp.offset, pp.max_local
                    ),
                ))
            {
                return;
            }
        }
    }

    // Law 4: intra-phase message ordering.
    for ev in &trace.events {
        let EventKind::Recv { msg: Some(m) } = ev.kind else { continue };
        let se = trace.msg(m).send_event;
        let (pr, ps) = (ls.phase_of_event[ev.id.index()], ls.phase_of_event[se.index()]);
        if pr != ps || pr >= nphases {
            continue;
        }
        *checks += 1;
        if ls.local_step[ev.id.index()] < ls.local_step[se.index()] + 1
            && !sink.push(diag(
                "A006",
                "StepLawViolation",
                Location::Msg { msg: m },
                format!(
                    "receive {} at local step {} not after its send {} at {} in phase {pr}",
                    ev.id,
                    ls.local_step[ev.id.index()],
                    se,
                    ls.local_step[se.index()]
                ),
            ))
        {
            return;
        }
    }

    // Law 5: serial blocks stay serial within a phase.
    for t in &trace.tasks {
        let mut last: Option<(u32, u64)> = None;
        for e in t.events() {
            let p = ls.phase_of_event[e.index()];
            if p >= nphases {
                continue;
            }
            let local = ls.local_step[e.index()];
            if let Some((lp, ll)) = last {
                if lp == p {
                    *checks += 1;
                    if local <= ll
                        && !sink.push(diag(
                            "A006",
                            "StepLawViolation",
                            Location::Task { task: t.id },
                            format!(
                                "consecutive events of {} in phase {p} have non-increasing \
                                 local steps {ll} then {local}",
                                t.id
                            ),
                        ))
                    {
                        return;
                    }
                }
            }
            last = Some((p, local));
        }
    }
}

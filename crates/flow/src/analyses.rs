//! The D-family client analyses over the phase DAG.
//!
//! Each analysis is a client of the dataflow framework and/or the
//! reachability oracle; `lsr-lint` renders the typed [`Finding`]s as
//! `D`-coded diagnostics (docs/lints.md), and `lsr analyze` is the CLI
//! surface.

use crate::graph::FlowGraph;
use crate::lattice::{BitSet, JoinSemiLattice, MaxU64};
use crate::reach::ReachOracle;
use crate::solver::{solve, Analysis, Direction, Solution};
use lsr_core::{LogicalStructure, NO_PHASE};
use lsr_metrics::CriticalPath;
use lsr_obs::Recorder;
use lsr_trace::{TaskId, Trace};

/// Default cap on collected findings (mirrors the lint family's
/// `DEFAULT_DIAG_LIMIT`).
pub const DEFAULT_FINDING_LIMIT: usize = 64;

/// Tuning knobs for [`analyze`].
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// D001 fires when a gate phase dominates (or post-dominates) at
    /// least this share of the other phases' work.
    pub bottleneck_share: f64,
    /// Cap on collected findings.
    pub limit: usize,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions { bottleneck_share: 0.5, limit: DEFAULT_FINDING_LIMIT }
    }
}

/// Which side of the flow a D001 gate constricts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateSide {
    /// The phase dominates downstream work: everything after it waits
    /// for it to start.
    Dominator,
    /// The phase post-dominates upstream work: everything before it
    /// must finish through it.
    PostDominator,
}

/// One structure-level analysis finding. The lint layer maps these to
/// `D001`–`D004` diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub enum Finding {
    /// D001 — a join/fork phase gating a large share of the run's work
    /// in a DAG that elsewhere exposes parallelism, while itself
    /// running on strictly fewer chares than wait on it.
    SerializationBottleneck {
        /// The gate phase.
        phase: u32,
        /// Which side it gates.
        side: GateSide,
        /// Phases whose every path passes through the gate.
        gated_phases: usize,
        /// Their share of all work outside the gate itself.
        gated_share: f64,
    },
    /// D002 — a phase edge already implied by the transitive closure
    /// of the remaining edges.
    RedundantDependence {
        /// Edge source.
        pred: u32,
        /// Edge target.
        succ: u32,
        /// A direct successor of `pred` that already reaches `succ`.
        via: u32,
    },
    /// D003 — a phase with no events and no tasks.
    OrphanPhase {
        /// The empty phase.
        phase: u32,
    },
    /// D004 — a phase whose committed offset disagrees with the
    /// longest-path earliest start over the phase DAG (§3.2's packing
    /// law): positive slack the step numbering cannot justify.
    StretchedOffset {
        /// The disagreeing phase.
        phase: u32,
        /// Longest-path earliest start, in steps.
        expected: u64,
        /// The structure's committed offset.
        actual: u64,
    },
    /// D004 — two consecutive tasks of the `lsr-metrics` critical path
    /// sit in phases the structure leaves unordered, yet the path
    /// chains them through a message dependence.
    CritPathUnordered {
        /// Earlier task on the critical path.
        first: TaskId,
        /// Its successor on the critical path.
        second: TaskId,
        /// Phase of `first`.
        first_phase: u32,
        /// Phase of `second`.
        second_phase: u32,
    },
}

impl Finding {
    /// The diagnostic code this finding renders as.
    pub fn code(&self) -> &'static str {
        match self {
            Finding::SerializationBottleneck { .. } => "D001",
            Finding::RedundantDependence { .. } => "D002",
            Finding::OrphanPhase { .. } => "D003",
            Finding::StretchedOffset { .. } | Finding::CritPathUnordered { .. } => "D004",
        }
    }
}

/// The result of a full D-family pass.
#[derive(Debug)]
pub struct AnalyzeReport {
    /// Findings, in code order, capped at `AnalyzeOptions::limit`.
    pub findings: Vec<Finding>,
    /// True when the cap cut the list short.
    pub truncated: bool,
    /// Phase count of the analyzed DAG.
    pub phases: usize,
    /// Edge count of the analyzed DAG.
    pub edges: usize,
    /// The oracle built over the DAG, for callers with further
    /// structure-level queries.
    pub oracle: ReachOracle,
    /// Worklist iterations across all dataflow solves.
    pub solver_iterations: u64,
}

/// Dominators as a dataflow instance: `Some(set)` is a bitset of
/// dominators, `None` is ⊤ (the full universe) so intersection can
/// start neutral.
#[derive(Clone, Debug, PartialEq)]
struct DomFact(Option<BitSet>);

impl JoinSemiLattice for DomFact {
    fn join(&mut self, other: &Self) -> bool {
        match (&mut self.0, &other.0) {
            (_, None) => false,
            (None, Some(b)) => {
                self.0 = Some(b.clone());
                true
            }
            (Some(a), Some(b)) => a.intersect(b),
        }
    }
}

struct Dominators {
    n: usize,
    direction: Direction,
}

impl Analysis for Dominators {
    type Fact = DomFact;
    fn direction(&self) -> Direction {
        self.direction
    }
    fn init(&self, _node: u32) -> DomFact {
        DomFact(None) // ⊤: every node until a path constrains it
    }
    fn transfer(&self, node: u32, input: &DomFact) -> DomFact {
        // dom(v) = {v} ∪ ∩ dom(preds); boundary nodes see ⊤ input and
        // resolve to {v} alone.
        let mut set = match &input.0 {
            Some(s) => s.clone(),
            None => BitSet::empty(self.n),
        };
        set.insert(node);
        DomFact(Some(set))
    }
}

/// Runs the dominator analysis; `Backward` yields post-dominators.
fn dominator_sets(g: &FlowGraph, direction: Direction) -> Solution<DomFact> {
    solve(g, &Dominators { n: g.len(), direction })
}

/// Forward longest-path earliest starts, in step units: the input fact
/// at each phase is exactly the offset §3.2's assembly commits.
struct Earliest<'a> {
    weights: &'a [u64],
}

impl Analysis for Earliest<'_> {
    type Fact = MaxU64;
    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn init(&self, _node: u32) -> MaxU64 {
        MaxU64(0)
    }
    fn transfer(&self, node: u32, input: &MaxU64) -> MaxU64 {
        MaxU64(input.0 + self.weights[node as usize])
    }
}

/// Wall-clock work per phase: the summed duration of its tasks.
fn phase_work(trace: &Trace, ls: &LogicalStructure) -> Vec<u64> {
    let mut work = vec![0u64; ls.phases.len()];
    for t in &trace.tasks {
        let p = ls.task_phase[t.id.index()];
        if p != NO_PHASE && (p as usize) < work.len() {
            work[p as usize] += (t.end - t.begin).nanos();
        }
    }
    work
}

/// True when two sorted, deduped id slices have no element in common.
fn sorted_disjoint(a: &[lsr_trace::ChareId], b: &[lsr_trace::ChareId]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

/// Runs the full D-family pass over a recovered structure.
///
/// Returns `Err` with the cycle members when the phase graph is not a
/// DAG (an `S002`/`A004`-grade corruption the caller reports instead).
pub fn analyze(
    trace: &Trace,
    ls: &LogicalStructure,
    rec: &Recorder,
    opts: &AnalyzeOptions,
) -> Result<AnalyzeReport, Vec<u32>> {
    let span = rec.span("analyze");
    let g = FlowGraph::phase_dag(ls);

    let sp = rec.span("oracle");
    let oracle = ReachOracle::build(&g)?;
    rec.add("flow.oracle.nodes", g.len() as u64);
    rec.add("flow.oracle.edges", g.edge_count() as u64);
    drop(sp);

    let mut findings = Vec::new();
    let mut iterations = 0u64;
    let limit = opts.limit.max(1);
    let mut truncated = false;
    let mut push = |findings: &mut Vec<Finding>, f: Finding| -> bool {
        if findings.len() < limit {
            findings.push(f);
            true
        } else {
            truncated = true;
            false
        }
    };

    // D001 — serialization bottlenecks via dominators/post-dominators.
    {
        let _sp = rec.span("bottleneck");
        let work = phase_work(trace, ls);
        let total: u64 = work.iter().sum();
        // A width-1 DAG is inherently serial: every phase trivially
        // gates everything after it, so there is no parallelism for a
        // bottleneck to destroy.
        if total > 0 && g.len() >= 3 && oracle.max_width() >= 2 {
            let dom = dominator_sets(&g, Direction::Forward);
            let pdom = dominator_sets(&g, Direction::Backward);
            iterations += dom.iterations + pdom.iterations;
            for (side, sol, gate_degree) in [
                (GateSide::Dominator, &dom, g.preds.as_slice()),
                (GateSide::PostDominator, &pdom, g.succs.as_slice()),
            ] {
                // gated[p] = work of phases (other than p) whose every
                // root-to-them (or them-to-sink) path passes p.
                let mut gated_work = vec![0u64; g.len()];
                let mut gated_count = vec![0usize; g.len()];
                for q in 0..g.len() as u32 {
                    if let DomFact(Some(set)) = &sol.outputs[q as usize] {
                        for p in set.iter().filter(|&p| p != q) {
                            gated_work[p as usize] += work[q as usize];
                            gated_count[p as usize] += 1;
                        }
                    }
                }
                for p in 0..g.len() as u32 {
                    // Only a genuine merge/fork point can serialize:
                    // the gate must join (or fan out to) ≥ 2 edges.
                    if gate_degree[p as usize].len() < 2 {
                        continue;
                    }
                    let rest = total - work[p as usize];
                    if rest == 0 {
                        continue;
                    }
                    let share = gated_work[p as usize] as f64 / rest as f64;
                    if share < opts.bottleneck_share {
                        continue;
                    }
                    // The gate must also *constrict*: strictly more
                    // chares wait on it than participate in it. A
                    // collective phase spanning every rank gates its
                    // supersteps by construction — that is the app's
                    // structure, not a serialization defect.
                    let mut gated_chares: std::collections::HashSet<lsr_trace::ChareId> =
                        std::collections::HashSet::new();
                    for q in 0..g.len() as u32 {
                        if q == p {
                            continue;
                        }
                        if let DomFact(Some(set)) = &sol.outputs[q as usize] {
                            if set.contains(p) {
                                gated_chares.extend(ls.phases[q as usize].chares.iter().copied());
                            }
                        }
                    }
                    if gated_chares.len() <= ls.phases[p as usize].chares.len() {
                        continue;
                    }
                    if !push(
                        &mut findings,
                        Finding::SerializationBottleneck {
                            phase: p,
                            side,
                            gated_phases: gated_count[p as usize],
                            gated_share: share,
                        },
                    ) {
                        break;
                    }
                }
            }
        }
    }

    // D002 — redundant dependence: an edge (p, s) is implied when some
    // other direct successor of p already reaches s. Implied edges are
    // routine in recovered structures — a chare whose consecutive
    // events span p and s mints the edge directly, and the §3.1 merges
    // never transitively reduce — so only edges with no such witness
    // (the endpoint phases share no chare) are suspicious: nothing in
    // the trace could have minted them.
    {
        let _sp = rec.span("redundant");
        let chare_sets: Vec<&[lsr_trace::ChareId]> =
            ls.phases.iter().map(|ph| ph.chares.as_slice()).collect();
        'outer: for p in 0..g.len() as u32 {
            let succs = &g.succs[p as usize];
            for &s in succs {
                if sorted_disjoint(chare_sets[p as usize], chare_sets[s as usize]) {
                    if let Some(&via) = succs.iter().find(|&&w| w != s && oracle.reaches(w, s)) {
                        if !push(
                            &mut findings,
                            Finding::RedundantDependence { pred: p, succ: s, via },
                        ) {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }

    // D003 — orphan phases: no events map to the phase and it owns no
    // tasks. The pipeline only mints phases for non-empty partitions,
    // so an orphan means the table was truncated or hand-edited.
    {
        let _sp = rec.span("orphan");
        let mut events_in = vec![0u64; ls.phases.len()];
        for &p in &ls.phase_of_event {
            if p != NO_PHASE && (p as usize) < events_in.len() {
                events_in[p as usize] += 1;
            }
        }
        for (p, ph) in ls.phases.iter().enumerate() {
            if events_in[p] == 0
                && ph.tasks.is_empty()
                && !push(&mut findings, Finding::OrphanPhase { phase: p as u32 })
            {
                break;
            }
        }
    }

    // D004 — slack / critical-path disagreement.
    {
        let _sp = rec.span("slack");
        // (a) Offsets must equal the forward longest-path earliest
        // start (the assembly packs phases tightly; slack means the
        // step tables were stretched or shifted).
        let weights: Vec<u64> = ls.phases.iter().map(|ph| ph.max_local + 1).collect();
        let sol = solve(&g, &Earliest { weights: &weights });
        iterations += sol.iterations;
        for (p, ph) in ls.phases.iter().enumerate() {
            let expected = sol.inputs[p].0;
            if ph.offset != expected
                && !push(
                    &mut findings,
                    Finding::StretchedOffset { phase: p as u32, expected, actual: ph.offset },
                )
            {
                break;
            }
        }
        // (b) The metrics critical path must stay phase-ordered: a
        // message-linked hop between phases the oracle calls unordered
        // means the structure misses a dependence that bounded the run.
        let ix = trace.index();
        let cp = CriticalPath::compute_with(trace, &ix);
        for pair in cp.tasks.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let (pa, pb) = (ls.task_phase[a.index()], ls.task_phase[b.index()]);
            if pa == NO_PHASE || pb == NO_PHASE || pa == pb {
                continue;
            }
            if (pa as usize) >= g.len() || (pb as usize) >= g.len() {
                continue; // out-of-range ids are S/A-family territory
            }
            // Resource (same-PE) hops legitimately cross concurrent
            // phases; only message hops assert a real dependence.
            if ix.prev_on_pe(trace, b) == Some(a) {
                continue;
            }
            if !oracle.strictly_reaches(pa, pb)
                && !push(
                    &mut findings,
                    Finding::CritPathUnordered {
                        first: a,
                        second: b,
                        first_phase: pa,
                        second_phase: pb,
                    },
                )
            {
                break;
            }
        }
    }

    findings.sort_by_key(|f| f.code());
    rec.add("flow.solver.iterations", iterations);
    rec.add("flow.findings", findings.len() as u64);
    rec.add("flow.oracle.queries", oracle.query_count());
    rec.add("flow.oracle.searches", oracle.search_count());
    drop(span);

    Ok(AnalyzeReport {
        findings,
        truncated,
        phases: g.len(),
        edges: g.edge_count(),
        oracle,
        solver_iterations: iterations,
    })
}

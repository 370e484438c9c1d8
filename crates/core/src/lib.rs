//! # lsr-core
//!
//! The paper's contribution: recovering logical structure from
//! task-based runtime event traces (Isaacs et al., SC '15).
//!
//! [`extract`] runs the full pipeline on a validated
//! [`lsr_trace::Trace`]:
//!
//! 1. **Initial partitions** (§3.1.1): serial blocks split at
//!    application/runtime boundaries, SDAG heuristics (§2.1).
//! 2. **Dependency merge** (§3.1.2, Alg. 1) and cycle merges.
//! 3. **Serial-block repair** (§3.1.3, Alg. 2) and the neighboring
//!    serials merge.
//! 4. **Inference** (§3.1.4): missing dependencies from partition
//!    sources (Alg. 3), merging of concurrent overlapping phases
//!    (Alg. 4), application/runtime ordering, and the chare-path
//!    DAG properties (Alg. 5).
//! 5. **Step assignment** (§3.2) with the idealized-forward-replay
//!    reordering (§3.2.1), in its task-based and message-passing
//!    variants. Phases are independent, so with [`Config::threads`]
//!    above one they are ordered in parallel (§3.3) — the pipeline's
//!    one parallel region; phase finding (steps 1–4) is serial.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atoms;
mod config;
pub mod graph;
mod merges;
mod pool;
mod provenance;
mod stage;
mod step;
mod structure;
mod verify;

pub use config::{Config, OrderingPolicy, TieBreak, TraceModel};
pub use provenance::{MergeProvenance, MergeRecord, ProvenanceRule};
pub use stage::Diagnostics;
pub use structure::{
    intra_phase_messages, is_source, phase_signature, LogicalStructure, Phase, NO_PHASE,
};
pub use verify::{InvariantViolation, StructureVerifier, DEFAULT_VIOLATION_LIMIT};

use lsr_trace::{TaskId, Trace};

/// A typed extraction failure. The pipeline is total on validated
/// traces ([`lsr_trace::validate()`] accepts only causally consistent
/// timestamps), but unchecked or salvaged traces can carry timestamps
/// that contradict causality; those used to panic deep inside step
/// assignment and now surface here instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// Step assignment found a dependency cycle in `phase` even under
    /// physical-time ordering: some receive is stamped before the send
    /// it depends on along the same lane chain, so no replay order
    /// exists. Run `lsr lint` on the trace to locate the offending
    /// records.
    StepCycle {
        /// Dense id of the phase whose step graph is cyclic.
        phase: u32,
        /// Events on one offending dependency cycle, in edge order
        /// (from the physical-time attempt, the last one tried).
        cycle: Vec<lsr_trace::EventId>,
    },
    /// A merge stage left a cycle in the condensed phase graph, so no
    /// leap assignment or topological phase order exists. Every merge
    /// pass ends with a cycle merge, so validated traces cannot reach
    /// this; corrupted partition state surfaces here — through every
    /// `try_extract*` entry point, serial or parallel — instead of the
    /// panic it used to be.
    PhaseCycle {
        /// Dense partition ids (at the failing stage) on one offending
        /// cycle, in edge order.
        cycle: Vec<u32>,
    },
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::StepCycle { phase, cycle } => {
                let shown: Vec<String> = cycle.iter().take(8).map(|e| e.to_string()).collect();
                write!(
                    f,
                    "step assignment cycle in phase {phase} through {} event(s): {}{} — \
                     timestamps contradict causality (a receive precedes its matching send); \
                     run `lsr lint` to locate it",
                    cycle.len(),
                    shown.join(" -> "),
                    if cycle.len() > 8 { " -> ..." } else { "" }
                )
            }
            ExtractError::PhaseCycle { cycle } => {
                let shown: Vec<String> = cycle.iter().take(8).map(|p| p.to_string()).collect();
                write!(
                    f,
                    "phase graph cycle through {} partition(s): {}{} — every merge stage \
                     must leave a DAG, so the partition state is corrupt; run `lsr lint` \
                     to locate the offending records",
                    cycle.len(),
                    shown.join(" -> "),
                    if cycle.len() > 8 { " -> ..." } else { "" }
                )
            }
        }
    }
}

impl std::error::Error for ExtractError {}

/// Span names the pipeline always opens under its root `"extract"`
/// span, in stage order, through [`Config::recorder`]. The conditional
/// stages — `"repair"` (with [`Config::split_app_runtime`]),
/// `"neighbor_serial"` (with [`Config::sdag_inference`]) and `"infer"`
/// (with [`Config::infer_dependencies`]) — appear between
/// `"collective_merge"` and `"leap_resolution"` only when the
/// corresponding flag is set. The obs property tests check recorded
/// nesting against this order.
pub const EXTRACT_STAGE_SPANS: &[&str] =
    &["atoms", "dependency_merge", "collective_merge", "leap_resolution", "enforce", "ordering"];

/// One observation of the partition state after a pipeline stage,
/// reported to the [`try_extract_observed`] callback. Used by the lint
/// framework to check invariant 1 (the partition graph is a DAG after
/// every merge stage) without exposing the internal `Stage`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Stage name (one of [`EXTRACT_STAGE_SPANS`] or a conditional
    /// stage's span name).
    pub stage: &'static str,
    /// Number of partitions after the stage.
    pub partitions: usize,
    /// Whether the condensed partition graph is acyclic. Every merge
    /// stage ends with a cycle merge, so this must hold after each.
    pub is_dag: bool,
    /// When `is_dag` is false, the members of one offending cycle
    /// (partition ids at this stage), in edge order; empty otherwise.
    pub cycle: Vec<u32>,
}

/// Runs the full logical-structure pipeline on `trace`.
///
/// Panics on [`ExtractError`], which validated traces cannot produce;
/// for unchecked or salvaged traces prefer [`try_extract`].
pub fn extract(trace: &Trace, cfg: &Config) -> LogicalStructure {
    try_extract(trace, cfg).unwrap_or_else(|e| panic!("extract: {e}"))
}

/// [`extract`] returning a typed error instead of panicking when the
/// trace's timestamps contradict causality.
pub fn try_extract(trace: &Trace, cfg: &Config) -> Result<LogicalStructure, ExtractError> {
    extract_inner(trace, cfg, None, None)
}

/// [`extract`], also returning the [`MergeProvenance`] decision log:
/// every union and inferred edge the pipeline performed, with the rule
/// that fired and the deciding task pair. The race analysis uses the
/// order-sensitive subset to classify races as benign or
/// structure-affecting.
///
/// Panics on [`ExtractError`]; see [`try_extract_with_provenance`].
pub fn extract_with_provenance(trace: &Trace, cfg: &Config) -> (LogicalStructure, MergeProvenance) {
    try_extract_with_provenance(trace, cfg).unwrap_or_else(|e| panic!("extract: {e}"))
}

/// [`extract_with_provenance`] returning a typed error instead of
/// panicking.
pub fn try_extract_with_provenance(
    trace: &Trace,
    cfg: &Config,
) -> Result<(LogicalStructure, MergeProvenance), ExtractError> {
    let mut prov = None;
    let ls = extract_inner(trace, cfg, None, Some(&mut prov))?;
    Ok((ls, prov.unwrap_or_default()))
}

/// [`try_extract`], additionally reporting a [`StageSnapshot`] after
/// each pipeline stage to `observer`. Snapshot construction costs a
/// partition-view rebuild per stage, so it only happens when an
/// observer is present; the recorder's stage spans close before each
/// observation, so they exclude it.
///
/// With [`Config::verify_invariants`] set, the final structure is
/// re-checked with [`StructureVerifier`] and the pipeline's internal
/// `debug_assert!`s run in release builds too; any violation panics.
pub fn try_extract_observed(
    trace: &Trace,
    cfg: &Config,
    observer: Option<&mut dyn FnMut(StageSnapshot)>,
) -> Result<LogicalStructure, ExtractError> {
    extract_inner(trace, cfg, observer, None)
}

fn extract_inner(
    trace: &Trace,
    cfg: &Config,
    mut observer: Option<&mut dyn FnMut(StageSnapshot)>,
    prov_out: Option<&mut Option<MergeProvenance>>,
) -> Result<LogicalStructure, ExtractError> {
    macro_rules! observe {
        ($stage:expr, $name:literal) => {
            if let Some(obs) = observer.as_deref_mut() {
                let v = $stage.view();
                let cycle = v.graph.topo_order().err().unwrap_or_default();
                obs(StageSnapshot {
                    stage: $name,
                    partitions: v.len(),
                    is_dag: cycle.is_empty(),
                    cycle,
                });
            }
        };
    }

    // The recorder only observes — spans and counters, never data flow
    // — so an enabled recorder must not change any output (differential
    // property in tests/obs_properties.rs). Span guards are dropped
    // explicitly before each observe! so the recorded stage time
    // excludes observation.
    let rec = &cfg.recorder;
    let span_extract = rec.span("extract");

    // Phase finding runs serially; the thread policy only drives the
    // §3.3 ordering fan-out in `assemble`.
    let threads = cfg.resolved_threads();
    if rec.is_enabled() {
        rec.add("core.threads", threads as u64);
    }

    let sp = rec.span("atoms");
    let ix = trace.index();
    let ag = atoms::build_atoms(trace, &ix, cfg);
    let mut stage = if prov_out.is_some() {
        stage::Stage::with_provenance(trace, ag)
    } else {
        stage::Stage::new(trace, ag)
    };
    drop(sp);
    observe!(stage, "atoms");

    let sp = rec.span("dependency_merge");
    merges::dependency_merge(&mut stage);
    drop(sp);
    observe!(stage, "dependency_merge");
    let sp = rec.span("collective_merge");
    merges::collective_merge(&mut stage, &ix);
    drop(sp);
    observe!(stage, "collective_merge");

    if cfg.split_app_runtime {
        let sp = rec.span("repair");
        merges::repair_merge(&mut stage);
        drop(sp);
        observe!(stage, "repair");
    }
    if cfg.sdag_inference {
        let sp = rec.span("neighbor_serial");
        merges::neighbor_serial_merge(&mut stage);
        drop(sp);
        observe!(stage, "neighbor_serial");
    }

    if cfg.infer_dependencies {
        let sp = rec.span("infer");
        merges::infer_dependencies(&mut stage);
        drop(sp);
        observe!(stage, "infer");
    }

    let sp = rec.span("leap_resolution");
    merges::resolve_leap_overlaps(&mut stage, cfg.infer_dependencies)?;
    drop(sp);
    observe!(stage, "leap_resolution");

    let sp = rec.span("enforce");
    merges::enforce_chare_paths(&mut stage)?;
    merges::chain_chare_phases(&mut stage, cfg.verify_invariants)?;
    drop(sp);
    observe!(stage, "enforce");

    if let Some(out) = prov_out {
        *out = stage.prov.take();
    }
    let sp = rec.span("ordering");
    let ls = assemble(trace, &ix, stage, cfg, threads)?;
    drop(sp);
    flush_diag_counters(rec, &ls.diagnostics);
    drop(span_extract);

    if cfg.verify_invariants {
        let violations = StructureVerifier::new().check_structure(trace, &ls);
        assert!(
            violations.is_empty(),
            "extracted structure violates {} invariant(s): {}",
            violations.len(),
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; ")
        );
    }
    Ok(ls)
}

/// Flushes the per-rule merge and edge counts onto the recorder so a
/// profile carries the same vocabulary as [`Diagnostics`]. One bulk
/// add at pipeline end: the merge loops themselves stay untouched.
fn flush_diag_counters(rec: &lsr_obs::Recorder, d: &Diagnostics) {
    if !rec.is_enabled() {
        return;
    }
    rec.add("core.atoms", d.atoms as u64);
    rec.add("core.merges.dependency", d.dependency_merges as u64);
    rec.add("core.merges.cycle", d.cycle_merges as u64);
    rec.add("core.merges.repair", d.repair_merges as u64);
    rec.add("core.merges.collective", d.collective_merges as u64);
    rec.add("core.merges.neighbor_serial", d.neighbor_serial_merges as u64);
    rec.add("core.merges.leap", d.leap_merges as u64);
    rec.add("core.edges.inferred", d.inferred_edges as u64);
    rec.add("core.edges.ordering", d.ordering_edges as u64);
    rec.add("core.edges.enforce", d.enforce_edges as u64);
    rec.add("core.phases", d.phase_count as u64);
    rec.add("core.ordering.fallbacks", d.reorder_fallbacks as u64);
}

fn assemble(
    trace: &Trace,
    ix: &lsr_trace::TraceIndex,
    mut stage: stage::Stage<'_>,
    cfg: &Config,
    threads: usize,
) -> Result<LogicalStructure, ExtractError> {
    let v = stage.view();
    let nphases = v.len();
    let mut diag = stage.diag.clone();
    diag.phase_count = nphases;
    cfg.recorder.add("core.ordering.phases", nphases as u64);

    // Per-event phase and local id within it.
    let (phase_of_event, local_idx) = step::index_events(&stage.ag, &v.part_of_atom, nphases);
    let tables = step::EventTables { phase_of_event: &phase_of_event, local_idx: &local_idx };

    // Local step assignment per phase (optionally in parallel, §3.3).
    let inputs: Vec<step::PhaseInput<'_>> = v
        .atoms_in
        .iter()
        .enumerate()
        .map(|(p, atoms)| step::PhaseInput { id: p as u32, atoms })
        .collect();
    let ag_ref = &stage.ag;
    // The §3.3 fan-out, the pipeline's one parallel region: dynamic
    // scheduling over phases. Results come back in phase-id order
    // (inputs are in id order) and a failure reports the *lowest*
    // failing phase id, so the returned error is the one a serial run
    // would hit first — error selection is deterministic at any thread
    // count.
    let (workers, outcome) = pool::try_map_indexed(threads, &inputs, |_, input| {
        step::assign_phase_steps(trace, ag_ref, tables, input, cfg)
    });
    if cfg.recorder.is_enabled() {
        cfg.recorder.add("core.ordering.workers", workers as u64);
        if workers > 1 {
            cfg.recorder.add("core.parallel.ordering", workers as u64);
        }
    }
    let results: Vec<step::PhaseResult> = outcome?;
    // The local-id table dies with the fan-out.
    drop(local_idx);
    diag.reorder_fallbacks = results.iter().filter(|r| r.fallback).count();

    // Local steps per event.
    let mut local_step = vec![0u64; trace.events.len()];
    for r in &results {
        for &(e, s) in &r.local {
            local_step[e.index()] = s;
        }
    }

    // Global offsets along the phase DAG. A cycle here means a merge
    // stage violated its leave-a-DAG contract: a typed error, not a
    // panic, through every `try_extract*` entry point.
    let leaps = if nphases > 0 {
        v.graph.leaps().map_err(|cycle| ExtractError::PhaseCycle { cycle })?
    } else {
        Vec::new()
    };
    let order = v.graph.topo_order().map_err(|cycle| ExtractError::PhaseCycle { cycle })?;
    let mut offset = vec![0u64; nphases];
    for &p in &order {
        let end = offset[p as usize] + results[p as usize].max_local;
        for &s in &v.graph.succs[p as usize] {
            offset[s as usize] = offset[s as usize].max(end + 1);
        }
    }
    let step: Vec<u64> = trace
        .event_ids()
        .map(|e| {
            let p = phase_of_event[e.index()] as usize;
            offset[p] + local_step[e.index()]
        })
        .collect();

    // Phase records.
    let chares = v.chares(&stage);
    let mut phase_tasks: Vec<Vec<TaskId>> = vec![Vec::new(); nphases];
    let mut task_phase = vec![structure::NO_PHASE; trace.tasks.len()];
    for (t, &a) in stage.ag.first_atom_of_task.iter().enumerate() {
        if a != u32::MAX {
            let p = v.part_of_atom[a as usize];
            task_phase[t] = p;
            phase_tasks[p as usize].push(TaskId::from_index(t));
        }
    }
    // Eventless tasks inherit the nearest phase along their chare.
    for list in &ix.tasks_by_chare {
        let mut carry = structure::NO_PHASE;
        for &t in list {
            if task_phase[t.index()] == structure::NO_PHASE {
                task_phase[t.index()] = carry;
            } else {
                carry = task_phase[t.index()];
            }
        }
        // Backward pass for leading eventless tasks.
        let mut carry = structure::NO_PHASE;
        for &t in list.iter().rev() {
            if task_phase[t.index()] == structure::NO_PHASE {
                task_phase[t.index()] = carry;
            } else {
                carry = task_phase[t.index()];
            }
        }
    }
    for (t, &p) in task_phase.iter().enumerate() {
        if p != structure::NO_PHASE && stage.ag.first_atom_of_task[t] == u32::MAX {
            phase_tasks[p as usize].push(TaskId::from_index(t));
        }
    }
    let phases: Vec<Phase> = (0..nphases)
        .map(|p| {
            let mut tasks = std::mem::take(&mut phase_tasks[p]);
            tasks.sort_unstable();
            Phase {
                id: p as u32,
                is_runtime: v.is_runtime[p],
                leap: leaps[p],
                offset: offset[p],
                max_local: results[p].max_local,
                tasks,
                chares: chares[p].clone(),
            }
        })
        .collect();
    let phase_succs = v.graph.succs.clone();

    Ok(LogicalStructure {
        phases,
        phase_succs,
        phase_of_event,
        local_step,
        step,
        task_phase,
        diagnostics: diag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_charm::{Ctx, Placement, RedOp, RedTarget, Sim, SimConfig};
    use lsr_trace::{Dur, Time};
    use std::cell::Cell;
    use std::rc::Rc;

    #[derive(Default)]
    struct RingState {
        got: u32,
        iter: i64,
    }

    /// A 1D ring halo exchange with a reduction per iteration: the
    /// canonical "Jacobi-like" structure.
    fn ring_app(chares: u32, pes: u32, iters: i64, seed: u64) -> lsr_trace::Trace {
        let mut sim = Sim::new(SimConfig::new(pes).with_seed(seed));
        let arr = sim.add_array("ring", chares, Placement::Block, |_| RingState::default());
        let elems = sim.elements(arr).to_vec();
        let e_halo: Rc<Cell<lsr_trace::EntryId>> = Rc::new(Cell::new(lsr_trace::EntryId(0)));
        let e_next: Rc<Cell<lsr_trace::EntryId>> = Rc::new(Cell::new(lsr_trace::EntryId(0)));

        let en = e_next.clone();
        let halo =
            sim.add_entry("recvHalo", Some(1), move |ctx: &mut Ctx, s: &mut RingState, _d| {
                s.got += 1;
                if s.got == 2 {
                    s.got = 0;
                    ctx.compute(Dur::from_micros(20));
                    ctx.contribute(1, RedOp::Sum, RedTarget::Broadcast(en.get()));
                }
            });
        e_halo.set(halo);
        let elems2 = elems.clone();
        let ehh = e_halo.clone();
        let n = chares;
        let next =
            sim.add_entry("nextIter", Some(2), move |ctx: &mut Ctx, s: &mut RingState, d| {
                s.iter += 1;
                if s.iter > iters {
                    return;
                }
                ctx.compute(Dur::from_micros(5));
                let i = ctx.my_index();
                let left = elems2[((i + n - 1) % n) as usize];
                let right = elems2[((i + 1) % n) as usize];
                ctx.send(left, ehh.get(), vec![d[0]]);
                ctx.send(right, ehh.get(), vec![d[0]]);
            });
        e_next.set(next);
        for &c in &elems {
            sim.inject(c, next, vec![0], Time::ZERO);
        }
        sim.run()
    }

    #[test]
    fn ring_structure_verifies_and_has_both_flavors() {
        let tr = ring_app(8, 2, 3, 42);
        let ls = extract(&tr, &Config::charm());
        ls.verify(&tr).expect("invariants hold");
        assert!(ls.num_phases() >= 2, "at least halo + reduction phases");
        assert!(ls.phases.iter().any(|p| p.is_runtime));
        assert!(ls.phases.iter().any(|p| !p.is_runtime));
    }

    #[test]
    fn all_config_variants_verify() {
        let tr = ring_app(6, 3, 2, 7);
        for cfg in [
            Config::charm(),
            Config::charm().with_ordering(OrderingPolicy::PhysicalTime),
            Config::charm().with_inference(false),
            Config::charm().with_split(false),
            Config::charm().with_sdag(false),
            Config::charm().with_threads(4),
        ] {
            let ls = extract(&tr, &cfg);
            ls.verify(&tr).unwrap_or_else(|e| panic!("{cfg:?}: {e}"));
        }
    }

    #[test]
    fn parallel_ordering_matches_serial() {
        let tr = ring_app(8, 4, 3, 11);
        let serial = extract(&tr, &Config::charm());
        let parallel = extract(&tr, &Config::charm().with_threads(4));
        assert_eq!(serial.step, parallel.step);
        assert_eq!(serial.phase_of_event, parallel.phase_of_event);
    }

    /// Only the per-phase ordering fans out: with two workers on a
    /// multi-phase trace `core.parallel.ordering` records them and no
    /// other `core.parallel.*` counter exists; serially it is absent.
    #[test]
    fn only_the_ordering_records_a_fan_out() {
        let tr = ring_app(8, 4, 3, 11);
        let counters = |threads: usize| {
            let rec = lsr_obs::Recorder::enabled();
            extract(&tr, &Config::charm().with_threads(threads).with_recorder(rec.clone()));
            rec.counters()
        };
        let get =
            |cs: &[(String, u64)], name: &str| cs.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        let par = counters(2);
        assert_eq!(get(&par, "core.threads"), Some(2));
        assert_eq!(get(&par, "core.ordering.workers"), Some(2));
        assert_eq!(get(&par, "core.parallel.ordering"), Some(2));
        let fanned: Vec<&str> = par
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.starts_with("core.parallel."))
            .collect();
        assert_eq!(fanned, ["core.parallel.ordering"]);
        let serial = counters(1);
        assert_eq!(get(&serial, "core.ordering.workers"), Some(1));
        assert_eq!(get(&serial, "core.parallel.ordering"), None);
    }

    #[test]
    fn empty_trace_yields_empty_structure() {
        let tr = lsr_trace::TraceBuilder::new(1).build().unwrap();
        let ls = extract(&tr, &Config::charm());
        assert_eq!(ls.num_phases(), 0);
        assert!(ls.verify(&tr).is_ok());
        assert_eq!(ls.max_step(), 0);
    }

    #[test]
    fn structure_is_invariant_under_seed_jitter() {
        // Same program, different timing noise: phase counts must match
        // (the point of recovering *logical* structure).
        let a = extract(&ring_app(8, 2, 3, 1), &Config::charm());
        let b = extract(&ring_app(8, 2, 3, 999), &Config::charm());
        assert_eq!(a.num_phases(), b.num_phases());
        assert_eq!(a.app_phase_count(), b.app_phase_count());
    }

    /// Hand-built adversarial trace: two tasks on different chares, each
    /// awoken by the message the *other* one sends, with timestamps that
    /// place both receives before the matching sends. No replay order
    /// exists, so step assignment must cycle even under physical-time
    /// ordering. `TraceBuilder` cannot express this (it checks causality
    /// at `record_send`/`begin_task_from`), so the tables are written
    /// directly — exactly what an unchecked or salvaged ingest can carry.
    fn mutual_trigger_trace() -> lsr_trace::Trace {
        use lsr_trace::{
            ArrayId, ArrayInfo, ChareId, ChareInfo, EntryId, EntryInfo, EventId, EventKind,
            EventRec, Kind, MsgId, MsgRec, PeId, TaskRec, Trace,
        };
        Trace {
            pe_count: 2,
            sigs: Vec::new(),
            arrays: vec![ArrayInfo { id: ArrayId(0), name: "adv".into(), kind: Kind::Application }],
            chares: vec![
                ChareInfo {
                    id: ChareId(0),
                    array: ArrayId(0),
                    index: 0,
                    kind: Kind::Application,
                    home_pe: PeId(0),
                },
                ChareInfo {
                    id: ChareId(1),
                    array: ArrayId(0),
                    index: 1,
                    kind: Kind::Application,
                    home_pe: PeId(1),
                },
                // An unrelated, well-formed spontaneous task lives on
                // this chare so the trace has more than one phase and
                // the parallel ordering path actually fans out.
                ChareInfo {
                    id: ChareId(2),
                    array: ArrayId(0),
                    index: 2,
                    kind: Kind::Application,
                    home_pe: PeId(0),
                },
            ],
            entries: vec![EntryInfo {
                id: EntryId(0),
                name: "go".into(),
                sdag_serial: None,
                collective: false,
            }],
            tasks: vec![
                TaskRec {
                    id: TaskId(0),
                    chare: ChareId(0),
                    entry: EntryId(0),
                    pe: PeId(0),
                    begin: Time(0),
                    end: Time(10),
                    sink: Some(EventId(0)),
                    sends: vec![EventId(1)],
                },
                TaskRec {
                    id: TaskId(1),
                    chare: ChareId(1),
                    entry: EntryId(0),
                    pe: PeId(1),
                    begin: Time(2),
                    end: Time(12),
                    sink: Some(EventId(2)),
                    sends: vec![EventId(3)],
                },
                TaskRec {
                    id: TaskId(2),
                    chare: ChareId(2),
                    entry: EntryId(0),
                    pe: PeId(0),
                    begin: Time(20),
                    end: Time(30),
                    sink: Some(EventId(4)),
                    sends: vec![],
                },
            ],
            events: vec![
                EventRec {
                    id: EventId(0),
                    task: TaskId(0),
                    time: Time(0),
                    kind: EventKind::Recv { msg: Some(MsgId(1)) },
                },
                EventRec {
                    id: EventId(1),
                    task: TaskId(0),
                    time: Time(5),
                    kind: EventKind::Send { msg: MsgId(0) },
                },
                EventRec {
                    id: EventId(2),
                    task: TaskId(1),
                    time: Time(2),
                    kind: EventKind::Recv { msg: Some(MsgId(0)) },
                },
                EventRec {
                    id: EventId(3),
                    task: TaskId(1),
                    time: Time(8),
                    kind: EventKind::Send { msg: MsgId(1) },
                },
                EventRec {
                    id: EventId(4),
                    task: TaskId(2),
                    time: Time(20),
                    kind: EventKind::Recv { msg: None },
                },
            ],
            msgs: vec![
                MsgRec {
                    id: MsgId(0),
                    send_event: EventId(1),
                    recv_task: Some(TaskId(1)),
                    dst_chare: ChareId(1),
                    dst_entry: EntryId(0),
                    send_time: Time(5),
                    recv_time: Some(Time(2)),
                },
                MsgRec {
                    id: MsgId(1),
                    send_event: EventId(3),
                    recv_task: Some(TaskId(0)),
                    dst_chare: ChareId(0),
                    dst_entry: EntryId(0),
                    send_time: Time(8),
                    recv_time: Some(Time(0)),
                },
            ],
            idles: Vec::new(),
        }
    }

    #[test]
    fn step_cycle_is_a_typed_error_not_a_panic() {
        let tr = mutual_trigger_trace();
        // Reordered policy (with its physical-time fallback) and the
        // plain physical-time policy must both report the cycle.
        for cfg in [Config::charm(), Config::charm().with_ordering(OrderingPolicy::PhysicalTime)] {
            match try_extract(&tr, &cfg) {
                Err(ExtractError::StepCycle { .. }) => {}
                other => panic!("{cfg:?}: expected StepCycle, got {other:?}"),
            }
        }
        // The panicking wrapper keeps its contract but with a message
        // that names the cause.
        let err = std::panic::catch_unwind(|| extract(&tr, &Config::charm()))
            .expect_err("extract must panic on a cyclic trace");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("step assignment cycle"), "panic message was {msg:?}");
    }

    #[test]
    fn step_cycle_error_propagates_through_parallel_ordering() {
        let tr = mutual_trigger_trace();
        let cfg = Config::charm().with_threads(4);
        match try_extract(&tr, &cfg) {
            Err(ExtractError::StepCycle { .. }) => {}
            other => panic!("expected StepCycle, got {other:?}"),
        }
    }

    #[test]
    fn summary_and_signature_are_consistent() {
        let tr = ring_app(4, 2, 2, 5);
        let ls = extract(&tr, &Config::charm());
        let sig = phase_signature(&ls);
        assert_eq!(sig.len(), ls.num_phases());
        let s = ls.summary(&tr);
        assert!(s.contains("phases"));
        let counts = intra_phase_messages(&ls, &tr);
        assert_eq!(counts.iter().sum::<usize>(), tr.msgs.len());
    }
}

//! Step assignment within phases (§3.2) and the reordering of
//! operations (§3.2.1).
//!
//! Each phase is processed independently: serial blocks (atom fragments)
//! are ordered along each chare lane — either by recorded physical time
//! or by the idealized forward-replay `w` clock — and every event gets a
//! local logical step: one past the maximum of the events that
//! happened-before it (the prior event along the lane, or the matching
//! send for a receive). Phases are then offset along the phase DAG.

use crate::atoms::AtomGraph;
use crate::config::{Config, OrderingPolicy, TraceModel};
use crate::ExtractError;
use lsr_trace::{EventId, EventKind, Lane, Time, Trace};

/// Local id of an event that lies in no atom (and so in no phase's
/// numbering).
const NO_LOCAL: u32 = u32::MAX;

/// One phase to be stepped: its dense id and its atoms, in ascending
/// id order (borrowed from the partition view).
pub(crate) struct PhaseInput<'a> {
    pub id: u32,
    pub atoms: &'a [u32],
}

/// The read-only event tables every phase's ordering reads. Phases
/// partition the events, so one pair of tables serves every phase and
/// every worker of the fan-out.
#[derive(Clone, Copy)]
pub(crate) struct EventTables<'a> {
    /// Event → phase.
    pub phase_of_event: &'a [u32],
    /// Event → local id within its phase: the phase's atoms in
    /// ascending id order, each atom's events in block order
    /// ([`NO_LOCAL`] for events in no atom).
    pub local_idx: &'a [u32],
}

impl EventTables<'_> {
    /// `e`'s local id when it belongs to `phase`.
    #[inline]
    fn local_in(&self, phase: u32, e: EventId) -> Option<u32> {
        let l = self.local_idx[e.index()];
        (self.phase_of_event[e.index()] == phase && l != NO_LOCAL).then_some(l)
    }
}

/// Builds the event → phase and event → local id tables of
/// [`EventTables`] from the atom → phase map. Events in no atom get
/// phase 0 and [`NO_LOCAL`].
pub(crate) fn index_events(
    ag: &AtomGraph,
    part_of_atom: &[u32],
    nphases: usize,
) -> (Vec<u32>, Vec<u32>) {
    let nev = ag.atom_of_event.len();
    let mut phase_of_event = vec![0u32; nev];
    let mut local_idx = vec![NO_LOCAL; nev];
    let mut next = vec![0u32; nphases];
    for (atom, &p) in ag.atoms.iter().zip(part_of_atom) {
        for &e in &atom.events {
            phase_of_event[e.index()] = p;
            local_idx[e.index()] = next[p as usize];
            next[p as usize] += 1;
        }
    }
    (phase_of_event, local_idx)
}

/// The per-phase result: local steps per event. Phases are ordered in
/// phase-id order, so the phase id itself is not carried along.
pub(crate) struct PhaseResult {
    pub local: Vec<(EventId, u64)>,
    pub max_local: u64,
    /// True if the reordered assignment hit a dependency cycle and the
    /// phase fell back to physical-time ordering.
    pub fallback: bool,
}

/// Maximum ancestor depth for the "go back a step" tie-break (§3.2.1).
const SOURCE_CHAIN_DEPTH: usize = 8;

/// Assigns local steps to all events of one phase.
///
/// Fails with [`ExtractError::StepCycle`] when even the physical-time
/// ordering contains a dependency cycle — possible only for traces
/// whose timestamps contradict causality (a receive stamped before its
/// send on the same lane chain), which validation rejects but an
/// unchecked or salvaged trace can still carry.
pub(crate) fn assign_phase_steps(
    trace: &Trace,
    ag: &AtomGraph,
    tables: EventTables<'_>,
    input: &PhaseInput<'_>,
    cfg: &Config,
) -> Result<PhaseResult, ExtractError> {
    let mut result = try_assign(trace, ag, tables, input, cfg, cfg.ordering);
    if result.is_err() && cfg.ordering == OrderingPolicy::Reordered {
        // Pathological reordering (paper: "pathological examples can be
        // constructed"): fall back to the recorded order, which is
        // cycle-free because all dependencies point forward in time.
        // For well-formed traces the w clock is a topological potential
        // of the intra-phase dependency graph, so reorder cycles cannot
        // occur; this path guards clock-skewed traces, where the
        // single time-ordered pass computing w can miss a dependency
        // whose send was stamped after its receive.
        result =
            try_assign(trace, ag, tables, input, cfg, OrderingPolicy::PhysicalTime).map(|mut r| {
                r.fallback = true;
                r
            });
    }
    result.map_err(|cycle| ExtractError::StepCycle { phase: input.id, cycle })
}

fn try_assign(
    trace: &Trace,
    ag: &AtomGraph,
    tables: EventTables<'_>,
    input: &PhaseInput<'_>,
    cfg: &Config,
    ordering: OrderingPolicy,
) -> Result<PhaseResult, Vec<EventId>> {
    // --- collect the phase's events, in local-id order: atom i's
    // events hold local ids `start[i]..start[i + 1]` ---
    let mut events: Vec<EventId> = Vec::new();
    let mut start: Vec<u32> = Vec::with_capacity(input.atoms.len() + 1);
    for &a in input.atoms {
        start.push(events.len() as u32);
        events.extend(ag.atoms[a as usize].events.iter().copied());
    }
    start.push(events.len() as u32);
    if events.is_empty() {
        return Ok(PhaseResult { local: Vec::new(), max_local: 0, fallback: false });
    }
    let n = events.len();
    let span = |i: u32| start[i as usize] as usize..start[i as usize + 1] as usize;
    // Per receive, the local id of its matching send when that lies in
    // the phase.
    let send_of: Vec<u32> = events
        .iter()
        .map(|&e| match trace.event(e).kind {
            EventKind::Recv { msg: Some(m) } => {
                tables.local_in(input.id, trace.msg(m).send_event).unwrap_or(NO_LOCAL)
            }
            _ => NO_LOCAL,
        })
        .collect();

    // --- lanes: one sort of (lane, atom) pairs makes each lane one
    // run, lanes in ascending order. Atoms are named by their index in
    // `input.atoms`, which grows with atom id; atom ids grow with task
    // order and a task's atoms share its lane, so each task is one run
    // inside its lane's run.
    let atom = |i: u32| &ag.atoms[input.atoms[i as usize] as usize];
    let mut order: Vec<(Lane, u32)> =
        (0..input.atoms.len() as u32).map(|i| (atom(i).lane, i)).collect();
    order.sort_unstable();
    let mut lane_start: Vec<usize> =
        (0..order.len()).filter(|&j| j == 0 || order[j].0 != order[j - 1].0).collect();
    lane_start.push(order.len());

    // --- w clock (idealized forward replay), computed in time order ---
    let w = match ordering {
        OrderingPolicy::Reordered => {
            // Phase-local group per event: its task (task-based) or its
            // lane (message-passing), numbered by run.
            let mut group = vec![0u32; n];
            let mut groups = 0u32;
            for (j, &(lane, i)) in order.iter().enumerate() {
                let fresh = j == 0
                    || match cfg.model {
                        TraceModel::TaskBased => atom(i).task != atom(order[j - 1].1).task,
                        TraceModel::MessagePassing => lane != order[j - 1].0,
                    };
                groups += u32::from(fresh);
                group[span(i)].fill(groups - 1);
            }
            Some(compute_w(trace, &events, &send_of, &group, groups as usize, cfg.model))
        }
        OrderingPolicy::PhysicalTime => None,
    };

    // Per-atom sort keys for the task-based reordered policy: one flat
    // arena, atom i's key at `key_off[i]..key_off[i + 1]`.
    let mut arena: Vec<(u64, u64)> = Vec::new();
    let mut key_off: Vec<u32> = Vec::new();
    if let (Some(w), TraceModel::TaskBased) = (&w, cfg.model) {
        source_chain_keys(
            trace,
            ag,
            tables,
            input,
            &start,
            w,
            &cfg.tiebreak,
            &mut arena,
            &mut key_off,
        );
    }
    let key = |i: u32| &arena[key_off[i as usize] as usize..key_off[i as usize + 1] as usize];

    // --- order atoms within each lane ---
    for run in lane_start.windows(2) {
        let lane = &mut order[run[0]..run[1]];
        match (&w, cfg.model) {
            (None, _) => lane.sort_unstable_by_key(|&(_, i)| (atom(i).first_time, i)),
            (Some(_), TraceModel::TaskBased) => {
                // keys were built with cfg.tiebreak applied.
                lane.sort_unstable_by(|&(_, x), &(_, y)| {
                    key(x)
                        .cmp(key(y))
                        .then_with(|| (atom(x).first_time, x).cmp(&(atom(y).first_time, y)))
                });
            }
            (Some(w), TraceModel::MessagePassing) => {
                // Sort blocks by the w of their (single) event; ties keep
                // physical order, so sends never pass each other and
                // receives never cross a send they precede.
                lane.sort_unstable_by_key(|&(_, i)| {
                    (w[start[i as usize] as usize], atom(i).first_time, i)
                });
            }
        }
    }

    // --- the step-dependency graph over local event ids, as CSR ---
    // Each node's successors: its lane-chain successor first, then
    // the receives of its intra-phase messages in local-id order. The
    // cycle witness follows this order, so it must stay fixed.
    let mut chain_next = vec![NO_LOCAL; n];
    for run in lane_start.windows(2) {
        let mut prev = NO_LOCAL;
        for &(_, i) in &order[run[0]..run[1]] {
            for cur in span(i) {
                if prev != NO_LOCAL {
                    chain_next[prev as usize] = cur as u32;
                }
                prev = cur as u32;
            }
        }
    }
    let mut msg_edges: Vec<(u32, u32)> = (0..n as u32)
        .filter(|&le| send_of[le as usize] != NO_LOCAL)
        .map(|le| (send_of[le as usize], le))
        .collect();
    msg_edges.sort_unstable();
    let mut off: Vec<u32> = Vec::with_capacity(n + 1);
    let mut adj: Vec<u32> = Vec::with_capacity(n + msg_edges.len());
    off.push(0);
    let mut msgs = msg_edges.into_iter().peekable();
    for (u, &next) in chain_next.iter().enumerate() {
        if next != NO_LOCAL {
            adj.push(next);
        }
        while let Some((_, le)) = msgs.next_if(|&(ls, _)| ls as usize == u) {
            adj.push(le);
        }
        off.push(adj.len() as u32);
    }

    // --- longest-path steps; Err(cycle witness) on a cycle ---
    let steps = crate::graph::longest_path_levels(n, |u| {
        &adj[off[u as usize] as usize..off[u as usize + 1] as usize]
    })
    .map_err(|cycle| cycle.into_iter().map(|le| events[le as usize]).collect::<Vec<_>>())?;
    let max_local = steps.iter().copied().max().map_or(0, u64::from);
    let local = events.iter().zip(&steps).map(|(&e, &s)| (e, u64::from(s))).collect();
    Ok(PhaseResult { local, max_local, fallback: false })
}

/// Computes the `w` clock for every event of the phase (§3.2.1),
/// indexed by local id.
///
/// Processing events in physical-time order makes this a single pass:
/// every dependency (matching send; earlier event in the block; earlier
/// receive on the process) was recorded earlier in time. `send_of`
/// maps each receive to its intra-phase send ([`NO_LOCAL`] if none),
/// and `group` each local id to its phase-local task (task-based
/// model) or lane (message-passing model), `0..groups`.
fn compute_w(
    trace: &Trace,
    events: &[EventId],
    send_of: &[u32],
    group: &[u32],
    groups: usize,
    model: TraceModel,
) -> Vec<u64> {
    let mut order: Vec<(Time, EventId, u32)> =
        events.iter().enumerate().map(|(l, &e)| (trace.event(e).time, e, l as u32)).collect();
    order.sort_unstable();
    let mut w = vec![0u64; events.len()];
    // Per group, what the next send builds on: the last w seen in the
    // task (task-based, fragment-aware via the phase filter), or the
    // max receive w seen so far on the lane (message-passing).
    let mut seen: Vec<Option<u64>> = vec![None; groups];
    for (_, e, le) in order {
        let (le, g) = (le as usize, group[le as usize] as usize);
        let ev = trace.event(e);
        let value = match ev.kind {
            EventKind::Recv { .. } => match send_of[le] {
                NO_LOCAL => 0,
                ls => w[ls as usize] + 1,
            },
            EventKind::Send { .. } => seen[g].map_or(0, |prev| prev + 1),
        };
        w[le] = value;
        match model {
            TraceModel::TaskBased => seen[g] = Some(value),
            TraceModel::MessagePassing => {
                if ev.is_sink() {
                    seen[g] = Some(seen[g].map_or(value, |m| m.max(value)));
                }
            }
        }
    }
    w
}

/// The (w, invoking chare) chain of every atom of the phase and its
/// source ancestors, used as the lexicographic sort key for the
/// reordered policy: first compare the block's initial w, then the
/// chare that invoked it (the sender of its sink message, or its own
/// chare for a spontaneous block), then "go back a step" through
/// source blocks (§3.2.1, Fig. 7). Atom i's key is appended to `arena`
/// as `key_off[i]..key_off[i + 1]`; its first event has local id
/// `start[i]`.
#[allow(clippy::too_many_arguments)]
fn source_chain_keys(
    trace: &Trace,
    ag: &AtomGraph,
    tables: EventTables<'_>,
    input: &PhaseInput<'_>,
    start: &[u32],
    w: &[u64],
    tiebreak: &crate::config::TieBreak,
    arena: &mut Vec<(u64, u64)>,
    key_off: &mut Vec<u32>,
) {
    // One link per atom: its own (w, invoker) head and its source block
    // (the atom holding the matching send of its sink) when that lies
    // in the phase, as an index into `input.atoms`.
    let (head, source): (Vec<(u64, u64)>, Vec<u32>) = input
        .atoms
        .iter()
        .zip(start)
        .map(|(&a, &first_local)| {
            let atom = &ag.atoms[a as usize];
            let (invoker, source) = match trace.event(atom.events[0]).kind {
                EventKind::Recv { msg: Some(m) } => {
                    let send = trace.msg(m).send_event;
                    let source = (tables.phase_of_event[send.index()] == input.id)
                        .then(|| ag.atom_of_event[send.index()])
                        .filter(|&s| s != a)
                        .and_then(|s| input.atoms.binary_search(&s).ok());
                    (trace.task(trace.event(send).task).chare, source)
                }
                _ => (atom.chare, None),
            };
            let head = (w[first_local as usize], tiebreak.key(invoker));
            (head, source.map_or(NO_LOCAL, |i| i as u32))
        })
        .unzip();
    key_off.reserve(head.len() + 1);
    key_off.push(0);
    for i in 0..head.len() {
        let mut current = i;
        for _ in 0..SOURCE_CHAIN_DEPTH {
            arena.push(head[current]);
            match source[current] {
                NO_LOCAL => break,
                s => current = s as usize,
            }
        }
        key_off.push(arena.len() as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::build_atoms;
    use lsr_trace::{Kind, PeId, Time, TraceBuilder};
    use std::collections::HashMap;

    /// Build a one-phase scenario: two producers (c0, c1) each send one
    /// message to consumer c2, whose executions land in scrambled
    /// physical order.
    fn fan_in() -> (Trace, AtomGraph) {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let c2 = b.add_chare(app, 2, PeId(0));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m0 = b.record_send(t0, Time(1), c2, e);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task(c1, e, PeId(0), Time(3));
        let m1 = b.record_send(t1, Time(4), c2, e);
        b.end_task(t1, Time(5));
        // c2 receives m1 first (out of invocation order), then m0.
        let r1 = b.begin_task_from(c2, e, PeId(0), Time(10), m1);
        b.end_task(r1, Time(11));
        let r0 = b.begin_task_from(c2, e, PeId(0), Time(12), m0);
        b.end_task(r0, Time(13));
        let tr = b.build().unwrap();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        (tr, ag)
    }

    /// Steps every atom of `ag` as one phase 0.
    fn step_all(tr: &Trace, ag: &AtomGraph, cfg: &Config) -> PhaseResult {
        let atoms: Vec<u32> = (0..ag.atoms.len() as u32).collect();
        let (phase_of_event, local_idx) = index_events(ag, &vec![0; atoms.len()], 1);
        let tables = EventTables { phase_of_event: &phase_of_event, local_idx: &local_idx };
        assign_phase_steps(tr, ag, tables, &PhaseInput { id: 0, atoms: &atoms }, cfg).unwrap()
    }

    #[test]
    fn receive_steps_exceed_matching_send() {
        let (tr, ag) = fan_in();
        let r = step_all(&tr, &ag, &Config::charm());
        let steps: HashMap<EventId, u64> = r.local.iter().copied().collect();
        for m in &tr.msgs {
            let send = m.send_event;
            let sink = tr.task(m.recv_task.unwrap()).sink.unwrap();
            assert!(
                steps[&sink] > steps[&send],
                "recv step {} must exceed send step {}",
                steps[&sink],
                steps[&send]
            );
        }
        assert!(!r.fallback);
        assert_eq!(r.max_local, r.local.iter().map(|&(_, s)| s).max().unwrap());
    }

    #[test]
    fn reorder_sorts_receives_by_sender_w_then_chare() {
        let (tr, ag) = fan_in();
        let r = step_all(&tr, &ag, &Config::charm());
        let steps: HashMap<EventId, u64> = r.local.iter().copied().collect();
        // Both sends have w=0; the tie is broken by sender chare id, so
        // c2's receive of c0's message is ordered before c1's message
        // even though it arrived later physically.
        let sink_r0 = tr.tasks[3].sink.unwrap(); // from c0
        let sink_r1 = tr.tasks[2].sink.unwrap(); // from c1
        assert!(
            steps[&sink_r0] < steps[&sink_r1],
            "reordering must place c0's message first (chare-id tiebreak)"
        );
    }

    #[test]
    fn topology_tiebreak_overrides_chare_id() {
        // Give c1 a smaller topology rank than c0: the tie now resolves
        // the other way around than the chare-id default.
        let (tr, ag) = fan_in();
        let cfg = Config::charm().with_topology(vec![10, 5, 99]);
        let r = step_all(&tr, &ag, &cfg);
        let steps: HashMap<EventId, u64> = r.local.iter().copied().collect();
        let sink_r0 = tr.tasks[3].sink.unwrap(); // from c0 (rank 10)
        let sink_r1 = tr.tasks[2].sink.unwrap(); // from c1 (rank 5)
        assert!(
            steps[&sink_r1] < steps[&sink_r0],
            "topology ranks must override the chare-id tiebreak"
        );
    }

    #[test]
    fn physical_policy_keeps_recorded_order() {
        let (tr, ag) = fan_in();
        let cfg = Config::charm().with_ordering(OrderingPolicy::PhysicalTime);
        let r = step_all(&tr, &ag, &cfg);
        let steps: HashMap<EventId, u64> = r.local.iter().copied().collect();
        let sink_r0 = tr.tasks[3].sink.unwrap();
        let sink_r1 = tr.tasks[2].sink.unwrap();
        assert!(steps[&sink_r1] < steps[&sink_r0], "physical order preserved");
    }

    #[test]
    fn empty_phase_is_fine() {
        let (tr, ag) = fan_in();
        let (phase_of_event, local_idx) = index_events(&ag, &vec![0; ag.atoms.len()], 1);
        let tables = EventTables { phase_of_event: &phase_of_event, local_idx: &local_idx };
        let input = PhaseInput { id: 0, atoms: &[] };
        let r = assign_phase_steps(&tr, &ag, tables, &input, &Config::charm()).unwrap();
        assert!(r.local.is_empty());
        assert_eq!(r.max_local, 0);
    }

    /// Message-passing reordering: Fig. 9 — a send's w is one past the
    /// max w of receives before it; receives sort around it by value.
    #[test]
    fn mp_send_keeps_position_after_receives() {
        // One process receives messages with scrambled sender progress,
        // then sends. Build: three senders with chained w; receiver gets
        // them out of order then sends.
        let mut b = TraceBuilder::new(4);
        let app = b.add_array("ranks", Kind::Application);
        let r0 = b.add_chare(app, 0, PeId(0));
        let r1 = b.add_chare(app, 1, PeId(1));
        let r2 = b.add_chare(app, 2, PeId(2));
        let r3 = b.add_chare(app, 3, PeId(3));
        let es = b.add_entry("MPI_Send", None);
        let er = b.add_entry("MPI_Recv", None);
        // r1 and r2 send to r3; r3 receives both then sends to r0.
        let t1 = b.begin_task(r1, es, PeId(1), Time(0));
        let m1 = b.record_send(t1, Time(0), r3, er);
        b.end_task(t1, Time(1));
        let t2 = b.begin_task(r2, es, PeId(2), Time(0));
        let m2 = b.record_send(t2, Time(0), r3, er);
        b.end_task(t2, Time(1));
        // r3 receives m2 first, then m1, then sends.
        let rt2 = b.begin_task_from(r3, er, PeId(3), Time(10), m2);
        b.end_task(rt2, Time(11));
        let rt1 = b.begin_task_from(r3, er, PeId(3), Time(12), m1);
        b.end_task(rt1, Time(13));
        let t3 = b.begin_task(r3, es, PeId(3), Time(14));
        let m3 = b.record_send(t3, Time(14), r0, er);
        b.end_task(t3, Time(15));
        let rt3 = b.begin_task_from(r0, er, PeId(0), Time(20), m3);
        b.end_task(rt3, Time(21));
        let tr = b.build().unwrap();
        let ix = tr.index();
        let cfg = Config::mpi();
        let ag = build_atoms(&tr, &ix, &cfg);
        let r = step_all(&tr, &ag, &cfg);
        let steps: HashMap<EventId, u64> = r.local.iter().copied().collect();
        // r3's send must come after both its receives.
        let send_ev = tr.tasks[4].sends[0];
        let sink1 = tr.tasks[3].sink.unwrap();
        let sink2 = tr.tasks[2].sink.unwrap();
        assert!(steps[&send_ev] > steps[&sink1]);
        assert!(steps[&send_ev] > steps[&sink2]);
        // And r0's receive after r3's send.
        let sink3 = tr.tasks[5].sink.unwrap();
        assert!(steps[&sink3] > steps[&send_ev]);
    }

    /// Fig. 9's exact semantics: a receive that physically follows a
    /// send may be reordered *before* it when its `w` is smaller, while
    /// the send keeps its place after every receive that preceded it.
    #[test]
    fn mp_receive_after_send_can_move_before_it() {
        let mut b = lsr_trace::TraceBuilder::new(6);
        let app = b.add_array("ranks", Kind::Application);
        let rs: Vec<_> = (0..6).map(|i| b.add_chare(app, i, PeId(i))).collect();
        let es = b.add_entry("MPI_Send", None);
        let er = b.add_entry("MPI_Recv", None);
        // Rank 5 is the observed process. Sources: a direct send from
        // rank 1 (recv w = 1), and two sends from rank 3 after its own
        // receive (send w = 2 → recv w = 3).
        let t1 = b.begin_task(rs[1], es, PeId(1), Time(0));
        let ma = b.record_send(t1, Time(0), rs[5], er);
        b.end_task(t1, Time(1));
        let t2 = b.begin_task(rs[2], es, PeId(2), Time(0));
        let m23 = b.record_send(t2, Time(0), rs[3], er);
        b.end_task(t2, Time(1));
        let t3r = b.begin_task_from(rs[3], er, PeId(3), Time(5), m23);
        b.end_task(t3r, Time(6)); // recv w = 1
        let t3s = b.begin_task(rs[3], es, PeId(3), Time(7));
        let mc = b.record_send(t3s, Time(7), rs[5], er); // send w = 2 → c w = 3
        b.end_task(t3s, Time(8));
        let t3s2 = b.begin_task(rs[3], es, PeId(3), Time(9));
        let mb = b.record_send(t3s2, Time(9), rs[5], er); // send w = 2 → b w = 3
        b.end_task(t3s2, Time(10));
        // Rank 5: recv a (w1), recv b (w3), send s (w = 1 + max = 4),
        // then recv c (w3) arriving physically after the send.
        let ra = b.begin_task_from(rs[5], er, PeId(5), Time(20), ma);
        b.end_task(ra, Time(21));
        let rb = b.begin_task_from(rs[5], er, PeId(5), Time(22), mb);
        b.end_task(rb, Time(23));
        let t5s = b.begin_task(rs[5], es, PeId(5), Time(24));
        let md = b.record_send(t5s, Time(24), rs[0], er);
        b.end_task(t5s, Time(25));
        let rc = b.begin_task_from(rs[5], er, PeId(5), Time(26), mc);
        b.end_task(rc, Time(27));
        let r0 = b.begin_task_from(rs[0], er, PeId(0), Time(30), md);
        b.end_task(r0, Time(31));
        let tr = b.build().unwrap();

        let ix = tr.index();
        let cfg = Config::mpi().with_process_order(false);
        let ag = build_atoms(&tr, &ix, &cfg);
        let r = step_all(&tr, &ag, &cfg);
        let steps: HashMap<EventId, u64> = r.local.iter().copied().collect();
        let step_of = |t: lsr_trace::TaskId| steps[&tr.task(t).sink.unwrap()];
        let send_step = steps[&tr.task(t5s).sends[0]];
        // The send stays after the receives that physically preceded it…
        assert!(send_step > step_of(ra));
        assert!(send_step > step_of(rb));
        // …and the late-arriving receive c (w 3) moves before the send
        // (w 4) even though it was recorded after it.
        assert!(
            step_of(rc) < send_step,
            "recv c at step {} must precede the send at step {send_step}",
            step_of(rc)
        );
    }

    #[test]
    fn w_values_follow_replay_rules() {
        let (tr, ag) = fan_in();
        let (_, local_idx) = index_events(&ag, &vec![0; ag.atoms.len()], 1);
        let events: Vec<EventId> = ag.atoms.iter().flat_map(|a| a.events.clone()).collect();
        let send_of: Vec<u32> = events
            .iter()
            .map(|&e| match tr.event(e).kind {
                EventKind::Recv { msg: Some(m) } => local_idx[tr.msg(m).send_event.index()],
                _ => NO_LOCAL,
            })
            .collect();
        // One group per task (task-based model).
        let group: Vec<u32> = events.iter().map(|&e| tr.event(e).task.0).collect();
        let w = compute_w(&tr, &events, &send_of, &group, tr.tasks.len(), TraceModel::TaskBased);
        // Initial sends have w = 0; their receives w = 1.
        for m in &tr.msgs {
            let send = local_idx[m.send_event.index()] as usize;
            let sink = local_idx[tr.task(m.recv_task.unwrap()).sink.unwrap().index()] as usize;
            assert_eq!(w[send], 0);
            assert_eq!(w[sink], 1);
        }
    }
}

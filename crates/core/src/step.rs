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
use lsr_trace::{ChareId, EventId, EventKind, Lane, Trace};
use std::collections::HashMap;

/// One phase to be stepped: its dense id and its atoms.
pub(crate) struct PhaseInput {
    pub id: u32,
    pub atoms: Vec<u32>,
}

/// The per-phase result: local steps per event. Results come back
/// from the ordering fan-out already in phase-id order
/// ([`crate::pool::try_map_indexed`]), so the phase id itself is not
/// carried along.
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
    phase_of_event: &[u32],
    input: &PhaseInput,
    cfg: &Config,
) -> Result<PhaseResult, ExtractError> {
    let mut result = try_assign(trace, ag, phase_of_event, input, cfg, cfg.ordering);
    if result.is_err() && cfg.ordering == OrderingPolicy::Reordered {
        // Pathological reordering (paper: "pathological examples can be
        // constructed"): fall back to the recorded order, which is
        // cycle-free because all dependencies point forward in time.
        // For well-formed traces the w clock is a topological potential
        // of the intra-phase dependency graph, so reorder cycles cannot
        // occur; this path guards clock-skewed traces, where the
        // single time-ordered pass computing w can miss a dependency
        // whose send was stamped after its receive.
        result = try_assign(trace, ag, phase_of_event, input, cfg, OrderingPolicy::PhysicalTime)
            .map(|mut r| {
                r.fallback = true;
                r
            });
    }
    result.map_err(|cycle| ExtractError::StepCycle { phase: input.id, cycle })
}

fn try_assign(
    trace: &Trace,
    ag: &AtomGraph,
    phase_of_event: &[u32],
    input: &PhaseInput,
    cfg: &Config,
    ordering: OrderingPolicy,
) -> Result<PhaseResult, Vec<EventId>> {
    // --- collect the phase's events, with a dense local numbering ---
    let mut events: Vec<EventId> = Vec::new();
    for &a in &input.atoms {
        events.extend(ag.atoms[a as usize].events.iter().copied());
    }
    if events.is_empty() {
        return Ok(PhaseResult { local: Vec::new(), max_local: 0, fallback: false });
    }
    let local_of: HashMap<EventId, u32> =
        events.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();

    // --- w clock (idealized forward replay), computed in time order ---
    let w = match ordering {
        OrderingPolicy::Reordered => {
            Some(compute_w(trace, ag, phase_of_event, input, &events, &local_of, cfg.model))
        }
        OrderingPolicy::PhysicalTime => None,
    };

    // --- order atoms within each lane ---
    let mut lanes: HashMap<Lane, Vec<u32>> = HashMap::new();
    for &a in &input.atoms {
        lanes.entry(ag.atoms[a as usize].lane).or_default().push(a);
    }
    let mut lane_keys: Vec<Lane> = lanes.keys().copied().collect();
    lane_keys.sort_unstable();

    // Per-atom sort key for the reordered policy.
    let atom_keys: Option<HashMap<u32, Vec<(u64, u64)>>> = w.as_ref().map(|w| {
        input
            .atoms
            .iter()
            .map(|&a| {
                (
                    a,
                    source_chain_key(
                        trace,
                        ag,
                        phase_of_event,
                        input.id,
                        w,
                        &local_of,
                        a,
                        &cfg.tiebreak,
                    ),
                )
            })
            .collect()
    });

    let mut lane_orders: Vec<Vec<u32>> = Vec::with_capacity(lane_keys.len());
    for lane in &lane_keys {
        let mut atoms = lanes.remove(lane).expect("lane exists");
        match (&atom_keys, cfg.model) {
            (None, _) => {
                atoms.sort_unstable_by_key(|&a| (ag.atoms[a as usize].first_time, a));
            }
            (Some(keys), TraceModel::TaskBased) => {
                // keys were built with cfg.tiebreak applied.
                atoms.sort_by(|&x, &y| {
                    keys[&x].cmp(&keys[&y]).then_with(|| {
                        (ag.atoms[x as usize].first_time, x)
                            .cmp(&(ag.atoms[y as usize].first_time, y))
                    })
                });
            }
            (Some(_), TraceModel::MessagePassing) => {
                // Sort blocks by the w of their (single) event; ties keep
                // physical order, so sends never pass each other and
                // receives never cross a send they precede.
                let w = w.as_ref().expect("w computed");
                atoms.sort_by_key(|&a| {
                    let ev = ag.atoms[a as usize].events[0];
                    let wv = w[local_of[&ev] as usize];
                    (wv, ag.atoms[a as usize].first_time, a)
                });
            }
        }
        lane_orders.push(atoms);
    }

    // --- build the step-dependency graph over local event ids ---
    let n = events.len();
    let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut indeg = vec![0u32; n];
    let add_edge = |succs: &mut Vec<Vec<u32>>, indeg: &mut Vec<u32>, u: u32, v: u32| {
        succs[u as usize].push(v);
        indeg[v as usize] += 1;
    };
    // Lane chains in the chosen order.
    for atoms in &lane_orders {
        let mut prev: Option<u32> = None;
        for &a in atoms {
            for &e in &ag.atoms[a as usize].events {
                let cur = local_of[&e];
                if let Some(p) = prev {
                    add_edge(&mut succs, &mut indeg, p, cur);
                }
                prev = Some(cur);
            }
        }
    }
    // Message edges within the phase.
    for (&e, &le) in &local_of {
        if let EventKind::Recv { msg: Some(m) } = trace.event(e).kind {
            let send = trace.msg(m).send_event;
            if phase_of_event[send.index()] == input.id {
                if let Some(&ls) = local_of.get(&send) {
                    add_edge(&mut succs, &mut indeg, ls, le);
                }
            }
        }
    }

    // --- longest-path steps via Kahn; Err(cycle witness) on cycle ---
    let mut steps = vec![0u64; n];
    let mut queue: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
    let mut head = 0;
    let mut visited = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        visited += 1;
        #[allow(clippy::needless_range_loop)] // succs[u] is re-borrowed each round
        for i in 0..succs[u as usize].len() {
            let v = succs[u as usize][i];
            steps[v as usize] = steps[v as usize].max(steps[u as usize] + 1);
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                queue.push(v);
            }
        }
    }
    if visited != n {
        // Rebuild as a DiGraph only on this cold path: its witness
        // extraction names one offending cycle, mapped back to events.
        let g = crate::graph::DiGraph::from_edges(
            n,
            succs.iter().enumerate().flat_map(|(u, vs)| vs.iter().map(move |&v| (u as u32, v))),
        );
        let cycle = g.topo_order().expect_err("Kahn already found a cycle");
        return Err(cycle.into_iter().map(|le| events[le as usize]).collect());
    }
    let max_local = steps.iter().copied().max().unwrap_or(0);
    let local = events.iter().zip(&steps).map(|(&e, &s)| (e, s)).collect();
    Ok(PhaseResult { local, max_local, fallback: false })
}

/// Computes the `w` clock for every event of the phase (§3.2.1).
///
/// Processing events in physical-time order makes this a single pass:
/// every dependency (matching send; earlier event in the block; earlier
/// receive on the process) was recorded earlier in time.
fn compute_w(
    trace: &Trace,
    ag: &AtomGraph,
    phase_of_event: &[u32],
    input: &PhaseInput,
    events: &[EventId],
    local_of: &HashMap<EventId, u32>,
    model: TraceModel,
) -> Vec<u64> {
    let mut order: Vec<EventId> = events.to_vec();
    order.sort_unstable_by_key(|&e| (trace.event(e).time, e));
    let mut w = vec![0u64; events.len()];
    // Task-based: last w seen per task (fragment-aware via phase filter).
    let mut last_in_task: HashMap<lsr_trace::TaskId, u64> = HashMap::new();
    // Message-passing: max receive w seen so far per lane.
    let mut max_recv_in_lane: HashMap<Lane, u64> = HashMap::new();
    for e in order {
        let le = local_of[&e] as usize;
        let ev = trace.event(e);
        let value = match ev.kind {
            EventKind::Recv { msg } => {
                let from_send = msg.and_then(|m| {
                    let send = trace.msg(m).send_event;
                    (phase_of_event[send.index()] == input.id)
                        .then(|| local_of.get(&send).map(|&ls| w[ls as usize] + 1))
                        .flatten()
                });
                from_send.unwrap_or(0)
            }
            EventKind::Send { .. } => match model {
                TraceModel::TaskBased => last_in_task.get(&ev.task).map_or(0, |&prev| prev + 1),
                TraceModel::MessagePassing => {
                    let lane = ag.atoms[ag.atom_of_event[e.index()] as usize].lane;
                    max_recv_in_lane.get(&lane).map_or(0, |&m| m + 1)
                }
            },
        };
        w[le] = value;
        match model {
            TraceModel::TaskBased => {
                last_in_task.insert(ev.task, value);
            }
            TraceModel::MessagePassing => {
                if ev.is_sink() {
                    let lane = ag.atoms[ag.atom_of_event[e.index()] as usize].lane;
                    max_recv_in_lane
                        .entry(lane)
                        .and_modify(|m| *m = (*m).max(value))
                        .or_insert(value);
                }
            }
        }
    }
    w
}

/// The (w, invoking chare) chain of an atom and its source ancestors,
/// used as the lexicographic sort key for the reordered policy: first
/// compare the block's initial w, then the invoker's chare id, then
/// "go back a step" through source blocks (§3.2.1, Fig. 7).
#[allow(clippy::too_many_arguments)]
fn source_chain_key(
    trace: &Trace,
    ag: &AtomGraph,
    phase_of_event: &[u32],
    phase: u32,
    w: &[u64],
    local_of: &HashMap<EventId, u32>,
    atom: u32,
    tiebreak: &crate::config::TieBreak,
) -> Vec<(u64, u64)> {
    let mut key = Vec::with_capacity(2);
    let mut current = atom;
    for _ in 0..SOURCE_CHAIN_DEPTH {
        let a = &ag.atoms[current as usize];
        let first = a.events[0];
        let w_init = local_of.get(&first).map_or(0, |&l| w[l as usize]);
        let invoker = invoking_chare(trace, a.chare, first);
        key.push((w_init, tiebreak.key(invoker)));
        // Step back to the source block (the atom holding the matching
        // send of this block's sink), staying within the phase.
        let next = match trace.event(first).kind {
            EventKind::Recv { msg: Some(m) } => {
                let send = trace.msg(m).send_event;
                (phase_of_event[send.index()] == phase)
                    .then(|| ag.atom_of_event[send.index()])
                    .filter(|&s| s != current)
            }
            _ => None,
        };
        match next {
            Some(s) => current = s,
            None => break,
        }
    }
    key
}

/// The chare that invoked a serial block: the sender of its sink
/// message, or the block's own chare for spontaneous blocks.
fn invoking_chare(trace: &Trace, own: ChareId, first: EventId) -> ChareId {
    match trace.event(first).kind {
        EventKind::Recv { msg: Some(m) } => {
            let sender_task = trace.event(trace.msg(m).send_event).task;
            trace.task(sender_task).chare
        }
        _ => own,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::build_atoms;
    use lsr_trace::{Kind, PeId, Time, TraceBuilder};

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

    fn one_phase(ag: &AtomGraph) -> (Vec<u32>, PhaseInput) {
        let atoms: Vec<u32> = (0..ag.atoms.len() as u32).collect();
        let phase_of_event = vec![0u32; ag.atom_of_event.len()];
        (phase_of_event, PhaseInput { id: 0, atoms })
    }

    #[test]
    fn receive_steps_exceed_matching_send() {
        let (tr, ag) = fan_in();
        let (poe, input) = one_phase(&ag);
        let r = assign_phase_steps(&tr, &ag, &poe, &input, &Config::charm()).unwrap();
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
        let (poe, input) = one_phase(&ag);
        let r = assign_phase_steps(&tr, &ag, &poe, &input, &Config::charm()).unwrap();
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
        let (poe, input) = one_phase(&ag);
        let cfg = Config::charm().with_topology(vec![10, 5, 99]);
        let r = assign_phase_steps(&tr, &ag, &poe, &input, &cfg).unwrap();
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
        let (poe, input) = one_phase(&ag);
        let cfg = Config::charm().with_ordering(OrderingPolicy::PhysicalTime);
        let r = assign_phase_steps(&tr, &ag, &poe, &input, &cfg).unwrap();
        let steps: HashMap<EventId, u64> = r.local.iter().copied().collect();
        let sink_r0 = tr.tasks[3].sink.unwrap();
        let sink_r1 = tr.tasks[2].sink.unwrap();
        assert!(steps[&sink_r1] < steps[&sink_r0], "physical order preserved");
    }

    #[test]
    fn empty_phase_is_fine() {
        let (tr, ag) = fan_in();
        let poe = vec![0u32; ag.atom_of_event.len()];
        let input = PhaseInput { id: 0, atoms: Vec::new() };
        let r = assign_phase_steps(&tr, &ag, &poe, &input, &Config::charm()).unwrap();
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
        let (poe, input) = {
            let atoms: Vec<u32> = (0..ag.atoms.len() as u32).collect();
            (vec![0u32; ag.atom_of_event.len()], PhaseInput { id: 0, atoms })
        };
        let r = assign_phase_steps(&tr, &ag, &poe, &input, &cfg).unwrap();
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
        let atoms: Vec<u32> = (0..ag.atoms.len() as u32).collect();
        let poe = vec![0u32; ag.atom_of_event.len()];
        let input = PhaseInput { id: 0, atoms };
        let r = assign_phase_steps(&tr, &ag, &poe, &input, &cfg).unwrap();
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
        let (poe, input) = one_phase(&ag);
        let events: Vec<EventId> =
            input.atoms.iter().flat_map(|&a| ag.atoms[a as usize].events.clone()).collect();
        let local_of: HashMap<EventId, u32> =
            events.iter().enumerate().map(|(i, &e)| (e, i as u32)).collect();
        let w = compute_w(&tr, &ag, &poe, &input, &events, &local_of, TraceModel::TaskBased);
        // Initial sends have w = 0; their receives w = 1.
        for m in &tr.msgs {
            let send = local_of[&m.send_event] as usize;
            let sink = local_of[&tr.task(m.recv_task.unwrap()).sink.unwrap()] as usize;
            assert_eq!(w[send], 0);
            assert_eq!(w[sink], 1);
        }
    }
}

//! Initial partitions (§3.1.1).
//!
//! Every serial block's dependency events are grouped into *atoms*: the
//! smallest units the partitioning stage works with. With
//! [`Config::split_app_runtime`] on, a block is subdivided wherever its
//! dependencies cross the application/runtime boundary (paper Fig. 2);
//! the fragments are linked by intra-block happened-before edges.
//! Structured-Dagger heuristics (§2.1) add inferred happened-before
//! edges between consecutive serial numbers and absorb an entry method
//! into a directly following serial.

use crate::config::Config;
use lsr_trace::{ChareId, EventId, EventKind, Lane, MsgId, TaskId, Time, Trace, TraceIndex};

/// The provenance of an atom-graph edge; the merge stages filter on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    /// Matched message: send atom → receive atom (Alg. 1 input).
    Message,
    /// Happened-before between fragments of one split serial block
    /// (Alg. 2 input).
    IntraBlock,
    /// SDAG serial-number inference (§2.1).
    Sdag,
    /// Per-process program order, assumed to carry control dependencies
    /// in the message-passing model only (§3.4: "Message-passing models
    /// can assume that per-process events in physical time indicate a
    /// control flow order").
    ProcessOrder,
}

/// One atom: a maximal run of same-flavored dependency events within a
/// serial block.
#[derive(Debug, Clone)]
pub(crate) struct Atom {
    /// The serial block this atom is a fragment of.
    pub task: TaskId,
    /// The events, in block order.
    pub events: Vec<EventId>,
    /// Runtime-flavored: the owning chare is a runtime chare, or the
    /// events talk to runtime chares.
    pub is_runtime: bool,
    /// Owning chare.
    pub chare: ChareId,
    /// Grouping lane (chare for application, PE for runtime tasks).
    pub lane: Lane,
    /// Physical time of the first event.
    pub first_time: Time,
}

/// The atom graph: atoms plus their base dependency edges.
#[derive(Debug)]
pub(crate) struct AtomGraph {
    pub atoms: Vec<Atom>,
    /// Event id → atom index.
    pub atom_of_event: Vec<u32>,
    /// Base edges with provenance.
    pub edges: Vec<(u32, u32, EdgeKind)>,
    /// Atom pairs to be united before any merge stage (SDAG absorb).
    pub absorb: Vec<(u32, u32)>,
    /// First atom per task (`u32::MAX` when the task has none).
    pub first_atom_of_task: Vec<u32>,
}

const NONE: u32 = u32::MAX;

/// Builds atoms and base edges from a validated trace. Atom ids grow
/// with task order; edges come in family order (intra-block, message,
/// process order, SDAG), each family in input order.
pub(crate) fn build_atoms(trace: &Trace, ix: &TraceIndex, cfg: &Config) -> AtomGraph {
    // Messages per send event (broadcast fan-out).
    let mut msgs_of_event: Vec<Vec<MsgId>> = vec![Vec::new(); trace.events.len()];
    for m in &trace.msgs {
        msgs_of_event[m.send_event.index()].push(m.id);
    }

    // Flavor of one event: runtime if the owning chare is runtime or any
    // message partner is a runtime chare.
    let event_flavor = |ev: EventId| -> bool {
        let e = trace.event(ev);
        let own_runtime = trace.chare(trace.task(e.task).chare).kind.is_runtime();
        if own_runtime {
            return true;
        }
        match e.kind {
            EventKind::Recv { msg: Some(m) } => {
                let sender_task = trace.event(trace.msg(m).send_event).task;
                trace.chare(trace.task(sender_task).chare).kind.is_runtime()
            }
            EventKind::Recv { msg: None } => false,
            EventKind::Send { .. } => msgs_of_event[ev.index()]
                .iter()
                .any(|&m| trace.chare(trace.msg(m).dst_chare).kind.is_runtime()),
        }
    };

    // Per-task atoms: maximal same-flavor runs of the block's events,
    // consecutive fragments linked by intra-block edges.
    let mut atoms: Vec<Atom> = Vec::new();
    let mut atom_of_event = vec![NONE; trace.events.len()];
    let mut first_atom_of_task = vec![NONE; trace.tasks.len()];
    let mut last_atom_of_task = vec![NONE; trace.tasks.len()];
    let mut edges: Vec<(u32, u32, EdgeKind)> = Vec::new();
    for t in &trace.tasks {
        let chare = t.chare;
        let lane = trace.task_lane(t.id);
        let own_runtime = trace.chare(chare).kind.is_runtime();
        for ev in t.events() {
            let flavor = if cfg.split_app_runtime { event_flavor(ev) } else { own_runtime };
            let last = last_atom_of_task[t.id.index()];
            let a = match atoms.last_mut() {
                Some(atom) if last != NONE && atom.is_runtime == flavor => {
                    atom.events.push(ev);
                    last
                }
                _ => {
                    let a = atoms.len() as u32;
                    atoms.push(Atom {
                        task: t.id,
                        events: vec![ev],
                        is_runtime: flavor,
                        chare,
                        lane,
                        first_time: trace.event(ev).time,
                    });
                    if last == NONE {
                        first_atom_of_task[t.id.index()] = a;
                    } else {
                        edges.push((last, a, EdgeKind::IntraBlock));
                    }
                    last_atom_of_task[t.id.index()] = a;
                    a
                }
            };
            atom_of_event[ev.index()] = a;
        }
    }

    // Message edges: matched send/receive endpoints, in message order.
    for m in &trace.msgs {
        let Some(to) = m.recv_task else { continue };
        let send_atom = atom_of_event[m.send_event.index()];
        let sink = trace.task(to).sink.expect("validated: matched msg has sink");
        let recv_atom = atom_of_event[sink.index()];
        // Both endpoints of a matched message must lie in atoms;
        // re-checked in release builds under `Config::verify_invariants`.
        debug_assert!(send_atom != NONE && recv_atom != NONE);
        if cfg.verify_invariants {
            assert!(
                send_atom != NONE && recv_atom != NONE,
                "message {} endpoints missing from the atom graph \
                 (send atom {send_atom:#x}, recv atom {recv_atom:#x})",
                m.id
            );
        }
        edges.push((send_atom, recv_atom, EdgeKind::Message));
    }

    // Message-passing model: program order within each process is a
    // control dependency (§3.4) — these edges give the partitioning
    // stage the "wealth of additional dependencies" Isaacs'14 relies
    // on, fusing each exchange round into one phase via cycle merges.
    if cfg.model == crate::config::TraceModel::MessagePassing && cfg.mp_process_order {
        for list in &ix.tasks_by_chare {
            let links = task_links(list, &first_atom_of_task, &last_atom_of_task);
            edges.extend(links.map(|(_, _, la, fb)| (la, fb, EdgeKind::ProcessOrder)));
        }
    }

    // SDAG heuristics (§2.1): consecutive serial numbers on a chare
    // imply happened-before; an entry method scheduled back-to-back
    // before a serial is absorbed into it.
    let mut absorb = Vec::new();
    if cfg.sdag_inference {
        for list in &ix.tasks_by_chare {
            for (ta, tb, la, fb) in task_links(list, &first_atom_of_task, &last_atom_of_task) {
                let (a, b) = (trace.task(ta), trace.task(tb));
                let sa = trace.entry(a.entry).sdag_serial;
                let sb = trace.entry(b.entry).sdag_serial;
                match (sa, sb) {
                    (Some(n), Some(m)) if m == n + 1 => {
                        edges.push((la, fb, EdgeKind::Sdag));
                    }
                    (None, Some(_)) if a.end == b.begin && a.pe == b.pe => {
                        // The when-clause entry right before the serial:
                        // absorb it (same flavor only).
                        if atoms[la as usize].is_runtime == atoms[fb as usize].is_runtime {
                            absorb.push((la, fb));
                        } else {
                            edges.push((la, fb, EdgeKind::Sdag));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    AtomGraph { atoms, atom_of_event, edges, absorb, first_atom_of_task }
}

/// Consecutive tasks of one chare's list whose ends both materialized
/// atoms, with the last atom of the first and the first atom of the
/// second.
fn task_links<'a>(
    list: &'a [TaskId],
    first_atom_of_task: &'a [u32],
    last_atom_of_task: &'a [u32],
) -> impl Iterator<Item = (TaskId, TaskId, u32, u32)> + 'a {
    list.windows(2).filter_map(|w| {
        let la = last_atom_of_task[w[0].index()];
        let fb = first_atom_of_task[w[1].index()];
        (la != NONE && fb != NONE).then_some((w[0], w[1], la, fb))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_trace::{Kind, PeId, TraceBuilder};

    /// The last atom of `task` (atoms of one task are contiguous).
    fn last_atom(ag: &AtomGraph, task: usize) -> u32 {
        ag.atoms.iter().rposition(|a| a.task.index() == task).expect("task has atoms") as u32
    }

    /// App chare c0 sends to app chare c1 and to runtime mgr, in that
    /// order: with splitting this yields app/runtime atoms per Fig. 2.
    fn mixed_trace() -> Trace {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let rt = b.add_array("mgr", Kind::Runtime);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(1));
        let mgr = b.add_chare(rt, 0, PeId(0));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m_app = b.record_send(t0, Time(2), c1, e);
        let m_rt = b.record_send(t0, Time(4), mgr, e);
        b.end_task(t0, Time(5));
        let t1 = b.begin_task_from(c1, e, PeId(1), Time(10), m_app);
        b.end_task(t1, Time(12));
        let t2 = b.begin_task_from(mgr, e, PeId(0), Time(8), m_rt);
        b.end_task(t2, Time(9));
        b.build().unwrap()
    }

    #[test]
    fn split_divides_block_at_runtime_boundary() {
        let tr = mixed_trace();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        // t0: [send→app] app atom, [send→mgr] runtime atom;
        // t1: one app atom; t2: one runtime atom.
        assert_eq!(ag.atoms.len(), 4);
        let t0_first = ag.first_atom_of_task[0] as usize;
        let t0_last = last_atom(&ag, 0) as usize;
        assert_ne!(t0_first, t0_last);
        assert!(!ag.atoms[t0_first].is_runtime);
        assert!(ag.atoms[t0_last].is_runtime);
        // Intra-block edge between the two fragments.
        assert!(ag.edges.iter().any(|&(u, v, k)| k == EdgeKind::IntraBlock
            && u == t0_first as u32
            && v == t0_last as u32));
        // Two message edges.
        assert_eq!(ag.edges.iter().filter(|e| e.2 == EdgeKind::Message).count(), 2);
    }

    #[test]
    fn no_split_keeps_blocks_whole() {
        let tr = mixed_trace();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm().with_split(false));
        assert_eq!(ag.atoms.len(), 3);
        assert_eq!(ag.first_atom_of_task[0], last_atom(&ag, 0));
        // Flavor falls back to the chare's own kind.
        assert!(!ag.atoms[ag.first_atom_of_task[0] as usize].is_runtime);
    }

    #[test]
    fn sink_flavor_follows_sender_kind() {
        let tr = mixed_trace();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        // t1's sink comes from an application chare → app atom.
        let t1_atom = ag.first_atom_of_task[1] as usize;
        assert!(!ag.atoms[t1_atom].is_runtime);
        // t2 is on a runtime chare → runtime atom regardless of sender.
        let t2_atom = ag.first_atom_of_task[2] as usize;
        assert!(ag.atoms[t2_atom].is_runtime);
    }

    fn sdag_trace(gap: u64) -> Trace {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let e_plain = b.add_entry("recvResult", None);
        let s1 = b.add_entry("_sdag_1", Some(1));
        let s2 = b.add_entry("_sdag_2", Some(2));
        let t0 = b.begin_task(c0, e_plain, PeId(0), Time(0));
        let m = b.record_send(t0, Time(1), c0, s1);
        b.end_task(t0, Time(5));
        let t1 = b.begin_task_from(c0, s1, PeId(0), Time(5 + gap), m);
        let m2 = b.record_send(t1, Time(6 + gap), c0, s2);
        b.end_task(t1, Time(7 + gap));
        let t2 = b.begin_task_from(c0, s2, PeId(0), Time(10 + gap), m2);
        b.end_task(t2, Time(11 + gap));
        b.build().unwrap()
    }

    #[test]
    fn sdag_serial_numbers_add_edges() {
        let tr = sdag_trace(1);
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        // serial 1 followed by serial 2 on the same chare → Sdag edge.
        let la = last_atom(&ag, 1);
        let fb = ag.first_atom_of_task[2];
        assert!(ag.edges.iter().any(|&(u, v, k)| k == EdgeKind::Sdag && u == la && v == fb));
    }

    #[test]
    fn entry_back_to_back_with_serial_is_absorbed() {
        let tr = sdag_trace(0); // t0 ends exactly when t1 begins
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        let la = last_atom(&ag, 0);
        let fb = ag.first_atom_of_task[1];
        assert!(ag.absorb.contains(&(la, fb)));
    }

    #[test]
    fn sdag_disabled_adds_nothing() {
        let tr = sdag_trace(0);
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm().with_sdag(false));
        assert!(ag.absorb.is_empty());
        assert!(ag.edges.iter().all(|e| e.2 != EdgeKind::Sdag));
    }

    #[test]
    fn broadcast_send_event_gets_all_message_edges() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let c2 = b.add_chare(app, 2, PeId(0));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let msgs = b.record_broadcast(t0, Time(1), &[(c1, e), (c2, e)]);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task_from(c1, e, PeId(0), Time(3), msgs[0]);
        b.end_task(t1, Time(4));
        let t2 = b.begin_task_from(c2, e, PeId(0), Time(5), msgs[1]);
        b.end_task(t2, Time(6));
        let tr = b.build().unwrap();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        // One send event, one atom, two message edges: to each receiver.
        let send_atom = ag.atom_of_event[tr.tasks[0].sends[0].index()];
        let msg_edges: Vec<(u32, u32)> =
            ag.edges.iter().filter(|e| e.2 == EdgeKind::Message).map(|&(u, v, _)| (u, v)).collect();
        let sink_atom = |t: TaskId| ag.first_atom_of_task[t.index()];
        assert_eq!(msg_edges, vec![(send_atom, sink_atom(t1)), (send_atom, sink_atom(t2))]);
        assert_ne!(sink_atom(t1), sink_atom(t2));
        let _ = t0;
    }

    #[test]
    fn eventless_tasks_have_no_atoms() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let e = b.add_entry("noop", None);
        let t = b.begin_task(c0, e, PeId(0), Time(0));
        b.end_task(t, Time(1));
        let tr = b.build().unwrap();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        assert!(ag.atoms.is_empty());
        assert_eq!(ag.first_atom_of_task[0], NONE);
    }
}

//! Mutable state of the phase-finding stage: a union-find over atoms
//! plus a rebuildable condensed partition view.

use crate::atoms::AtomGraph;
use crate::graph::{DiGraph, UnionFind};
use crate::provenance::{MergeProvenance, ProvenanceRule};
use lsr_trace::{ChareId, EventId, PeId, TaskId, Time, Trace};
use std::collections::{BTreeMap, HashMap};

/// Counters describing what each stage of the pipeline did; useful for
/// tests, ablations, and performance reporting.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Diagnostics {
    /// Number of initial partitions (atoms).
    pub atoms: usize,
    /// Unions performed by the dependency merge (Alg. 1).
    pub dependency_merges: usize,
    /// Partitions eliminated by cycle merges (all rounds).
    pub cycle_merges: usize,
    /// Unions performed by the serial-block repair (Alg. 2).
    pub repair_merges: usize,
    /// Unions performed by the collective merge (§7.1 abstraction).
    pub collective_merges: usize,
    /// Unions performed by the neighboring-serials merge.
    pub neighbor_serial_merges: usize,
    /// Happened-before edges inferred from partition sources (Alg. 3).
    pub inferred_edges: usize,
    /// Unions performed by the leap merge (Alg. 4).
    pub leap_merges: usize,
    /// Ordering edges added between same-leap partitions.
    pub ordering_edges: usize,
    /// Edges added to enforce chare paths (Alg. 5).
    pub enforce_edges: usize,
    /// Final number of phases.
    pub phase_count: usize,
    /// Phases whose reordered step assignment hit a cycle and fell back
    /// to physical-time ordering.
    pub reorder_fallbacks: usize,
}

/// The evolving partition state.
pub(crate) struct Stage<'t> {
    pub trace: &'t Trace,
    pub ag: AtomGraph,
    pub uf: UnionFind,
    /// Inferred partition-level edges, stored between representative
    /// atoms (they stay valid across merges).
    pub extra_edges: Vec<(u32, u32)>,
    pub diag: Diagnostics,
    /// Decision log, collected when provenance was requested.
    pub prov: Option<MergeProvenance>,
}

/// A consistent snapshot of the current partitions: dense partition ids,
/// per-partition atom lists, the condensed graph, and flavor flags.
pub(crate) struct PartView {
    /// Atom → dense partition index.
    pub part_of_atom: Vec<u32>,
    /// Partition → atom indices (ascending).
    pub atoms_in: Vec<Vec<u32>>,
    /// Condensed graph over partitions (self-loops dropped).
    pub graph: DiGraph,
    /// Partition flavor: true iff *all* atoms are runtime-flavored.
    pub is_runtime: Vec<bool>,
}

impl<'t> Stage<'t> {
    pub fn new(trace: &'t Trace, ag: AtomGraph) -> Stage<'t> {
        Stage::new_inner(trace, ag, false)
    }

    /// [`Stage::new`] with decision logging enabled: every union and
    /// inferred edge is recorded in [`Stage::prov`].
    pub fn with_provenance(trace: &'t Trace, ag: AtomGraph) -> Stage<'t> {
        Stage::new_inner(trace, ag, true)
    }

    fn new_inner(trace: &'t Trace, ag: AtomGraph, record: bool) -> Stage<'t> {
        let mut prov = record.then(MergeProvenance::default);
        // The atom graph's SDAG decisions (taken in `build_atoms`) are
        // part of the provenance too: log absorbs and Sdag edges here,
        // where the log first exists.
        if let Some(p) = &mut prov {
            for &(a, b) in &ag.absorb {
                let (ta, tb) = (ag.atoms[a as usize].task, ag.atoms[b as usize].task);
                p.push(ProvenanceRule::SdagAbsorb, ta, tb);
            }
            for &(a, b, kind) in &ag.edges {
                if kind == crate::atoms::EdgeKind::Sdag {
                    let (ta, tb) = (ag.atoms[a as usize].task, ag.atoms[b as usize].task);
                    p.push(ProvenanceRule::SdagEdge, ta, tb);
                }
            }
        }
        let mut uf = UnionFind::new(ag.atoms.len());
        for &(a, b) in &ag.absorb {
            uf.union(a, b);
        }
        let diag = Diagnostics { atoms: ag.atoms.len(), ..Diagnostics::default() };
        Stage { trace, ag, uf, extra_edges: Vec::new(), diag, prov }
    }

    /// Logs a decision on two atoms (resolved to their tasks) when
    /// provenance collection is on.
    pub fn note(&mut self, rule: ProvenanceRule, atom_a: u32, atom_b: u32) {
        if let Some(p) = &mut self.prov {
            let ta = self.ag.atoms[atom_a as usize].task;
            let tb = self.ag.atoms[atom_b as usize].task;
            p.push(rule, ta, tb);
        }
    }

    /// Logs a decision on two tasks, with an explicit time-witness
    /// facet: `timed` marks the pair as ordered by comparing physical
    /// times of two specific events (see [`crate::MergeRecord::timed`]).
    pub fn note_tasks_timed(&mut self, rule: ProvenanceRule, a: TaskId, b: TaskId, timed: bool) {
        if let Some(p) = &mut self.prov {
            p.push_timed(rule, a, b, timed);
        }
    }

    /// Rebuilds the condensed partition view. O(atoms + edges).
    pub fn view(&mut self) -> PartView {
        let n = self.ag.atoms.len();
        let mut rep_to_dense: HashMap<u32, u32> = HashMap::new();
        let mut part_of_atom = vec![0u32; n];
        let mut atoms_in: Vec<Vec<u32>> = Vec::new();
        for a in 0..n as u32 {
            let r = self.uf.find(a);
            let dense = *rep_to_dense.entry(r).or_insert_with(|| {
                atoms_in.push(Vec::new());
                (atoms_in.len() - 1) as u32
            });
            part_of_atom[a as usize] = dense;
            atoms_in[dense as usize].push(a);
        }
        let parts = atoms_in.len();
        let mapped = self
            .ag
            .edges
            .iter()
            .map(|&(u, v, _)| (u, v))
            .chain(self.extra_edges.iter().copied())
            .map(|(u, v)| (part_of_atom[u as usize], part_of_atom[v as usize]));
        let graph = DiGraph::from_edges(parts, mapped);
        let is_runtime = atoms_in
            .iter()
            .map(|atoms| atoms.iter().all(|&a| self.ag.atoms[a as usize].is_runtime))
            .collect();
        PartView { part_of_atom, atoms_in, graph, is_runtime }
    }

    /// Cycle merge: collapses every strongly connected component of the
    /// partition graph into one partition. Returns the number of
    /// partitions eliminated. Afterwards the partition graph is a DAG.
    pub fn cycle_merge(&mut self) -> usize {
        let v = self.view();
        let (comp, count) = v.graph.sccs();
        let eliminated = v.atoms_in.len() - count;
        if eliminated > 0 {
            let mut first_in_comp: HashMap<u32, u32> = HashMap::new();
            for (part, &c) in comp.iter().enumerate() {
                let rep_atom = v.atoms_in[part][0];
                match first_in_comp.entry(c) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let anchor = *e.get();
                        self.uf.union(anchor, rep_atom);
                        self.note(ProvenanceRule::CycleMerge, anchor, rep_atom);
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(rep_atom);
                    }
                }
            }
        }
        self.diag.cycle_merges += eliminated;
        eliminated
    }
}

impl PartView {
    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.atoms_in.len()
    }

    /// Distinct chares of each partition (sorted).
    pub fn chares(&self, stage: &Stage<'_>) -> Vec<Vec<ChareId>> {
        self.atoms_in
            .iter()
            .map(|atoms| {
                let mut cs: Vec<ChareId> =
                    atoms.iter().map(|&a| stage.ag.atoms[a as usize].chare).collect();
                cs.sort_unstable();
                cs.dedup();
                cs
            })
            .collect()
    }

    /// Per partition, per chare: the first (earliest) event of that
    /// chare in the partition, with its time and whether it is a
    /// source. A `BTreeMap` so downstream iteration (Alg. 3's
    /// per-chare grouping) is in chare order by construction rather
    /// than by a sort-the-keys dance — hash iteration order must never
    /// reach `MergeProvenance`.
    pub fn initial_events(
        &self,
        stage: &Stage<'_>,
    ) -> Vec<BTreeMap<ChareId, (Time, EventId, bool)>> {
        self.atoms_in
            .iter()
            .map(|atoms| {
                let mut map: BTreeMap<ChareId, (Time, EventId, bool)> = BTreeMap::new();
                for &a in atoms {
                    let atom = &stage.ag.atoms[a as usize];
                    let ev = atom.events[0];
                    let t = atom.first_time;
                    let is_src = stage.trace.event(ev).is_source();
                    map.entry(atom.chare)
                        .and_modify(|cur| {
                            if (t, ev) < (cur.0, cur.1) {
                                *cur = (t, ev, is_src);
                            }
                        })
                        .or_insert((t, ev, is_src));
                }
                map
            })
            .collect()
    }

    /// Per partition, earliest event time per PE (for the per-processor
    /// ordering fallback of §3.1.4). Stays a `HashMap`: consumers only
    /// look keys up or fold order-independent minimums, so iteration
    /// order cannot reach any output.
    pub fn first_time_per_pe(&self, stage: &Stage<'_>) -> Vec<HashMap<PeId, Time>> {
        self.atoms_in
            .iter()
            .map(|atoms| {
                let mut map: HashMap<PeId, Time> = HashMap::new();
                for &a in atoms {
                    let atom = &stage.ag.atoms[a as usize];
                    let pe = stage.trace.task(atom.task).pe;
                    map.entry(pe)
                        .and_modify(|t| *t = (*t).min(atom.first_time))
                        .or_insert(atom.first_time);
                }
                map
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::build_atoms;
    use crate::config::Config;
    use lsr_trace::{Kind, PeId, Time, TraceBuilder};

    /// Ring of 3 chares: each sends to the next; message edges form a
    /// 3-cycle once endpoints merge — here the raw atoms already chain
    /// in a cycle at partition level after dependency unions.
    fn ring_trace() -> Trace {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("ring", Kind::Application);
        let cs: Vec<_> = (0..3).map(|i| b.add_chare(app, i, PeId(0))).collect();
        let e = b.add_entry("recvResult", None);
        // c0 spontaneously starts, sends to c1; c1 to c2; c2 to c0.
        let t0 = b.begin_task(cs[0], e, PeId(0), Time(0));
        let m01 = b.record_send(t0, Time(1), cs[1], e);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task_from(cs[1], e, PeId(0), Time(3), m01);
        let m12 = b.record_send(t1, Time(4), cs[2], e);
        b.end_task(t1, Time(5));
        let t2 = b.begin_task_from(cs[2], e, PeId(0), Time(6), m12);
        let m20 = b.record_send(t2, Time(7), cs[0], e);
        b.end_task(t2, Time(8));
        let t3 = b.begin_task_from(cs[0], e, PeId(0), Time(9), m20);
        b.end_task(t3, Time(10));
        b.build().unwrap()
    }

    #[test]
    fn view_reflects_unions() {
        let tr = ring_trace();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        let mut stage = Stage::new(&tr, ag);
        let v0 = stage.view();
        assert_eq!(v0.len(), stage.ag.atoms.len());
        stage.uf.union(0, 1);
        let v1 = stage.view();
        assert_eq!(v1.len(), v0.len() - 1);
        assert_eq!(v1.part_of_atom[0], v1.part_of_atom[1]);
    }

    #[test]
    fn cycle_merge_collapses_message_cycles() {
        let tr = ring_trace();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        let mut stage = Stage::new(&tr, ag);
        // Union matched endpoints (what the dependency merge does):
        let msg_edges: Vec<(u32, u32)> = stage
            .ag
            .edges
            .iter()
            .filter(|e| e.2 == crate::atoms::EdgeKind::Message)
            .map(|&(u, v, _)| (u, v))
            .collect();
        for (u, v) in msg_edges {
            stage.uf.union(u, v);
        }
        // t0 and t3 are both on chare 0; t0's send merged with t1's
        // sink, t2's send merged with t3's sink: now the intra-chain
        // edges make a cycle through the three partitions? Verify the
        // cycle merge leaves a DAG either way.
        stage.cycle_merge();
        let v = stage.view();
        assert!(v.graph.topo_order().is_ok(), "after cycle merge the graph is a DAG");
    }

    #[test]
    fn initial_events_pick_earliest_per_chare() {
        let tr = ring_trace();
        let ix = tr.index();
        let ag = build_atoms(&tr, &ix, &Config::charm());
        let mut stage = Stage::new(&tr, ag);
        // Merge everything into one partition.
        for a in 1..stage.ag.atoms.len() as u32 {
            stage.uf.union(0, a);
        }
        let v = stage.view();
        assert_eq!(v.len(), 1);
        let init = v.initial_events(&stage);
        // chare 0's earliest event is t0's send at Time(1) — a source.
        let c0 = lsr_trace::ChareId(0);
        let (t, _ev, is_src) = init[0][&c0];
        assert_eq!(t, Time(1));
        assert!(is_src);
        // chare 1's earliest is its sink at Time(3).
        let c1 = lsr_trace::ChareId(1);
        let (t1, _, is_src1) = init[0][&c1];
        assert_eq!(t1, Time(3));
        assert!(!is_src1);
        let chares = v.chares(&stage);
        assert_eq!(chares[0].len(), 3);
        let per_pe = v.first_time_per_pe(&stage);
        assert_eq!(per_pe[0][&PeId(0)], Time(1));
    }
}

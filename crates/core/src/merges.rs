//! The phase-finding merge passes (paper §3.1.2–§3.1.4, Algorithms 1–5).
//!
//! Every pass runs serially against the stage's union-find, visiting
//! candidates in an order derived only from input indices; any map
//! whose iteration order reaches provenance is a `BTreeMap`
//! (`tests/determinism.rs` checks that two runs agree).

use crate::atoms::EdgeKind;
use crate::provenance::ProvenanceRule;
use crate::stage::Stage;
use crate::ExtractError;
use lsr_trace::{ChareId, EventId, Time};
use std::collections::{BTreeMap, HashMap};

/// Algorithm 1: merge partitions containing matched send/receive
/// endpoints, then merge any cycles this created.
pub(crate) fn dependency_merge(stage: &mut Stage<'_>) {
    let mut merges = 0;
    for i in 0..stage.ag.edges.len() {
        let (u, v, kind) = stage.ag.edges[i];
        if kind == EdgeKind::Message && stage.uf.union(u, v) {
            merges += 1;
            stage.note(ProvenanceRule::DependencyMerge, u, v);
        }
    }
    stage.diag.dependency_merges += merges;
    stage.cycle_merge();
}

/// Algorithm 2: restore merges broken by the application/runtime split,
/// then merge cycles. Two repairs happen (paper §3.1.3, Fig. 4):
///
/// 1. same-flavor fragments of one split serial block are reunited —
///    they would have been one initial partition without the split;
/// 2. partitions that directly succeed the same partition through
///    broken-block edges and hold fragments of the same entry type are
///    merged (the sibling merge that reassembles a multi-chare phase).
pub(crate) fn repair_merge(stage: &mut Stage<'_>) {
    let mut merges = 0;
    // (1) Reunite same-flavor fragments within each block.
    {
        let ntasks = stage.trace.tasks.len();
        let mut first_of_flavor: Vec<[u32; 2]> = vec![[u32::MAX; 2]; ntasks];
        for a in 0..stage.ag.atoms.len() as u32 {
            let atom = &stage.ag.atoms[a as usize];
            let f = atom.is_runtime as usize;
            let slot = &mut first_of_flavor[atom.task.index()][f];
            if *slot == u32::MAX {
                *slot = a;
            } else {
                let anchor = *slot;
                if stage.uf.union(anchor, a) {
                    merges += 1;
                    stage.note(ProvenanceRule::RepairMerge, anchor, a);
                }
            }
        }
    }
    // (2) Sibling merge across broken-block edges, grouped by
    // (predecessor partition, fragment entry type, flavor). Candidates
    // are collected in edge order; group anchors are order-sensitive.
    let v = stage.view();
    let trace = stage.trace;
    let ag = &stage.ag;
    let cands: Vec<((u32, lsr_trace::EntryId, bool), u32, u32)> = ag
        .edges
        .iter()
        .filter_map(|&(a, b, kind)| {
            if kind != EdgeKind::IntraBlock {
                return None;
            }
            let (pa, pb) = (v.part_of_atom[a as usize], v.part_of_atom[b as usize]);
            if pa == pb {
                return None;
            }
            let entry = trace.task(ag.atoms[b as usize].task).entry;
            let flavor = v.is_runtime[pb as usize];
            Some(((pa, entry, flavor), pb, b))
        })
        .collect();
    let mut groups: HashMap<(u32, lsr_trace::EntryId, bool), u32> = HashMap::new();
    for (key, pb, b) in cands {
        match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let anchor_part = *e.get();
                if anchor_part != pb {
                    let anchor_atom = v.atoms_in[anchor_part as usize][0];
                    if stage.uf.union(anchor_atom, b) {
                        merges += 1;
                        stage.note(ProvenanceRule::RepairMerge, anchor_atom, b);
                    }
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(pb);
            }
        }
    }
    stage.diag.repair_merges += merges;
    if merges > 0 {
        stage.cycle_merge();
    }
}

/// The neighboring-serials merge (§3.1.3, second paragraph): when the
/// chares of one partition immediately participate in serial `n + 1`
/// spread over several partitions, those successor partitions are part
/// of the same multi-chare phase and are merged.
pub(crate) fn neighbor_serial_merge(stage: &mut Stage<'_>) {
    let v = stage.view();
    let trace = stage.trace;
    let ag = &stage.ag;
    let cands: Vec<((u32, u32), u32)> = ag
        .edges
        .iter()
        .filter_map(|&(a, b, kind)| {
            if kind != EdgeKind::Sdag {
                return None;
            }
            let (pa, pb) = (v.part_of_atom[a as usize], v.part_of_atom[b as usize]);
            if pa == pb {
                return None;
            }
            let entry = trace.task(ag.atoms[b as usize].task).entry;
            Some(((pa, entry.0), pb))
        })
        .collect();
    // Group targets by (source partition, target entry) — a BTreeMap,
    // so the merge loop walks keys in (partition, entry) order by
    // construction instead of draining a hash map.
    let mut groups: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
    for (key, pb) in cands {
        groups.entry(key).or_default().push(pb);
    }
    let mut merges = 0;
    for (_key, mut parts) in groups {
        parts.sort_unstable();
        parts.dedup();
        // Merge same-flavor members of the group pairwise.
        for w in 1..parts.len() {
            let (p0, pw) = (parts[0], parts[w]);
            if v.is_runtime[p0 as usize] == v.is_runtime[pw as usize] {
                let a0 = v.atoms_in[p0 as usize][0];
                let aw = v.atoms_in[pw as usize][0];
                if stage.uf.union(a0, aw) {
                    merges += 1;
                    stage.note(ProvenanceRule::NeighborSerialMerge, a0, aw);
                }
            }
        }
    }
    stage.diag.neighbor_serial_merges += merges;
    if merges > 0 {
        stage.cycle_merge();
    }
}

/// Collective merge (paper §7.1): collective operations are recorded as
/// abstracted per-rank calls whose application-level control flow is
/// "understood implicitly"; all tasks of one collective *instance* form
/// one phase. An instance is the weakly connected group of
/// collective-entry tasks linked by their messages and by adjacency on
/// a rank (two consecutive collective tasks with nothing in between).
pub(crate) fn collective_merge(stage: &mut Stage<'_>, ix: &lsr_trace::TraceIndex) {
    let trace = stage.trace;
    let ag = &stage.ag;
    let is_coll = |t: lsr_trace::TaskId| trace.entry(trace.task(t).entry).collective;
    // First-atom pair of a collective-to-collective task link, if both
    // ends materialized atoms.
    let pair_of = |a: lsr_trace::TaskId, b: lsr_trace::TaskId| -> Option<(u32, u32)> {
        if !is_coll(a) || !is_coll(b) {
            return None;
        }
        let (fa, fb) = (ag.first_atom_of_task[a.index()], ag.first_atom_of_task[b.index()]);
        (fa != u32::MAX && fb != u32::MAX).then_some((fa, fb))
    };
    // Both link families, in order: messages between collective tasks
    // first, then rank adjacency (consecutive collective tasks on one
    // rank belong to the same instance — distinct collectives are
    // separated by application ops).
    let candidates: Vec<(u32, u32)> = trace
        .msgs
        .iter()
        .filter_map(|m| m.recv_task.map(|to| (trace.event(m.send_event).task, to)))
        .filter_map(|(from, to)| pair_of(from, to))
        .chain(
            ix.tasks_by_chare
                .iter()
                .flat_map(|list| list.windows(2).filter_map(|w| pair_of(w[0], w[1]))),
        )
        .collect();
    let mut merges = 0;
    for (fa, fb) in candidates {
        if stage.uf.union(fa, fb) {
            merges += 1;
            stage.note(ProvenanceRule::CollectiveMerge, fa, fb);
        }
    }
    stage.diag.collective_merges += merges;
    if merges > 0 {
        stage.cycle_merge();
    }
}

/// Algorithm 3: infer happened-before edges between partitions from the
/// physical-time order of their partition-starting source events, per
/// chare; then merge cycles.
pub(crate) fn infer_dependencies(stage: &mut Stage<'_>) {
    let v = stage.view();
    let init = v.initial_events(stage);
    // chare → list of (time, event, partition) of partition-starting
    // sources. A BTreeMap, so the edge-adding loop below visits chares
    // in id order by construction — this order reaches provenance.
    let mut per_chare: BTreeMap<ChareId, Vec<(Time, EventId, u32)>> = BTreeMap::new();
    for (p, map) in init.iter().enumerate() {
        for (&chare, &(t, ev, is_src)) in map {
            if is_src {
                per_chare.entry(chare).or_default().push((t, ev, p as u32));
            }
        }
    }
    let mut added = 0;
    for (_chare, mut list) in per_chare {
        list.sort_unstable();
        for w in list.windows(2) {
            let (_, ea, p) = w[0];
            let (_, eb, q) = w[1];
            if p != q {
                let ap = v.atoms_in[p as usize][0];
                let aq = v.atoms_in[q as usize][0];
                stage.extra_edges.push((ap, aq));
                // The edge direction was decided by the physical-time
                // order of these two source events' tasks.
                let (ta, tb) = (stage.trace.event(ea).task, stage.trace.event(eb).task);
                stage.note_tasks_timed(ProvenanceRule::InferredEdge, ta, tb, true);
                added += 1;
            }
        }
    }
    stage.diag.inferred_edges += added;
    if added > 0 {
        stage.cycle_merge();
    }
}

/// Resolves chare overlaps within leaps until property (1) of §3.1.4
/// holds: no two partitions at the same leap share a chare.
///
/// With `merge_same_flavor` (the paper's Algorithm 4), same-flavor
/// overlapping partitions merge into one phase, while cross-flavor
/// overlaps (application vs runtime) are *ordered* by the physical time
/// of their initial sources. Without it (the Fig. 17 ablation), every
/// overlap is resolved by ordering, which strings the would-be phase
/// out in sequence.
pub(crate) fn resolve_leap_overlaps(
    stage: &mut Stage<'_>,
    merge_same_flavor: bool,
) -> Result<(), ExtractError> {
    // Iterate to a fixpoint; each round either merges or adds ordering
    // edges, both of which strictly reduce the number of (partition,
    // partition) overlap pairs at equal leaps or move them apart.
    let cap = 4 * stage.ag.atoms.len().max(16);
    for round in 0..cap {
        let v = stage.view();
        let leaps = v.graph.leaps().map_err(|cycle| ExtractError::PhaseCycle { cycle })?;
        let chares = v.chares(stage);
        // leap → chare → first partition seen.
        let mut by_leap: HashMap<u32, HashMap<ChareId, u32>> = HashMap::new();
        let mut merge_pairs: Vec<(u32, u32)> = Vec::new();
        let mut order_pairs: Vec<(u32, u32)> = Vec::new();
        let mut order: Vec<u32> = (0..v.len() as u32).collect();
        order.sort_unstable_by_key(|&p| (leaps[p as usize], p));
        for &p in &order {
            let slot = by_leap.entry(leaps[p as usize]).or_default();
            for &c in &chares[p as usize] {
                match slot.entry(c) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let q = *e.get();
                        if q != p {
                            if merge_same_flavor
                                && v.is_runtime[p as usize] == v.is_runtime[q as usize]
                            {
                                merge_pairs.push((q, p));
                            } else {
                                order_pairs.push((q, p));
                            }
                        }
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(p);
                    }
                }
            }
        }
        if merge_pairs.is_empty() && order_pairs.is_empty() {
            return Ok(());
        }
        if !merge_pairs.is_empty() {
            // Algorithm 4: merge concurrent overlapping phases.
            let mut merges = 0;
            for (p, q) in merge_pairs {
                let (ap, aq) = (v.atoms_in[p as usize][0], v.atoms_in[q as usize][0]);
                if stage.uf.union(ap, aq) {
                    merges += 1;
                    stage.note(ProvenanceRule::LeapMerge, ap, aq);
                }
            }
            stage.diag.leap_merges += merges;
            stage.cycle_merge();
            continue;
        }
        // Ordering pass: direct each overlapping pair by the physical
        // time of initial sources (fallbacks: per-PE earliest events,
        // then global earliest, then app-before-runtime).
        let init = v.initial_events(stage);
        let per_pe = v.first_time_per_pe(stage);
        let mut added = 0;
        let mut seen: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        for (p, q) in order_pairs {
            let key = (p.min(q), p.max(q));
            if !seen.insert(key) {
                continue;
            }
            let (earlier, later, decided_by) = orient(stage, &v, &init, &per_pe, &chares, p, q);
            let ae = v.atoms_in[earlier as usize][0];
            let al = v.atoms_in[later as usize][0];
            stage.extra_edges.push((ae, al));
            let timed = decided_by.is_some();
            let (da, db) = decided_by
                .unwrap_or((stage.ag.atoms[ae as usize].task, stage.ag.atoms[al as usize].task));
            stage.note_tasks_timed(ProvenanceRule::OrderingEdge, da, db, timed);
            added += 1;
        }
        stage.diag.ordering_edges += added;
        stage.cycle_merge();
        if round + 1 == cap {
            break;
        }
    }
    // Safety valve: if ordering alone cannot separate the overlaps
    // (pathological ties), merge the remainder outright.
    let v = stage.view();
    let leaps = v.graph.leaps().map_err(|cycle| ExtractError::PhaseCycle { cycle })?;
    let chares = v.chares(stage);
    let mut by_leap: HashMap<(u32, ChareId), u32> = HashMap::new();
    let mut merges = 0;
    for p in 0..v.len() as u32 {
        for &c in &chares[p as usize] {
            if let Some(&q) = by_leap.get(&(leaps[p as usize], c)) {
                let (ap, aq) = (v.atoms_in[p as usize][0], v.atoms_in[q as usize][0]);
                if q != p && stage.uf.union(ap, aq) {
                    merges += 1;
                    stage.note(ProvenanceRule::LeapMerge, ap, aq);
                }
            } else {
                by_leap.insert((leaps[p as usize], c), p);
            }
        }
    }
    if merges > 0 {
        stage.diag.leap_merges += merges;
        stage.cycle_merge();
    }
    Ok(())
}

/// Chooses the happened-before direction between two same-leap
/// partitions (§3.1.4 "Enforcing DAG Properties"). Also returns the
/// deciding task pair (earlier first) when the direction was picked by
/// comparing the times of two specific events; `None` for the
/// structural fallbacks.
fn orient(
    stage: &Stage<'_>,
    v: &crate::stage::PartView,
    init: &[BTreeMap<ChareId, (Time, EventId, bool)>],
    per_pe: &[HashMap<lsr_trace::PeId, Time>],
    chares: &[Vec<ChareId>],
    p: u32,
    q: u32,
) -> (u32, u32, Option<(lsr_trace::TaskId, lsr_trace::TaskId)>) {
    let task_of = |e: EventId| stage.trace.event(e).task;
    let shared: Vec<ChareId> = chares[p as usize]
        .iter()
        .copied()
        .filter(|c| chares[q as usize].binary_search(c).is_ok())
        .collect();
    // 1. Initial *sources* on shared chares.
    let src_min = |part: u32| -> Option<(Time, EventId)> {
        shared
            .iter()
            .filter_map(|c| init[part as usize].get(c))
            .filter(|&&(_, _, is_src)| is_src)
            .map(|&(t, e, _)| (t, e))
            .min()
    };
    if let (Some(tp), Some(tq)) = (src_min(p), src_min(q)) {
        return if tp <= tq {
            (p, q, Some((task_of(tp.1), task_of(tq.1))))
        } else {
            (q, p, Some((task_of(tq.1), task_of(tp.1))))
        };
    }
    // 2. Earliest events per shared PE. A single fold over the
    // intersection keeps the mins paired: both are `Some` exactly when
    // at least one PE is shared, with no possibility of an unguarded
    // unwrap on an empty set.
    let shared_mins: Option<(Time, Time)> = per_pe[p as usize]
        .iter()
        .filter_map(|(pe, &tp)| per_pe[q as usize].get(pe).map(|&tq| (tp, tq)))
        .fold(None, |acc, (tp, tq)| match acc {
            None => Some((tp, tq)),
            Some((ap, aq)) => Some((ap.min(tp), aq.min(tq))),
        });
    if let Some((tp, tq)) = shared_mins {
        if tp != tq {
            return if tp < tq { (p, q, None) } else { (q, p, None) };
        }
    }
    // 3. Global earliest initial events; ties put application first.
    let all_min = |part: u32| init[part as usize].values().map(|&(t, e, _)| (t, e)).min();
    match (all_min(p), all_min(q)) {
        (Some(tp), Some(tq)) if tp != tq => {
            if tp < tq {
                (p, q, Some((task_of(tp.1), task_of(tq.1))))
            } else {
                (q, p, Some((task_of(tq.1), task_of(tp.1))))
            }
        }
        _ => {
            if !v.is_runtime[p as usize] && v.is_runtime[q as usize] {
                (p, q, None)
            } else if v.is_runtime[p as usize] && !v.is_runtime[q as usize] {
                (q, p, None)
            } else if p < q {
                (p, q, None)
            } else {
                (q, p, None)
            }
        }
    }
}

/// Algorithm 5: add happened-before edges so every partition's
/// successors cover all of its chares (property (2) of §3.1.4), walking
/// leaps from the last backwards and linking each missing chare to its
/// next appearance.
pub(crate) fn enforce_chare_paths(stage: &mut Stage<'_>) -> Result<(), ExtractError> {
    let v = stage.view();
    if v.len() == 0 {
        return Ok(());
    }
    let leaps = v.graph.leaps().map_err(|cycle| ExtractError::PhaseCycle { cycle })?;
    let chares = v.chares(stage);
    let max_leap = leaps.iter().copied().max().unwrap_or(0);
    let mut parts_at: Vec<Vec<u32>> = vec![Vec::new(); max_leap as usize + 1];
    for p in 0..v.len() as u32 {
        parts_at[leaps[p as usize] as usize].push(p);
    }
    let mut last_map: HashMap<ChareId, u32> = HashMap::new();
    let mut added = 0;
    for k in (0..=max_leap).rev() {
        let mut seen_chares: Vec<ChareId> = Vec::new();
        for &p in &parts_at[k as usize] {
            let p_chares = &chares[p as usize];
            seen_chares.extend_from_slice(p_chares);
            // Chares covered by direct successors.
            let mut covered: Vec<ChareId> = v.graph.succs[p as usize]
                .iter()
                .flat_map(|&s| chares[s as usize].iter().copied())
                .collect();
            covered.sort_unstable();
            covered.dedup();
            let mut missing: Vec<ChareId> =
                p_chares.iter().copied().filter(|c| covered.binary_search(c).is_err()).collect();
            if missing.is_empty() {
                continue;
            }
            // Leaps (beyond k) where the missing chares next appear.
            let mut found_leaps: Vec<u32> =
                missing.iter().filter_map(|c| last_map.get(c).copied()).collect();
            found_leaps.sort_unstable();
            found_leaps.dedup();
            for leap in found_leaps {
                if missing.is_empty() {
                    break;
                }
                let mut found: Vec<ChareId> = Vec::new();
                for &q in &parts_at[leap as usize] {
                    let overlap: Vec<ChareId> = missing
                        .iter()
                        .copied()
                        .filter(|c| chares[q as usize].binary_search(c).is_ok())
                        .collect();
                    if !overlap.is_empty() {
                        let (ap, aq) = (v.atoms_in[p as usize][0], v.atoms_in[q as usize][0]);
                        stage.extra_edges.push((ap, aq));
                        stage.note(ProvenanceRule::EnforcePathEdge, ap, aq);
                        added += 1;
                        found.extend(overlap);
                    }
                }
                if !found.is_empty() {
                    found.sort_unstable();
                    found.dedup();
                    missing.retain(|c| found.binary_search(c).is_err());
                }
            }
        }
        for c in seen_chares {
            last_map.insert(c, k);
        }
    }
    stage.diag.enforce_edges += added;
    Ok(())
}

/// Completes Algorithm 5's intent: "a single path through the phase
/// DAG for each chare". Alg. 5's direct-successor coverage check can be
/// satisfied by a successor that *skips* the chare's next phase (the
/// skipped phase then overlaps in steps), so every chare's phases are
/// chained explicitly in leap order. All added edges run from a
/// strictly lower leap to a higher one, so the graph stays a DAG.
pub(crate) fn chain_chare_phases(stage: &mut Stage<'_>, verify: bool) -> Result<(), ExtractError> {
    let v = stage.view();
    if v.len() == 0 {
        return Ok(());
    }
    let leaps = v.graph.leaps().map_err(|cycle| ExtractError::PhaseCycle { cycle })?;
    let chares = v.chares(stage);
    // chare → phases containing it, ordered by leap (unique per leap by
    // property 1). A BTreeMap: the chaining loop visits chares in id
    // order by construction, and its edge order reaches provenance.
    let mut by_chare: BTreeMap<ChareId, Vec<(u32, u32)>> = BTreeMap::new();
    for p in 0..v.len() as u32 {
        for &c in &chares[p as usize] {
            by_chare.entry(c).or_default().push((leaps[p as usize], p));
        }
    }
    let existing: std::collections::HashSet<(u32, u32)> = (0..v.len() as u32)
        .flat_map(|p| v.graph.succs[p as usize].iter().map(move |&s| (p, s)))
        .collect();
    let mut added = 0;
    for (c, mut list) in by_chare {
        list.sort_unstable();
        for w in list.windows(2) {
            let (p, q) = (w[0].1, w[1].1);
            // Property 1 must hold before chaining; re-checked in
            // release builds under `Config::verify_invariants`.
            debug_assert!(w[0].0 < w[1].0, "property 1 must hold before chaining");
            if verify {
                assert!(
                    w[0].0 < w[1].0,
                    "property 1 must hold before chaining: phases {p} and {q} \
                     share chare {c} at leap {}",
                    w[0].0
                );
            }
            if !existing.contains(&(p, q)) {
                let (ap, aq) = (v.atoms_in[p as usize][0], v.atoms_in[q as usize][0]);
                stage.extra_edges.push((ap, aq));
                stage.note(ProvenanceRule::EnforcePathEdge, ap, aq);
                added += 1;
            }
        }
    }
    stage.diag.enforce_edges += added;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atoms::build_atoms;
    use crate::config::Config;
    use lsr_trace::{Kind, PeId, Trace, TraceBuilder};

    fn stage_for<'t>(trace: &'t Trace, cfg: &Config) -> Stage<'t> {
        let ix = trace.index();
        let ag = build_atoms(trace, &ix, cfg);
        Stage::new(trace, ag)
    }

    /// The paper's Fig. 3 ring: every chare invokes `recvResult` on its
    /// neighbor; dependency merge then cycle merge must collapse the
    /// whole ring into a single phase.
    fn fig3_ring(n: u32) -> Trace {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("arrChares", Kind::Application);
        let cs: Vec<_> = (0..n).map(|i| b.add_chare(app, i, PeId(0))).collect();
        let serial0 = b.add_entry("serial_0", Some(0));
        let recv = b.add_entry("recvResult", Some(1));
        // Each chare spontaneously runs serial_0 and invokes its
        // neighbor's recvResult; then each runs recvResult.
        let mut msgs = Vec::new();
        let mut t = 0u64;
        for i in 0..n {
            let task = b.begin_task(cs[i as usize], serial0, PeId(0), Time(t));
            let dst = cs[((i + n - 1) % n) as usize];
            let m = b.record_send(task, Time(t + 1), dst, recv);
            b.end_task(task, Time(t + 2));
            msgs.push(m);
            t += 3;
        }
        for i in 0..n {
            // chare (i-1)%n receives from chare i.
            let dst_idx = ((i + n - 1) % n) as usize;
            let task = b.begin_task_from(cs[dst_idx], recv, PeId(0), Time(t), msgs[i as usize]);
            b.end_task(task, Time(t + 2));
            t += 3;
        }
        b.build().unwrap()
    }

    #[test]
    fn fig3_dependency_and_cycle_merge_yield_one_phase() {
        let tr = fig3_ring(4);
        let mut stage = stage_for(&tr, &Config::charm());
        dependency_merge(&mut stage);
        let v = stage.view();
        assert_eq!(v.len(), 1, "ring must collapse into a single partition");
        assert!(stage.diag.dependency_merges >= 4);
        assert!(v.graph.topo_order().is_ok());
    }

    /// Two independent chains on disjoint chares stay separate phases.
    #[test]
    fn independent_chains_stay_separate() {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let c: Vec<_> = (0..4).map(|i| b.add_chare(app, i, PeId(i % 2))).collect();
        let e = b.add_entry("go", None);
        for pair in [(0usize, 1usize), (2, 3)] {
            let base = pair.0 as u64 * 100;
            let t0 = b.begin_task(c[pair.0], e, PeId(pair.0 as u32 % 2), Time(base));
            let m = b.record_send(t0, Time(base + 1), c[pair.1], e);
            b.end_task(t0, Time(base + 2));
            let t1 = b.begin_task_from(c[pair.1], e, PeId(pair.1 as u32 % 2), Time(base + 10), m);
            b.end_task(t1, Time(base + 11));
        }
        let tr = b.build().unwrap();
        let mut stage = stage_for(&tr, &Config::charm());
        dependency_merge(&mut stage);
        assert_eq!(stage.view().len(), 2);
    }

    /// App→runtime→app split-block chain: repair merge reunites the app
    /// fragments after the dependency merge keeps them apart.
    #[test]
    fn repair_restores_same_flavor_fragments() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let rt = b.add_array("r", Kind::Runtime);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let mgr = b.add_chare(rt, 0, PeId(0));
        let e = b.add_entry("go", None);
        // c0: send app → send runtime → send app, in one block: the
        // split creates [app][rt][app] fragments.
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m1 = b.record_send(t0, Time(1), c1, e);
        let m2 = b.record_send(t0, Time(2), mgr, e);
        let m3 = b.record_send(t0, Time(3), c1, e);
        b.end_task(t0, Time(4));
        let r1 = b.begin_task_from(c1, e, PeId(0), Time(5), m1);
        b.end_task(r1, Time(6));
        let r2 = b.begin_task_from(mgr, e, PeId(0), Time(7), m2);
        b.end_task(r2, Time(8));
        let r3 = b.begin_task_from(c1, e, PeId(0), Time(9), m3);
        b.end_task(r3, Time(10));
        let tr = b.build().unwrap();
        let mut stage = stage_for(&tr, &Config::charm());
        assert_eq!(stage.ag.atoms.len(), 6, "three fragments + three sinks");
        dependency_merge(&mut stage);
        let before = stage.view().len();
        repair_merge(&mut stage);
        let after = stage.view().len();
        assert!(after < before, "repair merge must reunite app fragments");
        assert!(stage.diag.repair_merges > 0);
        // The two app fragments of t0 are in one partition now.
        let v = stage.view();
        let f = stage.ag.first_atom_of_task[0] as usize;
        let l = stage.ag.atoms.iter().rposition(|a| a.task.index() == 0).unwrap();
        assert_eq!(v.part_of_atom[f], v.part_of_atom[l]);
    }

    /// Two disconnected partitions sharing a chare end up ordered (Alg 3
    /// infers the edge from source times), not merged.
    #[test]
    fn inference_orders_disconnected_partitions_by_source_time() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let e = b.add_entry("go", None);
        // Phase A: c0 sends to c1 (t=0). Phase B: c0 sends to c1 again
        // (t=100) with no traced link between the two rounds.
        for base in [0u64, 100] {
            let t0 = b.begin_task(c0, e, PeId(0), Time(base));
            let m = b.record_send(t0, Time(base + 1), c1, e);
            b.end_task(t0, Time(base + 2));
            let t1 = b.begin_task_from(c1, e, PeId(0), Time(base + 10), m);
            b.end_task(t1, Time(base + 11));
        }
        let tr = b.build().unwrap();
        let mut stage = stage_for(&tr, &Config::charm());
        dependency_merge(&mut stage);
        assert_eq!(stage.view().len(), 2);
        infer_dependencies(&mut stage);
        assert_eq!(stage.diag.inferred_edges, 1);
        let v = stage.view();
        assert_eq!(v.len(), 2, "ordering, not merging");
        let leaps = v.graph.leaps().unwrap();
        assert_ne!(leaps[0], leaps[1], "phases now sit at different leaps");
        resolve_leap_overlaps(&mut stage, true).unwrap();
        assert_eq!(stage.view().len(), 2, "no overlap left to resolve");
    }

    /// Without any source to order by (receive-only overlap), Alg 4
    /// merges same-leap same-flavor partitions (paper Fig. 5c).
    #[test]
    fn leap_merge_unites_receive_only_overlap() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let c2 = b.add_chare(app, 2, PeId(0));
        let e = b.add_entry("go", None);
        // c0 and c2 independently send to c1; the two partitions share
        // only chare c1, whose events in both are receives.
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m0 = b.record_send(t0, Time(1), c1, e);
        b.end_task(t0, Time(2));
        let t2 = b.begin_task(c2, e, PeId(0), Time(3));
        let m2 = b.record_send(t2, Time(4), c1, e);
        b.end_task(t2, Time(5));
        let r0 = b.begin_task_from(c1, e, PeId(0), Time(10), m0);
        b.end_task(r0, Time(11));
        let r2 = b.begin_task_from(c1, e, PeId(0), Time(12), m2);
        b.end_task(r2, Time(13));
        let tr = b.build().unwrap();
        let mut stage = stage_for(&tr, &Config::charm());
        dependency_merge(&mut stage);
        assert_eq!(stage.view().len(), 2);
        // Alg 3 adds nothing: c1's initial events are receives, and c0 /
        // c2 appear in one partition each.
        infer_dependencies(&mut stage);
        assert_eq!(stage.diag.inferred_edges, 0);
        resolve_leap_overlaps(&mut stage, true).unwrap();
        assert_eq!(stage.view().len(), 1, "Fig 5c: overlapping receive-only phases merge");
        assert!(stage.diag.leap_merges > 0);
    }

    /// The same scenario with merging disabled (Fig. 17 mode) orders the
    /// two partitions in sequence instead.
    #[test]
    fn without_merge_overlaps_are_sequenced() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let c2 = b.add_chare(app, 2, PeId(0));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m0 = b.record_send(t0, Time(1), c1, e);
        b.end_task(t0, Time(2));
        let t2 = b.begin_task(c2, e, PeId(0), Time(3));
        let m2 = b.record_send(t2, Time(4), c1, e);
        b.end_task(t2, Time(5));
        let r0 = b.begin_task_from(c1, e, PeId(0), Time(10), m0);
        b.end_task(r0, Time(11));
        let r2 = b.begin_task_from(c1, e, PeId(0), Time(12), m2);
        b.end_task(r2, Time(13));
        let tr = b.build().unwrap();
        let mut stage = stage_for(&tr, &Config::charm());
        dependency_merge(&mut stage);
        resolve_leap_overlaps(&mut stage, false).unwrap();
        let v = stage.view();
        assert_eq!(v.len(), 2, "no merging in Fig 17 mode");
        let leaps = v.graph.leaps().unwrap();
        assert_ne!(leaps[0], leaps[1], "phases forced into sequence");
        assert!(stage.diag.ordering_edges > 0);
    }

    /// §3.1.4's app/runtime ordering falls back to per-processor
    /// earliest-event comparison when the overlapping chares' initial
    /// events contain no sources on either side.
    #[test]
    fn cross_flavor_overlap_ordered_by_pe_times() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let rt = b.add_array("r", Kind::Runtime);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let mgr = b.add_chare(rt, 0, PeId(0));
        let e = b.add_entry("go", None);
        // App partition: c1 sends to c0 (c0's event is a receive).
        let t0 = b.begin_task(c1, e, PeId(0), Time(0));
        let m0 = b.record_send(t0, Time(1), c0, e);
        b.end_task(t0, Time(2));
        let r0 = b.begin_task_from(c0, e, PeId(0), Time(5), m0);
        b.end_task(r0, Time(6));
        // Runtime partition later on the same PE: mgr sends to c0
        // (c0's event is again a receive; mgr's initial IS a source,
        // but c0 — the only shared chare — has receives in both).
        let tm = b.begin_task(mgr, e, PeId(0), Time(20));
        let mm = b.record_send(tm, Time(21), c0, e);
        b.end_task(tm, Time(22));
        let rm = b.begin_task_from(c0, e, PeId(0), Time(25), mm);
        b.end_task(rm, Time(26));
        let tr = b.build().unwrap();
        let ls = crate::extract(&tr, &Config::charm());
        ls.verify(&tr).expect("invariants");
        // The app phase (earliest PE0 events) must precede the runtime
        // phase in global steps.
        let app_phase = ls.phase_of(tr.tasks[0].sends[0]);
        let rt_phase = ls.phase_of(tr.tasks[2].sends[0]);
        assert_ne!(app_phase, rt_phase);
        assert!(
            ls.phases[app_phase as usize].offset < ls.phases[rt_phase as usize].offset,
            "earlier-starting app phase must come first"
        );
    }

    /// When every time comparison ties, application phases are placed
    /// before runtime phases (the deterministic final fallback).
    #[test]
    fn tie_puts_application_before_runtime() {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let rt = b.add_array("r", Kind::Runtime);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let mgr = b.add_chare(rt, 0, PeId(1));
        let e = b.add_entry("go", None);
        // Identical timings on disjoint PEs, both targeting c0.
        let t0 = b.begin_task(c1, e, PeId(0), Time(0));
        let m0 = b.record_send(t0, Time(1), c0, e);
        b.end_task(t0, Time(2));
        let tm = b.begin_task(mgr, e, PeId(1), Time(0));
        let mm = b.record_send(tm, Time(1), c0, e);
        b.end_task(tm, Time(2));
        let r0 = b.begin_task_from(c0, e, PeId(0), Time(10), m0);
        b.end_task(r0, Time(11));
        let rm = b.begin_task_from(c0, e, PeId(0), Time(12), mm);
        b.end_task(rm, Time(13));
        let tr = b.build().unwrap();
        let ls = crate::extract(&tr, &Config::charm());
        ls.verify(&tr).expect("invariants");
        let app_phase = ls.phase_of(tr.tasks[0].sends[0]);
        let rt_phase = ls.phase_of(tr.tasks[1].sends[0]);
        if app_phase != rt_phase {
            assert!(
                ls.phases[app_phase as usize].offset < ls.phases[rt_phase as usize].offset,
                "ties resolve application-first"
            );
        }
    }

    /// The neighboring-serials merge: chares of one phase immediately
    /// participating in serial n+1 across several partitions get those
    /// successor partitions merged (§3.1.3).
    #[test]
    fn neighbor_serials_merge_sibling_partitions() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let s1 = b.add_entry("_sdag_1", Some(1));
        let s2 = b.add_entry("_sdag_2", Some(2));
        // Phase A: c0 and c1 exchange in serial 1 (merged via message).
        let t0 = b.begin_task(c0, s1, PeId(0), Time(0));
        let m = b.record_send(t0, Time(1), c1, s1);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task_from(c1, s1, PeId(0), Time(5), m);
        b.end_task(t1, Time(6));
        // Then both chares run serial 2 *independently* (self-sends), so
        // the two serial-2 partitions are disconnected...
        let u0 = b.begin_task(c0, s2, PeId(0), Time(10));
        let mu0 = b.record_send(u0, Time(11), c0, s2);
        b.end_task(u0, Time(12));
        let v0 = b.begin_task_from(c0, s2, PeId(0), Time(13), mu0);
        b.end_task(v0, Time(14));
        let u1 = b.begin_task(c1, s2, PeId(0), Time(20));
        let mu1 = b.record_send(u1, Time(21), c1, s2);
        b.end_task(u1, Time(22));
        let v1 = b.begin_task_from(c1, s2, PeId(0), Time(25), mu1);
        b.end_task(v1, Time(26));
        let tr = b.build().unwrap();
        let mut stage = stage_for(&tr, &Config::charm());
        dependency_merge(&mut stage);
        let before = stage.view().len();
        neighbor_serial_merge(&mut stage);
        let after = stage.view().len();
        assert!(
            stage.diag.neighbor_serial_merges > 0 && after < before,
            "serial-2 partitions of the serial-1 group must merge ({before} -> {after})"
        );
    }

    /// Collective-entry tasks connected by messages merge into one
    /// phase; two separate collectives stay apart.
    #[test]
    fn collective_merge_fuses_instances_separately() {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("ranks", Kind::Application);
        let r0 = b.add_chare(app, 0, PeId(0));
        let r1 = b.add_chare(app, 1, PeId(1));
        let coll = b.add_collective_entry("MPI_Allreduce");
        let work = b.add_entry("MPI_Send", None);
        let mut t = 0u64;
        let collective = |b: &mut TraceBuilder, t: &mut u64| {
            let s = b.begin_task(r1, coll, PeId(1), Time(*t));
            let m = b.record_send(s, Time(*t), r0, coll);
            b.end_task(s, Time(*t + 1));
            let r = b.begin_task_from(r0, coll, PeId(0), Time(*t + 5), m);
            b.end_task(r, Time(*t + 6));
            *t += 20;
        };
        collective(&mut b, &mut t);
        // Application work between the collectives on both ranks.
        let w = b.begin_task(r0, work, PeId(0), Time(t));
        let mw = b.record_send(w, Time(t + 1), r1, work);
        b.end_task(w, Time(t + 2));
        let rw = b.begin_task_from(r1, work, PeId(1), Time(t + 6), mw);
        b.end_task(rw, Time(t + 7));
        t += 20;
        collective(&mut b, &mut t);
        let tr = b.build().unwrap();
        let ix = tr.index();
        let mut stage = stage_for(&tr, &Config::mpi());
        dependency_merge(&mut stage);
        collective_merge(&mut stage, &ix);
        assert!(stage.diag.collective_merges > 0 || stage.view().len() <= 4);
        // The two collective instances must not have merged with each
        // other: their atoms sit in different partitions.
        let v = stage.view();
        let first_coll_atom = stage.ag.first_atom_of_task[0];
        let last_task = tr.tasks.len() - 1;
        let second_coll_atom = stage.ag.first_atom_of_task[last_task];
        assert_ne!(
            v.part_of_atom[first_coll_atom as usize], v.part_of_atom[second_coll_atom as usize],
            "separate collectives stay separate phases"
        );
    }

    /// Two disconnected two-chare partitions for cycle-injection tests.
    fn two_partition_trace() -> Trace {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("a", Kind::Application);
        let c: Vec<_> = (0..4).map(|i| b.add_chare(app, i, PeId(i % 2))).collect();
        let e = b.add_entry("go", None);
        for pair in [(0usize, 1usize), (2, 3)] {
            let base = pair.0 as u64 * 100;
            let t0 = b.begin_task(c[pair.0], e, PeId(pair.0 as u32 % 2), Time(base));
            let m = b.record_send(t0, Time(base + 1), c[pair.1], e);
            b.end_task(t0, Time(base + 2));
            let t1 = b.begin_task_from(c[pair.1], e, PeId(pair.1 as u32 % 2), Time(base + 10), m);
            b.end_task(t1, Time(base + 11));
        }
        b.build().unwrap()
    }

    /// A cyclic phase graph (impossible from validated traces, whose
    /// merge stages all end in a cycle merge, but reachable from
    /// corrupted partition state) must surface as a typed
    /// `ExtractError::PhaseCycle` with the cycle as witness — from
    /// every leap-consuming pass, not the panic it used to be.
    #[test]
    fn phase_cycle_is_a_typed_error_not_a_panic() {
        let tr = two_partition_trace();
        let mut stage = stage_for(&tr, &Config::charm());
        dependency_merge(&mut stage);
        let v = stage.view();
        assert_eq!(v.len(), 2);
        let (a0, a1) = (v.atoms_in[0][0], v.atoms_in[1][0]);
        // Inject a 2-cycle between the partitions, bypassing the cycle
        // merge that every real stage would run.
        stage.extra_edges.push((a0, a1));
        stage.extra_edges.push((a1, a0));
        for err in [
            resolve_leap_overlaps(&mut stage, true).unwrap_err(),
            enforce_chare_paths(&mut stage).unwrap_err(),
            chain_chare_phases(&mut stage, false).unwrap_err(),
        ] {
            match err {
                ExtractError::PhaseCycle { mut cycle } => {
                    cycle.sort_unstable();
                    assert_eq!(cycle, vec![0, 1], "witness names both partitions");
                }
                other => panic!("expected PhaseCycle, got {other:?}"),
            }
        }
    }

    /// Alg 5: a phase whose chare is missing from its direct successors
    /// gets an edge to the next leap containing that chare (Fig. 6).
    #[test]
    fn enforce_adds_missing_chare_paths() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(0));
        let e = b.add_entry("go", None);
        // Phase X (leap 0): c0 and c1 interact. Phase Q (leap 1): c0
        // alone. Phase S (leap 2): c0 and c1 again. Alg 3 chains
        // X→Q→S through c0's partition-starting sources; c1 skips Q,
        // so property (2) needs an X→S edge (the paper's Fig. 6).
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m0 = b.record_send(t0, Time(1), c1, e);
        b.end_task(t0, Time(2));
        let r0 = b.begin_task_from(c1, e, PeId(0), Time(5), m0);
        b.end_task(r0, Time(6));
        // Q: c0 self-invocation (second partition).
        let tq = b.begin_task(c0, e, PeId(0), Time(10));
        let mq = b.record_send(tq, Time(11), c0, e);
        b.end_task(tq, Time(12));
        let rq = b.begin_task_from(c0, e, PeId(0), Time(13), mq);
        b.end_task(rq, Time(14));
        // S: c0 sends to c1 (so c0 starts S with a source at t=21).
        let ts = b.begin_task(c0, e, PeId(0), Time(20));
        let ms = b.record_send(ts, Time(21), c1, e);
        b.end_task(ts, Time(22));
        let rs = b.begin_task_from(c1, e, PeId(0), Time(25), ms);
        b.end_task(rs, Time(26));
        let tr = b.build().unwrap();
        let mut stage = stage_for(&tr, &Config::charm());
        dependency_merge(&mut stage);
        infer_dependencies(&mut stage);
        resolve_leap_overlaps(&mut stage, true).unwrap();
        let v_before = stage.view();
        let n_before = v_before.len();
        enforce_chare_paths(&mut stage).unwrap();
        let v = stage.view();
        assert_eq!(v.len(), n_before, "Alg 5 adds edges, never merges");
        // Property 2: every partition's chares are covered by successors
        // unless no later leap contains them.
        let leaps = v.graph.leaps().unwrap();
        let chares = v.chares(&stage);
        let max_leap = *leaps.iter().max().unwrap();
        for p in 0..v.len() {
            let covered: std::collections::HashSet<_> =
                v.graph.succs[p].iter().flat_map(|&s| chares[s as usize].iter().copied()).collect();
            for &c in &chares[p] {
                if covered.contains(&c) {
                    continue;
                }
                // No later leap may contain c.
                for q in 0..v.len() {
                    if leaps[q] > leaps[p] && q != p {
                        assert!(
                            !chares[q].contains(&c) || leaps[p] == max_leap,
                            "chare {c} of partition {p} skips to leap {} uncovered",
                            leaps[q]
                        );
                    }
                }
            }
        }
        assert!(stage.diag.enforce_edges > 0, "the c1 gap requires an enforce edge");
    }
}

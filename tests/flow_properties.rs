//! Property tests for the `lsr-flow` reachability oracle and its
//! clients.
//!
//! Three agreements are checked on arbitrary inputs, not just the
//! shapes the proxy apps produce:
//!
//! * the reachability core answers exactly like a DFS transitive
//!   closure, both on random DAGs ([`ReachOracle`]) and over the
//!   schedule relation of the presets and of random tape traces
//!   ([`HbIndex`]);
//! * dropping every D002-redundant edge (the transitive reduction)
//!   preserves the reachability relation of a DAG;
//! * the pipeline's iterative SCC ([`DiGraph::sccs`]) and the audit
//!   crate's Tarjan agree on the component partition of any digraph,
//!   and the shared Kahn pass ([`topo_order`]) agrees with it on which
//!   graphs are acyclic and where their cycles lie.

mod support;

use lsr::core::graph::{longest_path_levels, topo_order, DiGraph};
use lsr::flow::{FlowGraph, ReachOracle};
use lsr::lint::{HbIndex, HbMode};
use lsr::trace::{TaskId, Trace};
use proptest::prelude::*;

/// Asserts the schedule-mode index agrees with the reference closure
/// on every pair (small traces) or a deterministic sample of pairs
/// (large ones).
fn assert_matches_closure(name: &str, tr: &Trace) {
    let ix = tr.index();
    let hb = HbIndex::build_with_mode(tr, &ix, HbMode::Schedule);
    assert!(hb.cycle().is_empty(), "{name}: schedule must be acyclic");
    let closure = support::dfs_closure(&support::hb_edges(tr, &ix, HbMode::Schedule));
    let n = tr.tasks.len();
    let stride = (n / 64).max(1); // full cross-product on small traces
    for a in (0..n as u32).step_by(stride) {
        for b in (0..n as u32).step_by(stride) {
            assert_eq!(
                hb.happens_before(TaskId(a), TaskId(b)),
                closure.reaches(a, b),
                "{name}: {a} -> {b}"
            );
        }
    }
}

#[test]
fn hb_index_matches_closure_on_presets() {
    use lsr::apps::{
        bt_mpi, divcon_charm, jacobi2d, lassen_charm, lulesh_charm, lulesh_mpi, mergetree_mpi,
        pdes_charm, BtParams, DivConParams, JacobiParams, LassenParams, LuleshParams,
        MergeTreeParams, PdesParams,
    };
    let cases: Vec<(&str, Trace)> = vec![
        ("jacobi-fig8", jacobi2d(&JacobiParams::fig8())),
        ("jacobi-fig15", jacobi2d(&JacobiParams::fig15())),
        ("lulesh-charm", lulesh_charm(&LuleshParams::fig16_charm())),
        ("lulesh-mpi", lulesh_mpi(&LuleshParams::fig16_mpi())),
        ("lassen8", lassen_charm(&LassenParams::chares8())),
        ("pdes", pdes_charm(&PdesParams::fig24())),
        ("mergetree", mergetree_mpi(&MergeTreeParams::small())),
        ("bt", bt_mpi(&BtParams::fig1())),
        ("divcon", divcon_charm(&DivConParams::small())),
    ];
    for (name, tr) in cases {
        assert_matches_closure(name, &tr);
    }
}

/// A random DAG over `n` nodes: every candidate edge goes up (`u < v`),
/// picked by a byte tape.
fn dag_from_tape(n: usize, tape: &[u8]) -> Vec<(u32, u32)> {
    tape.iter()
        .enumerate()
        .map(|(i, &b)| {
            let u = (i + b as usize) % n.max(2);
            let v = u + 1 + (b as usize % (n - u).max(2));
            (u as u32, (v as u32).min(n as u32 - 1))
        })
        .filter(|&(u, v)| u < v)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The schedule-mode index agrees with the DFS closure of the
    /// schedule relation on arbitrary tape-generated workloads
    /// (unmatched messages, broadcasts, runtime chares).
    #[test]
    fn schedule_oracle_matches_hb_index_on_random_traces(
        pes in 1u32..5,
        chares in 1u32..8,
        tape in proptest::collection::vec(any::<u8>(), 0..250),
    ) {
        let tr = support::trace_from_tape(pes, chares, &tape);
        assert_matches_closure("tape", &tr);
    }

    /// The oracle agrees with a brute-force DFS closure on random DAGs.
    #[test]
    fn oracle_matches_dfs_on_random_dags(
        n in 2usize..28,
        tape in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let edges = dag_from_tape(n, &tape);
        let g = FlowGraph::from_edges(n, edges.iter().copied());
        let oracle = ReachOracle::build(&g).expect("u < v edges form a DAG");
        let closure = support::dfs_closure(&g.succs);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    oracle.strictly_reaches(u, v),
                    closure.reaches(u, v),
                    "{} -> {}", u, v
                );
            }
        }
    }

    /// Deleting every transitively implied edge (D002's predicate,
    /// minus the chare-witness refinement) leaves the reachability
    /// relation intact: the reduction is conservative by construction.
    #[test]
    fn transitive_reduction_preserves_reachability(
        n in 2usize..28,
        tape in proptest::collection::vec(any::<u8>(), 0..120),
    ) {
        let edges = dag_from_tape(n, &tape);
        let g = FlowGraph::from_edges(n, edges.iter().copied());
        let oracle = ReachOracle::build(&g).expect("u < v edges form a DAG");
        let kept: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|u| g.succs[u as usize].iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| {
                !g.succs[u as usize].iter().any(|&w| w != v && oracle.reaches(w, v))
            })
            .collect();
        let reduced = FlowGraph::from_edges(n, kept.iter().copied());
        let reduced_oracle = ReachOracle::build(&reduced).expect("subgraph of a DAG");
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(
                    oracle.strictly_reaches(u, v),
                    reduced_oracle.strictly_reaches(u, v),
                    "{} -> {} after dropping {} edge(s)",
                    u, v, g.edge_count() - kept.len()
                );
            }
        }
    }

    /// The pipeline's iterative SCC and the audit crate's Tarjan
    /// produce the same partition (up to component renaming) on
    /// arbitrary digraphs — cycles, self-loops, and multi-edges
    /// included. The shared Kahn pass, run on the raw adjacency, agrees
    /// with that partition too: it orders the graph exactly when no
    /// component is a cycle, and otherwise names a simple cycle of real
    /// edges inside one component.
    #[test]
    fn core_and_audit_sccs_agree(
        n in 1usize..24,
        raw in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..100),
    ) {
        let edges: Vec<(u32, u32)> =
            raw.iter().map(|&(a, b)| ((a as usize % n) as u32, (b as usize % n) as u32)).collect();
        let dig = DiGraph::from_edges(n, edges.iter().copied());
        let (core_comp, core_count) = dig.sccs();
        let audit_comp = lsr::audit::graph::sccs(n, &dig.succs);
        let audit_count = audit_comp.iter().map(|&c| c + 1).max().unwrap_or(0) as usize;
        prop_assert_eq!(core_count, audit_count, "component counts differ");
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    core_comp[i] == core_comp[j],
                    audit_comp[i] == audit_comp[j],
                    "partition disagrees at ({}, {})", i, j
                );
            }
        }

        let mut raw_succs = vec![Vec::new(); n];
        for &(u, v) in &edges {
            raw_succs[u as usize].push(v);
        }
        let succs = |u: u32| raw_succs[u as usize].as_slice();
        let mut comp_size = vec![0usize; n];
        for &c in &audit_comp {
            comp_size[c as usize] += 1;
        }
        let acyclic = comp_size.iter().all(|&k| k <= 1) && edges.iter().all(|&(u, v)| u != v);
        match topo_order(n, succs) {
            Ok(order) => {
                prop_assert!(acyclic, "ordered a cyclic graph");
                let mut pos = vec![usize::MAX; n];
                for (i, &v) in order.iter().enumerate() {
                    prop_assert_eq!(pos[v as usize], usize::MAX, "{} placed twice", v);
                    pos[v as usize] = i;
                }
                prop_assert_eq!(order.len(), n, "not a permutation");
                for &(u, v) in &edges {
                    prop_assert!(pos[u as usize] < pos[v as usize], "edge {} -> {} reversed", u, v);
                }
                let level = longest_path_levels(n, succs).expect("same graph orders");
                for v in 0..n as u32 {
                    let deepest = edges.iter().filter(|e| e.1 == v).map(|e| level[e.0 as usize] + 1);
                    prop_assert_eq!(level[v as usize], deepest.max().unwrap_or(0), "level of {}", v);
                }
            }
            Err(cycle) => {
                prop_assert!(!acyclic, "no order for an acyclic graph");
                prop_assert_eq!(longest_path_levels(n, succs), Err(cycle.clone()));
                prop_assert!(!cycle.is_empty(), "empty witness");
                let mut members = cycle.clone();
                members.sort_unstable();
                members.dedup();
                prop_assert_eq!(members.len(), cycle.len(), "witness {:?} is not simple", cycle);
                for (i, &u) in cycle.iter().enumerate() {
                    let v = cycle[(i + 1) % cycle.len()];
                    prop_assert!(edges.contains(&(u, v)), "{} -> {} is not an edge", u, v);
                    prop_assert_eq!(audit_comp[u as usize], audit_comp[cycle[0] as usize]);
                }
            }
        }
    }
}

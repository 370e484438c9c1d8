//! The workspace's graph core: union-find and an iterative Tarjan SCC
//! for the cycle merges, and the one Kahn pass behind every
//! topological order, longest-path level and cycle witness.
//!
//! The Kahn pass takes its adjacency as a `u32 → &[u32]` accessor, so
//! the same code serves `Vec<Vec<u32>>` lists ([`DiGraph`], the step
//! graph, the flow graph) and CSR arrays (the happened-before index).
//! `lsr-audit` keeps its own union-find, Tarjan and topological order
//! on purpose: its certificate must not share code with the pipeline
//! it checks.

/// Union-find over dense `u32` ids with path halving and union by size.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Number of distinct sets.
    count: usize,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> UnionFind {
        UnionFind { parent: (0..n as u32).collect(), size: vec![1; n], count: n }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of distinct sets.
    pub fn set_count(&self) -> usize {
        self.count
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns true if they were
    /// distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.count -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

/// Kahn's pass over nodes `0..n`, whose out-neighbors `succs(u)`
/// lists (multi-edges count once per copy; a self-loop is a cycle).
/// Returns the nodes in topological order, FIFO among the ready ones,
/// as far as one exists: on a cyclic graph the nodes on or downstream
/// of a cycle are left out, and the order is shorter than `n`.
/// `relax(u, v)` sees every edge out of a placed node, after `u` and
/// before `v` is placed.
fn kahn<'a>(
    n: usize,
    succs: impl Fn(u32) -> &'a [u32],
    mut relax: impl FnMut(u32, u32),
) -> Vec<u32> {
    let mut indeg = vec![0u32; n];
    for u in 0..n as u32 {
        for &v in succs(u) {
            indeg[v as usize] += 1;
        }
    }
    // The order doubles as the queue: `head` is the next node to place.
    let mut order = Vec::with_capacity(n);
    order.extend((0..n as u32).filter(|&v| indeg[v as usize] == 0));
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &v in succs(u) {
            relax(u, v);
            indeg[v as usize] -= 1;
            if indeg[v as usize] == 0 {
                order.push(v);
            }
        }
    }
    order
}

/// Kahn's topological order, stopping short on a cyclic graph: the
/// nodes on or downstream of a cycle are missing. For callers that
/// handle the leftovers themselves; [`topo_order`] names a cycle.
pub fn kahn_order<'a>(n: usize, succs: impl Fn(u32) -> &'a [u32]) -> Vec<u32> {
    kahn(n, succs, |_, _| {})
}

/// Kahn's topological order over nodes `0..n` with out-neighbors
/// `succs(u)`. On a cyclic graph returns `Err` with the members of one
/// cycle, in edge order, so callers can name the culprits instead of
/// reporting "cycle detected".
pub fn topo_order<'a>(n: usize, succs: impl Fn(u32) -> &'a [u32]) -> Result<Vec<u32>, Vec<u32>> {
    let order = kahn_order(n, &succs);
    if order.len() == n {
        Ok(order)
    } else {
        Err(cycle_witness(n, succs, &order))
    }
}

/// Longest-path level of every node: 0 for a root (no in-edges),
/// otherwise one past its deepest predecessor. This is the paper's
/// *leap* of a phase (§3.1.4) and the local step of an event (§3.2).
/// A cyclic graph has no levels: `Err` carries the same witness as
/// [`topo_order`].
pub fn longest_path_levels<'a>(
    n: usize,
    succs: impl Fn(u32) -> &'a [u32],
) -> Result<Vec<u32>, Vec<u32>> {
    let mut level = vec![0u32; n];
    let order = kahn(n, &succs, |u, v| {
        level[v as usize] = level[v as usize].max(level[u as usize] + 1);
    });
    if order.len() == n {
        Ok(level)
    } else {
        Err(cycle_witness(n, succs, &order))
    }
}

/// One cycle among the nodes a Kahn pass left out of `order`, in edge
/// order. Those leftovers are exactly the nodes on or downstream of a
/// cycle, so a depth-first search restricted to them, started from
/// each in id order and taking successors in list order, meets a back
/// edge; the path suffix it closes is the witness.
fn cycle_witness<'a>(n: usize, succs: impl Fn(u32) -> &'a [u32], order: &[u32]) -> Vec<u32> {
    // Colors: 0 unvisited leftover, 1 on the path, 2 done (placed by
    // Kahn, or fully explored).
    let mut color = vec![0u8; n];
    for &v in order {
        color[v as usize] = 2;
    }
    let mut stack: Vec<(u32, usize)> = Vec::new();
    let mut path: Vec<u32> = Vec::new();
    for start in 0..n as u32 {
        if color[start as usize] != 0 {
            continue;
        }
        stack.push((start, 0));
        color[start as usize] = 1;
        path.push(start);
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            let Some(&v) = succs(u).get(*next) else {
                color[u as usize] = 2;
                stack.pop();
                path.pop();
                continue;
            };
            *next += 1;
            match color[v as usize] {
                0 => {
                    color[v as usize] = 1;
                    stack.push((v, 0));
                    path.push(v);
                }
                1 => {
                    let at = path.iter().position(|&x| x == v).expect("v is on the path");
                    return path.split_off(at);
                }
                _ => {}
            }
        }
    }
    unreachable!("Kahn leftovers always contain a cycle")
}

/// A condensed directed graph over `n` nodes with adjacency lists.
/// Nodes are dense `u32`s; parallel edges are deduplicated at build.
#[derive(Debug, Clone)]
pub struct DiGraph {
    /// Out-neighbors per node, sorted and deduplicated.
    pub succs: Vec<Vec<u32>>,
}

impl DiGraph {
    /// Builds from an edge list, dropping self-loops and duplicates.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> DiGraph {
        let mut succs = vec![Vec::new(); n];
        for (u, v) in edges {
            if u != v {
                succs[u as usize].push(v);
            }
        }
        for list in &mut succs {
            list.sort_unstable();
            list.dedup();
        }
        DiGraph { succs }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// [`topo_order`] of this graph.
    pub fn topo_order(&self) -> Result<Vec<u32>, Vec<u32>> {
        topo_order(self.len(), |u| &self.succs[u as usize])
    }

    /// [`longest_path_levels`] of this graph: the paper's *leap* of
    /// each phase (§3.1.4). A cyclic graph returns `Err` with one
    /// cycle's members in edge order, which the pipeline surfaces as
    /// [`ExtractError::PhaseCycle`](crate::ExtractError::PhaseCycle)
    /// instead of panicking.
    pub fn leaps(&self) -> Result<Vec<u32>, Vec<u32>> {
        longest_path_levels(self.len(), |u| &self.succs[u as usize])
    }

    /// Strongly connected components via iterative Tarjan. Returns
    /// `(component_of_node, component_count)`; components are numbered
    /// in reverse topological order of the condensation.
    pub fn sccs(&self) -> (Vec<u32>, usize) {
        let n = self.len();
        const UNSET: u32 = u32::MAX;
        let mut index = vec![UNSET; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut comp = vec![UNSET; n];
        let mut next_index = 0u32;
        let mut comp_count = 0u32;
        // Explicit DFS stack: (node, next-successor position).
        let mut call: Vec<(u32, usize)> = Vec::new();

        for start in 0..n as u32 {
            if index[start as usize] != UNSET {
                continue;
            }
            call.push((start, 0));
            index[start as usize] = next_index;
            low[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;

            while let Some(&mut (u, ref mut pos)) = call.last_mut() {
                if *pos < self.succs[u as usize].len() {
                    let v = self.succs[u as usize][*pos];
                    *pos += 1;
                    if index[v as usize] == UNSET {
                        index[v as usize] = next_index;
                        low[v as usize] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v as usize] = true;
                        call.push((v, 0));
                    } else if on_stack[v as usize] {
                        low[u as usize] = low[u as usize].min(index[v as usize]);
                    }
                } else {
                    call.pop();
                    if let Some(&(p, _)) = call.last() {
                        low[p as usize] = low[p as usize].min(low[u as usize]);
                    }
                    if low[u as usize] == index[u as usize] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w as usize] = false;
                            comp[w as usize] = comp_count;
                            if w == u {
                                break;
                            }
                        }
                        comp_count += 1;
                    }
                }
            }
        }
        (comp, comp_count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.set_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2), "already joined");
        assert!(uf.same(0, 2));
        assert!(!uf.same(0, 3));
        assert_eq!(uf.set_count(), 3);
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_find_transitive_chain() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.set_count(), 1);
        assert!(uf.same(0, 99));
    }

    #[test]
    fn digraph_dedups_and_drops_self_loops() {
        let g = DiGraph::from_edges(3, [(0, 1), (0, 1), (1, 1), (1, 2)]);
        assert_eq!(g.succs[0], vec![1]);
        assert_eq!(g.succs[1], vec![2]);
    }

    #[test]
    fn topo_order_of_dag() {
        let g = DiGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = g.topo_order().unwrap();
        let pos: Vec<usize> =
            (0..4).map(|v| order.iter().position(|&x| x == v as u32).unwrap()).collect();
        assert!(pos[0] < pos[1] && pos[0] < pos[2] && pos[1] < pos[3] && pos[2] < pos[3]);
    }

    #[test]
    fn topo_order_detects_cycle_with_witness() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let cycle = g.topo_order().unwrap_err();
        assert_eq!(cycle.len(), 3, "all three nodes are on the cycle");
        // Edge order: each member's successor list contains the next.
        for (i, &u) in cycle.iter().enumerate() {
            let v = cycle[(i + 1) % cycle.len()];
            assert!(g.succs[u as usize].contains(&v), "{u} -> {v} must be an edge");
        }
    }

    /// A node downstream of a cycle (or feeding into one) is residual
    /// after Kahn but not on any cycle; the witness must skip it.
    #[test]
    fn cycle_witness_excludes_dangling_residuals() {
        // 3 -> {0,1,2 cycle} -> 4
        let g = DiGraph::from_edges(5, [(3, 0), (0, 1), (1, 2), (2, 0), (2, 4)]);
        let cycle = g.topo_order().unwrap_err();
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        for (i, &u) in cycle.iter().enumerate() {
            let v = cycle[(i + 1) % cycle.len()];
            assert!(g.succs[u as usize].contains(&v), "{u} -> {v} must be an edge");
        }
    }

    /// Two disjoint cycles: the witness names exactly one of them.
    #[test]
    fn cycle_witness_is_a_single_cycle() {
        let g = DiGraph::from_edges(6, [(0, 1), (1, 0), (3, 4), (4, 5), (5, 3)]);
        let cycle = g.topo_order().unwrap_err();
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        assert!(sorted == vec![0, 1] || sorted == vec![3, 4, 5], "got {sorted:?}");
    }

    #[test]
    fn leaps_are_longest_paths() {
        // 0 -> 1 -> 3, 0 -> 2 -> 3, 4 isolated
        let g = DiGraph::from_edges(5, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        assert_eq!(g.leaps().unwrap(), vec![0, 1, 1, 2, 0]);
        // diamond with a long side: 0->1->2->3 and 0->3
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]);
        assert_eq!(g.leaps().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn leaps_on_cycle_is_a_typed_witness_not_a_panic() {
        let g = DiGraph::from_edges(3, [(0, 1), (1, 2), (2, 0)]);
        let cycle = g.leaps().expect_err("cyclic graph must not yield leaps");
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn scc_finds_cycles_and_singletons() {
        // cycle {0,1,2}, chain to 3, separate cycle {4,5}
        let g = DiGraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 4)]);
        let (comp, count) = g.sccs();
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[0], comp[3]);
        assert_eq!(comp[4], comp[5]);
        assert_ne!(comp[4], comp[0]);
    }

    #[test]
    fn scc_on_dag_is_all_singletons() {
        let g = DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let (comp, count) = g.sccs();
        assert_eq!(count, 4);
        let mut seen = comp.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn scc_components_reverse_topological() {
        // 0 -> 1: component of 1 must come before component of 0 in
        // Tarjan's numbering (reverse topological).
        let g = DiGraph::from_edges(2, [(0, 1)]);
        let (comp, _) = g.sccs();
        assert!(comp[1] < comp[0]);
    }

    #[test]
    fn scc_on_large_path_does_not_overflow_stack() {
        let n = 200_000;
        let g = DiGraph::from_edges(n, (0..n as u32 - 1).map(|i| (i, i + 1)));
        let (_, count) = g.sccs();
        assert_eq!(count, n);
    }
}

//! The reachability core and the precomputed oracle built on it.
//!
//! [`Reach`] answers "does `u` strictly reach `v`?" over a DAG without
//! materializing a per-node clock or reach set. It is the one
//! reachability index of the workspace: [`ReachOracle`] wraps it for the
//! phase DAGs the flow analyses walk, and `lsr-lint`'s happened-before
//! index wraps it for task graphs (docs/hb.md). Four label families are
//! built in linear passes over a topological order:
//!
//! * **Levels** — longest-path depth from the roots. An edge `u → v`
//!   forces `level[v] > level[u]`, so `level[v] <= level[u]` is an O(1)
//!   negative answer, and a search never needs to expand a node at or
//!   above the target's level.
//! * **Spanning-forest intervals** — each node's forest parent is its
//!   deepest predecessor (the first in topological order on ties). The
//!   forest gets DFS post-order numbers `post[u]` and subtree entry
//!   counters `low[u]`, so `u`'s subtree — all of it reachable from `u` —
//!   is exactly the nodes whose post number lies in `[low[u], post[u]]`.
//!   One containment check answers every tree-covered positive query.
//! * **Reach bounds** — `[lo_bound[u], hi_bound[u]]` is the smallest
//!   interval of post numbers covering everything `u` reaches. A target
//!   outside it is an O(1) negative answer.
//! * **Pruned search** — a query the labels cannot settle runs a DFS
//!   from `u` that expands only successors which can still reach `v`:
//!   level below `v`'s and reach bound covering `v`'s post number. It
//!   stops at the first node whose subtree interval contains `v`. Short
//!   searches need no visited set; a longer one restarts with a
//!   per-thread visit bitset, cleared through the list of nodes the
//!   previous search marked, which keeps it linear in the nodes it
//!   touches.
//!
//! Space is five `u32` labels per node plus the CSR successor lists the
//! search walks — O(nodes + edges) on every graph, with no exception
//! lists, chain labels or arenas whose size depends on the shape of the
//! relation. The search's scratch is not part of the index: each
//! thread keeps one bit per node of the largest graph it has searched.

use crate::graph::FlowGraph;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The reachability core: labels plus the successor lists the pruned
/// search walks. See the module docs.
#[derive(Debug)]
pub struct Reach {
    /// Per-node labels.
    labels: Vec<Labels>,
    /// CSR successor offsets: `succ[succ_off[u]..succ_off[u + 1]]`.
    succ_off: Vec<u32>,
    /// Flattened successor lists.
    succ: Vec<u32>,
    /// Queries that fell through to the pruned search.
    searches: AtomicU64,
    /// Nodes expanded across all searches.
    visits: AtomicU64,
}

/// One node's labels, stored side by side so that a query reads one
/// cache line per node rather than one per label.
#[derive(Debug, Clone, Copy, Default)]
struct Labels {
    /// Longest-path depth from the roots.
    level: u32,
    /// Smallest post number in the forest subtree.
    low: u32,
    /// Forest post-order number; `[low, post]` is the subtree interval.
    post: u32,
    /// Smallest post number of any node reachable (or equal).
    lo_bound: u32,
    /// Largest post number of any node reachable (or equal).
    hi_bound: u32,
}

impl Labels {
    /// True when the forest subtree contains the node with post number
    /// `p`.
    fn covers(&self, p: u32) -> bool {
        self.low <= p && p <= self.post
    }

    /// True when the reach bound admits the node with post number `p`.
    fn bounds(&self, p: u32) -> bool {
        self.lo_bound <= p && p <= self.hi_bound
    }
}

/// Reusable state of the pruned search. Every set bit of `seen`
/// belongs to a node listed in `touched`, so clearing the words of the
/// touched nodes resets the set in time linear in the last search —
/// even one that unwound halfway.
#[derive(Debug, Default)]
struct Scratch {
    seen: Vec<u64>,
    touched: Vec<u32>,
    stack: Vec<u32>,
}

/// Expansions a search may make without a visited set.
const SHORT_SEARCH: usize = 16;

thread_local! {
    /// Search scratch, shared by every [`Reach`] queried on the thread:
    /// each search first clears the bits the previous one set, so the
    /// bitset grows only to the largest graph searched.
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Reach {
    /// Builds the core over CSR successor lists and a topological
    /// order of all `succ_off.len() - 1` nodes. O(nodes + edges).
    pub fn from_csr<I>(succ_off: Vec<u32>, succ: Vec<u32>, order: I) -> Reach
    where
        I: DoubleEndedIterator<Item = u32> + Clone,
    {
        let n = succ_off.len().saturating_sub(1);
        let succs =
            |u: u32| &succ[succ_off[u as usize] as usize..succ_off[u as usize + 1] as usize];
        let mut lab = vec![Labels::default(); n];

        // Levels and forest parents in one forward pass: a node's level
        // is final once every predecessor has pushed into it, and the
        // strict `>` keeps the first deepest predecessor as parent.
        let mut parent = vec![u32::MAX; n];
        for u in order.clone() {
            let next = lab[u as usize].level + 1;
            for &v in succs(u) {
                if next > lab[v as usize].level {
                    lab[v as usize].level = next;
                    parent[v as usize] = u;
                }
            }
        }

        // Subtree sizes: parents precede children in topological order,
        // so one backward pass accumulates them.
        let mut size = vec![1u32; n];
        for t in order.clone().rev() {
            let p = parent[t as usize];
            if p != u32::MAX {
                size[p as usize] += size[t as usize];
            }
        }

        // Interval allocation: node t owns [low, low + size - 1] and
        // exits last (post = the top end); its children pack disjoint
        // subranges from low upward in visit order. `size[t]` holds the
        // subtree size until t is visited, then becomes t's child
        // cursor — an implicit DFS post-order, no recursion. The reach
        // bound starts as the subtree interval.
        let mut counter = 0u32;
        for t in order.clone() {
            let ti = t as usize;
            let sz = size[ti];
            let cursor = match parent[ti] {
                u32::MAX => &mut counter,
                p => &mut size[p as usize],
            };
            let lo = *cursor;
            *cursor += sz;
            let l = &mut lab[ti];
            (l.low, l.post) = (lo, lo + sz - 1);
            (l.lo_bound, l.hi_bound) = (l.low, l.post);
            size[ti] = lo;
        }

        // Reach bounds in reverse topological order: the hull of the
        // own subtree interval and every successor's bound.
        for u in order.rev() {
            let ui = u as usize;
            let (mut lo, mut hi) = (lab[ui].lo_bound, lab[ui].hi_bound);
            for &v in succs(u) {
                lo = lo.min(lab[v as usize].lo_bound);
                hi = hi.max(lab[v as usize].hi_bound);
            }
            (lab[ui].lo_bound, lab[ui].hi_bound) = (lo, hi);
        }

        Reach {
            labels: lab,
            succ_off,
            succ,
            searches: AtomicU64::new(0),
            visits: AtomicU64::new(0),
        }
    }

    fn succs(&self, u: u32) -> &[u32] {
        &self.succ[self.succ_off[u as usize] as usize..self.succ_off[u as usize + 1] as usize]
    }

    /// Strict reachability: a non-empty path from `u` to `v` exists.
    /// Level prune, subtree containment and reach-bound prune settle
    /// most queries in O(1); the rest run the pruned search.
    pub fn reaches_strictly(&self, u: u32, v: u32) -> bool {
        let (lu, lv) = (&self.labels[u as usize], &self.labels[v as usize]);
        if lv.level <= lu.level {
            return false; // paths strictly increase the level; u == v too
        }
        if lu.covers(lv.post) {
            return true;
        }
        if !lu.bounds(lv.post) {
            return false;
        }
        let (found, expanded) = self.search(u, lv);
        self.searches.fetch_add(1, Ordering::Relaxed);
        self.visits.fetch_add(expanded, Ordering::Relaxed);
        found
    }

    /// Depth-first search from `u` for the node labelled `target`,
    /// expanding only nodes below its level whose reach bound admits
    /// it. Returns the answer and the number of nodes expanded.
    ///
    /// Most searches settle within a few expansions. Those run without
    /// a visited set: on a DAG a node reached twice is only expanded
    /// twice, never looped on, and [`SHORT_SEARCH`] bounds that waste.
    /// A search that outgrows the bound starts over with the visited
    /// set, linear in the nodes it touches.
    fn search(&self, u: u32, target: &Labels) -> (bool, u64) {
        let (pv, lv) = (target.post, target.level);
        let mut stack = [0u32; SHORT_SEARCH];
        let (mut len, mut expanded) = (1, 0u64);
        stack[0] = u;
        // Cut short exactly when nodes are left on the stack.
        'short: while len > 0 && expanded < SHORT_SEARCH as u64 {
            len -= 1;
            let x = stack[len];
            expanded += 1;
            for &y in self.succs(x) {
                let ly = &self.labels[y as usize];
                if ly.covers(pv) {
                    return (true, expanded);
                }
                if ly.level < lv && ly.bounds(pv) {
                    if len == SHORT_SEARCH {
                        break 'short;
                    }
                    stack[len] = y;
                    len += 1;
                }
            }
        }
        if len == 0 {
            return (false, expanded);
        }
        SCRATCH.with_borrow_mut(|s| {
            for &t in &s.touched {
                s.seen[t as usize / 64] = 0;
            }
            s.touched.clear();
            if s.seen.len() < self.len().div_ceil(64) {
                s.seen.resize(self.len().div_ceil(64), 0);
            }
            s.stack.clear();
            s.stack.push(u);
            while let Some(x) = s.stack.pop() {
                expanded += 1;
                for &y in self.succs(x) {
                    let (yi, bit) = (y as usize / 64, 1u64 << (y % 64));
                    if s.seen[yi] & bit != 0 {
                        continue;
                    }
                    s.touched.push(y);
                    s.seen[yi] |= bit;
                    let ly = &self.labels[y as usize];
                    if ly.covers(pv) {
                        return (true, expanded);
                    }
                    if ly.level < lv && ly.bounds(pv) {
                        s.stack.push(y);
                    }
                }
            }
            (false, expanded)
        })
    }

    /// Longest-path depth of `v` from the roots. It strictly increases
    /// along every edge, so it orders any chain of edges.
    pub fn level(&self, v: u32) -> u32 {
        self.labels[v as usize].level
    }

    /// Number of nodes indexed.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the indexed graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Queries that fell through to the pruned search so far.
    pub fn search_count(&self) -> u64 {
        self.searches.load(Ordering::Relaxed)
    }

    /// Nodes expanded by the pruned search so far.
    pub fn visit_count(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    /// Measured bytes: the five labels per node and the CSR successor
    /// lists. The per-thread search scratch is not part of the index.
    pub fn size_bytes(&self) -> usize {
        self.labels.len() * std::mem::size_of::<Labels>()
            + (self.succ_off.len() + self.succ.len()) * 4
    }

    /// Mutation hook: drop every successor of `u` outside its forest
    /// subtree, as if those edges had been lost on insertion. Labels
    /// stay as built. Returns whether any edge went. Test-only.
    #[doc(hidden)]
    pub fn corrupt_drop_edges(&mut self, u: u32) -> bool {
        let ui = u as usize;
        if ui >= self.len() {
            return false;
        }
        let (s0, s1) = (self.succ_off[ui] as usize, self.succ_off[ui + 1] as usize);
        let lu = self.labels[ui];
        let kept: Vec<u32> = self.succ[s0..s1]
            .iter()
            .copied()
            .filter(|&v| lu.covers(self.labels[v as usize].post))
            .collect();
        let removed = (s1 - s0 - kept.len()) as u32;
        if removed == 0 {
            return false;
        }
        self.succ.splice(s0..s1, kept);
        for off in &mut self.succ_off[ui + 1..] {
            *off -= removed;
        }
        true
    }

    /// Mutation hook: swap every label of two nodes. Test-only.
    #[doc(hidden)]
    pub fn corrupt_swap_labels(&mut self, a: u32, b: u32) -> bool {
        let (a, b) = (a as usize, b as usize);
        if a == b || a >= self.len() || b >= self.len() {
            return false;
        }
        self.labels.swap(a, b);
        true
    }

    /// Mutation hook: shrink `t`'s reach bound to its own subtree
    /// interval, as if its successors' bounds had never been folded in.
    /// Returns false when the bound was already that tight. Test-only.
    #[doc(hidden)]
    pub fn corrupt_stale_bound(&mut self, t: u32) -> bool {
        let Some(l) = self.labels.get_mut(t as usize) else { return false };
        if (l.lo_bound, l.hi_bound) == (l.low, l.post) {
            return false;
        }
        (l.lo_bound, l.hi_bound) = (l.low, l.post);
        true
    }
}

/// A reachability index over a [`FlowGraph`] DAG: the [`Reach`] core
/// plus a query tally. [`ReachOracle::build`] rejects cyclic graphs
/// with a witness.
#[derive(Debug)]
pub struct ReachOracle {
    core: Reach,
    /// Queries answered; flushed to `flow.oracle.queries` by callers.
    queries: AtomicU64,
}

impl ReachOracle {
    /// Builds the oracle. `Err` carries the members of one cycle, in
    /// edge order, when the graph is not a DAG.
    pub fn build(g: &FlowGraph) -> Result<ReachOracle, Vec<u32>> {
        let topo = lsr_core::graph::topo_order(g.len(), |u| &g.succs[u as usize])?;
        let mut succ_off = Vec::with_capacity(g.len() + 1);
        succ_off.push(0u32);
        let mut succ = Vec::with_capacity(g.edge_count());
        for list in &g.succs {
            succ.extend_from_slice(list);
            succ_off.push(succ.len() as u32);
        }
        Ok(ReachOracle {
            core: Reach::from_csr(succ_off, succ, topo.iter().copied()),
            queries: AtomicU64::new(0),
        })
    }

    /// Strict reachability: a non-empty path from `u` to `v` exists.
    /// Matches `HbIndex::happens_before` over the same edge set.
    pub fn strictly_reaches(&self, u: u32, v: u32) -> bool {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.core.reaches_strictly(u, v)
    }

    /// Reflexive reachability: `u == v` or [`Self::strictly_reaches`].
    pub fn reaches(&self, u: u32, v: u32) -> bool {
        u == v || self.strictly_reaches(u, v)
    }

    /// Longest-path depth of `v` from the roots.
    pub fn level(&self, v: u32) -> u32 {
        self.core.level(v)
    }

    /// Number of nodes indexed.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True when the indexed graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.core.is_empty()
    }

    /// Maximum number of nodes sharing one level — the DAG's level
    /// width (≥ 2 means the structure exposes parallelism).
    pub fn max_width(&self) -> usize {
        let levels = self.core.labels.iter().map(|l| l.level as usize);
        let mut per = vec![0usize; levels.clone().max().map_or(0, |l| l + 1)];
        for l in levels {
            per[l] += 1;
        }
        per.into_iter().max().unwrap_or(0)
    }

    /// Queries answered so far (relaxed tally; see `flow.oracle.queries`).
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Queries the labels could not settle, answered by the pruned
    /// search (see `flow.oracle.searches`).
    pub fn search_count(&self) -> u64 {
        self.core.search_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute(n: usize, g: &FlowGraph) -> Vec<Vec<bool>> {
        let mut r = vec![vec![false; n]; n];
        for (u, vs) in g.succs.iter().enumerate() {
            for &v in vs {
                r[u][v as usize] = true;
            }
        }
        for k in 0..n {
            let rk = r[k].clone();
            for ri in &mut r {
                if ri[k] {
                    for (dst, &src) in ri.iter_mut().zip(&rk) {
                        *dst |= src;
                    }
                }
            }
        }
        r
    }

    fn assert_matches_brute(n: usize, g: &FlowGraph) -> ReachOracle {
        let o = ReachOracle::build(g).unwrap();
        let r = brute(n, g);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                assert_eq!(o.strictly_reaches(u, v), r[u as usize][v as usize], "reach({u},{v})");
            }
        }
        o
    }

    /// Two forest trees, 0 → 1 → {2, 5} and 3 → 4, joined by the
    /// non-tree edges 3 → 2 and 4 → 5.
    fn two_joined_trees() -> FlowGraph {
        FlowGraph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (1, 5), (3, 2)])
    }

    #[test]
    fn matches_brute_force_on_diamond_with_tail() {
        let g = FlowGraph::from_edges(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let o = assert_matches_brute(6, &g);
        assert!(o.reaches(5, 5), "reflexive on the isolated node");
        assert!(o.query_count() > 0);
        assert_eq!(o.level(3), 2);
        assert_eq!(o.len(), 6);
        assert!(o.max_width() >= 2);
    }

    #[test]
    fn non_tree_reach_goes_through_the_search() {
        // 3 reaches 5 only through the non-tree edge 4 → 5, and its
        // reach bound also admits 1, which it does not reach: both
        // answers come from the search.
        let o = assert_matches_brute(6, &two_joined_trees());
        assert!(o.strictly_reaches(3, 5));
        assert!(!o.strictly_reaches(3, 1));
        assert!(o.search_count() > 0, "some query must need the search");
    }

    #[test]
    fn long_searches_restart_with_the_visited_set() {
        // A seeded sparse random DAG whose searches outgrow the short
        // budget, then a small graph on the same thread: the bitset the
        // long searches left behind must not leak into its answers.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let n = 300u32;
        let edges: Vec<(u32, u32)> = (0..n)
            .flat_map(|u| (0..3).map(move |k| (u, k)))
            .filter_map(|(u, _)| {
                let v = u + 1 + (rand() % 40) as u32;
                (v < n).then_some((u, v))
            })
            .collect();
        let g = FlowGraph::from_edges(n as usize, edges);
        let o = ReachOracle::build(&g).unwrap();
        let r = brute(n as usize, &g);
        let mut longest = 0;
        for u in 0..n {
            for v in 0..n {
                let before = o.core.visit_count();
                assert_eq!(o.strictly_reaches(u, v), r[u as usize][v as usize], "reach({u},{v})");
                longest = longest.max(o.core.visit_count() - before);
            }
        }
        assert!(longest > SHORT_SEARCH as u64, "no search outgrew the budget: {longest}");
        assert_matches_brute(6, &two_joined_trees());
    }

    #[test]
    fn cyclic_graph_reports_witness() {
        let g = FlowGraph::from_edges(4, [(0, 1), (1, 2), (2, 1), (2, 3)]);
        let cycle = ReachOracle::build(&g).unwrap_err();
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = FlowGraph::from_edges(0, []);
        let o = ReachOracle::build(&g).unwrap();
        assert!(o.is_empty());
        assert_eq!(o.max_width(), 0);
        assert_eq!(o.search_count(), 0);
    }

    #[test]
    fn each_corruption_changes_an_answer() {
        let core = || ReachOracle::build(&two_joined_trees()).unwrap().core;
        let mut r = core();
        assert!(r.reaches_strictly(3, 5));
        assert!(!r.corrupt_drop_edges(1), "tree edges are never dropped");
        assert!(r.corrupt_drop_edges(4));
        assert!(!r.reaches_strictly(3, 5), "the dropped edge was the only path");

        let mut r = core();
        assert!(r.corrupt_stale_bound(3));
        assert!(!r.reaches_strictly(3, 5), "a stale bound prunes the true path");
        assert!(!r.corrupt_stale_bound(5), "a sink's bound is its own interval");

        let mut r = core();
        assert!(!r.reaches_strictly(3, 1));
        assert!(r.corrupt_swap_labels(0, 3));
        assert!(!r.corrupt_swap_labels(2, 2));
        assert!(r.reaches_strictly(3, 1), "3 now carries 0's subtree interval");
    }
}

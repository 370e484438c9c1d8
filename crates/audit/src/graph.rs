//! The auditor's own graph machinery: a union-find carrying a sorted
//! entry-type set per group, a Tarjan SCC pass, and a Pearce–Kelly
//! incremental topological order. Deliberately re-implemented here —
//! the point of a certificate checker is to share no data structures
//! with the producer it audits (`lsr-core` has its own union-find and
//! DAG code; a bug there must not validate itself).

/// Union-find over dense `u32` ids with path halving and union by
/// size. Every element carries one label (the certificate check uses
/// the task's entry-type id) and every root keeps the sorted set of
/// its group's labels, merged small-to-large on union, so "does this
/// group hold a task of entry type E?" is a binary search.
pub(crate) struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Element → its own label.
    label: Vec<u32>,
    /// Root → sorted, deduplicated labels of its group (valid only at
    /// the root; a merged set moves to the surviving root). Empty for a
    /// root never joined: its set is its own label.
    sets: Vec<Vec<u32>>,
}

impl UnionFind {
    /// One singleton group per label, element `i` labelled `labels[i]`.
    pub fn new(labels: impl IntoIterator<Item = u32>) -> UnionFind {
        let label: Vec<u32> = labels.into_iter().collect();
        let n = label.len();
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            label,
            sets: vec![Vec::new(); n],
        }
    }

    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Unions the groups of `a` and `b`; false when already joined.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        // Small-to-large by set length, independent of which root
        // survives: each absent label of the shorter set is inserted
        // into the longer one.
        let mut into = self.take_set(big);
        let mut from = self.take_set(small);
        if into.len() < from.len() {
            std::mem::swap(&mut into, &mut from);
        }
        for l in from {
            if let Err(at) = into.binary_search(&l) {
                into.insert(at, l);
            }
        }
        self.sets[big as usize] = into;
        true
    }

    /// Moves a root's label set out, materializing a singleton's.
    fn take_set(&mut self, root: u32) -> Vec<u32> {
        match std::mem::take(&mut self.sets[root as usize]) {
            set if set.is_empty() => vec![self.label[root as usize]],
            set => set,
        }
    }

    /// The label of element `x` itself.
    pub fn label(&self, x: u32) -> u32 {
        self.label[x as usize]
    }

    /// The sorted label set of the group containing `x`. Walks to the
    /// root without compressing, so two sets can be borrowed at once;
    /// union by size bounds the walk by log₂ of the group size.
    pub fn labels(&self, mut x: u32) -> &[u32] {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        match &self.sets[x as usize] {
            set if set.is_empty() => std::slice::from_ref(&self.label[x as usize]),
            set => set,
        }
    }
}

/// Tarjan's strongly connected components over an adjacency list,
/// iterative (certificate graphs can be deep). Returns a component id
/// per node; ids are otherwise meaningless.
///
/// `pub` (though hidden from the docs) so differential tests can pit
/// it against `lsr_core::graph::DiGraph::sccs` — the two
/// implementations must agree while sharing no code.
pub fn sccs(n: usize, succs: &[Vec<u32>]) -> Vec<u32> {
    const UNSEEN: u32 = u32::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comp = vec![UNSEEN; n];
    let mut next_index = 0u32;
    let mut next_comp = 0u32;
    // Explicit DFS frames: (node, next child position).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in 0..n as u32 {
        if index[start as usize] != UNSEEN {
            continue;
        }
        frames.push((start, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                index[v as usize] = next_index;
                low[v as usize] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v as usize] = true;
            }
            if let Some(&w) = succs[v as usize].get(*child) {
                *child += 1;
                if index[w as usize] == UNSEEN {
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                if low[v as usize] == index[v as usize] {
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
                frames.pop();
                if let Some(&mut (u, _)) = frames.last_mut() {
                    low[u as usize] = low[u as usize].min(low[v as usize]);
                }
            }
        }
    }
    comp
}

/// Incremental topological order (Pearce & Kelly, "A dynamic
/// topological sort algorithm for directed acyclic graphs", JEA 2007):
/// maintains a total order `ord` over a fixed node set while edges are
/// inserted one at a time; an insertion that would close a cycle is
/// reported instead of applied. Per insertion only the *affected
/// region* — nodes ordered between the edge's endpoints — is visited.
pub(crate) struct IncrementalDag {
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    /// Node → position in the maintained topological order.
    ord: Vec<u32>,
}

impl IncrementalDag {
    pub fn new(n: usize) -> IncrementalDag {
        IncrementalDag {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            ord: (0..n as u32).collect(),
        }
    }

    /// Inserts `u → v`. Returns false — and leaves the graph
    /// unchanged — when the edge would create a cycle.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> bool {
        if u == v {
            return false;
        }
        let (lb, ub) = (self.ord[v as usize], self.ord[u as usize]);
        if lb < ub {
            // Affected region [lb, ub]: forward from v, backward from u.
            let mut delta_f: Vec<u32> = Vec::new();
            if !self.dfs_forward(v, ub, &mut delta_f) {
                return false; // reached u: cycle
            }
            let mut delta_b: Vec<u32> = Vec::new();
            self.dfs_backward(u, lb, &mut delta_b);
            self.reorder(delta_f, delta_b);
        }
        self.succs[u as usize].push(v);
        self.preds[v as usize].push(u);
        true
    }

    /// Forward DFS from `v` over nodes with ord ≤ `ub`; false when the
    /// node at position `ub` (the edge source) is reached.
    fn dfs_forward(&self, v: u32, ub: u32, out: &mut Vec<u32>) -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![v];
        seen.insert(v);
        while let Some(x) = stack.pop() {
            if self.ord[x as usize] == ub {
                return false;
            }
            out.push(x);
            for &w in &self.succs[x as usize] {
                if self.ord[w as usize] <= ub && seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        true
    }

    fn dfs_backward(&self, u: u32, lb: u32, out: &mut Vec<u32>) {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![u];
        seen.insert(u);
        while let Some(x) = stack.pop() {
            out.push(x);
            for &w in &self.preds[x as usize] {
                if self.ord[w as usize] >= lb && seen.insert(w) {
                    stack.push(w);
                }
            }
        }
    }

    /// Re-packs the affected nodes into their old position slots so
    /// every `delta_b` (ancestors of u) node precedes every `delta_f`
    /// (descendants of v) node, preserving relative order within each.
    fn reorder(&mut self, delta_f: Vec<u32>, delta_b: Vec<u32>) {
        let mut slots: Vec<u32> =
            delta_b.iter().chain(delta_f.iter()).map(|&x| self.ord[x as usize]).collect();
        slots.sort_unstable();
        let mut b_sorted = delta_b;
        b_sorted.sort_unstable_by_key(|&x| self.ord[x as usize]);
        let mut f_sorted = delta_f;
        f_sorted.sort_unstable_by_key(|&x| self.ord[x as usize]);
        for (slot, node) in slots.into_iter().zip(b_sorted.into_iter().chain(f_sorted)) {
            self.ord[node as usize] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::UnionFind;

    /// SplitMix64: a dependency-free deterministic generator.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// After every union, each group's label set equals the sorted,
    /// deduplicated labels of all elements sharing its root, found by
    /// brute force.
    #[test]
    fn label_sets_match_brute_force_after_every_union() {
        for seed in 0..64u64 {
            let mut rng = seed;
            let n = 1 + (next(&mut rng) % 40) as usize;
            let nlabels = 1 + next(&mut rng) % 8;
            let labels: Vec<u32> = (0..n).map(|_| (next(&mut rng) % nlabels) as u32).collect();
            let mut uf = UnionFind::new(labels.iter().copied());
            for _ in 0..2 * n {
                let a = (next(&mut rng) % n as u64) as u32;
                let b = (next(&mut rng) % n as u64) as u32;
                let joined = uf.find(a) != uf.find(b);
                assert_eq!(uf.union(a, b), joined, "seed {seed}: union reports a fresh join");
                let roots: Vec<u32> = (0..n as u32).map(|x| uf.find(x)).collect();
                for x in 0..n as u32 {
                    let mut want: Vec<u32> = (0..n)
                        .filter(|&y| roots[y] == roots[x as usize])
                        .map(|y| labels[y])
                        .collect();
                    want.sort_unstable();
                    want.dedup();
                    assert_eq!(uf.labels(x), &want[..], "seed {seed}: group of {x}");
                }
            }
        }
    }
}

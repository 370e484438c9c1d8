//! The worklist fixpoint solver.
//!
//! An [`Analysis`] names a fact lattice, a direction, and a transfer
//! function; [`solve`] iterates transfer over the graph until nothing
//! changes. Facts only grow (joins) and transfer is monotone, so on
//! finite-height lattices the loop terminates at the least fixpoint.
//! On DAGs the initial pass is seeded in topological order of the
//! chosen direction, making one sweep sufficient in the common case.

use crate::graph::FlowGraph;
use crate::lattice::JoinSemiLattice;
use std::collections::VecDeque;

/// Which way facts propagate along edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from predecessors into successors.
    Forward,
    /// Facts flow from successors into predecessors.
    Backward,
}

/// A monotone dataflow problem over a [`FlowGraph`].
pub trait Analysis {
    /// The lattice the facts live in. Equality is how the solver
    /// detects that a recomputed output is a genuine change — transfer
    /// outputs are *replaced*, not joined, so non-union lattices
    /// (e.g. dominators, whose join is intersection) stay correct.
    type Fact: JoinSemiLattice + PartialEq;

    /// Direction facts propagate.
    fn direction(&self) -> Direction;

    /// Initial input fact at `node`, before any neighbor contributes.
    /// Boundary nodes (roots for forward, sinks for backward) keep
    /// exactly this as their input.
    fn init(&self, node: u32) -> Self::Fact;

    /// Output fact of `node` given its (joined) input fact. Must be
    /// monotone in `input`.
    fn transfer(&self, node: u32, input: &Self::Fact) -> Self::Fact;
}

/// The least fixpoint of an [`Analysis`].
#[derive(Debug, Clone)]
pub struct Solution<F> {
    /// Input fact per node: `init(v)` joined with every neighbor's
    /// output.
    pub inputs: Vec<F>,
    /// Output fact per node: `transfer(v, inputs[v])`.
    pub outputs: Vec<F>,
    /// Worklist pops until convergence (the solver's cost witness,
    /// exported to the `flow.solver.iterations` counter).
    pub iterations: u64,
}

/// Runs `analysis` to its least fixpoint over `g`.
pub fn solve<A: Analysis>(g: &FlowGraph, analysis: &A) -> Solution<A::Fact> {
    let n = g.len();
    let into: &[Vec<u32>] = match analysis.direction() {
        Direction::Forward => &g.succs,
        Direction::Backward => &g.preds,
    };
    let mut inputs: Vec<A::Fact> = (0..n as u32).map(|v| analysis.init(v)).collect();
    let mut outputs: Vec<A::Fact> =
        inputs.iter().enumerate().map(|(v, f)| analysis.transfer(v as u32, f)).collect();

    // Seed in topological order of the propagation direction (the
    // shared Kahn pass); on a DAG every node is then popped exactly
    // once. Cycle leftovers are appended in id order — the worklist
    // still converges, it just revisits.
    let mut order = lsr_core::graph::kahn_order(n, |u| &into[u as usize]);
    if order.len() < n {
        let mut seen = vec![false; n];
        for &v in &order {
            seen[v as usize] = true;
        }
        order.extend((0..n as u32).filter(|&v| !seen[v as usize]));
    }
    let mut queue: VecDeque<u32> = order.into();
    let mut queued = vec![true; n];
    let mut iterations = 0u64;

    while let Some(u) = queue.pop_front() {
        queued[u as usize] = false;
        iterations += 1;
        // Propagate u's output into each downstream node's input. The
        // recomputed output replaces the old one: inputs only move up
        // the lattice and transfer is monotone, so the sequence of
        // outputs is itself monotone — joining here instead would pin
        // intersection-style lattices to their seeded value.
        for &v in &into[u as usize] {
            if inputs[v as usize].join(&outputs[u as usize]) {
                let out = analysis.transfer(v, &inputs[v as usize]);
                if out != outputs[v as usize] {
                    outputs[v as usize] = out;
                    if !queued[v as usize] {
                        queued[v as usize] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
    }
    Solution { inputs, outputs, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::MaxU64;

    /// Longest path by node weights, forward.
    struct Longest<'a> {
        weights: &'a [u64],
    }
    impl Analysis for Longest<'_> {
        type Fact = MaxU64;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn init(&self, _node: u32) -> MaxU64 {
            MaxU64(0)
        }
        fn transfer(&self, node: u32, input: &MaxU64) -> MaxU64 {
            MaxU64(input.0 + self.weights[node as usize])
        }
    }

    #[test]
    fn forward_longest_path_on_diamond() {
        // 0 -> {1,2} -> 3, weights 1, 5, 2, 1
        let g = FlowGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let sol = solve(&g, &Longest { weights: &[1, 5, 2, 1] });
        assert_eq!(sol.inputs[3].0, 6, "heavier arm wins");
        assert_eq!(sol.outputs[3].0, 7);
        assert_eq!(sol.inputs[0].0, 0);
        assert!(sol.iterations >= 4);
    }

    #[test]
    fn backward_is_forward_on_reverse() {
        struct Back<'a> {
            weights: &'a [u64],
        }
        impl Analysis for Back<'_> {
            type Fact = MaxU64;
            fn direction(&self) -> Direction {
                Direction::Backward
            }
            fn init(&self, _node: u32) -> MaxU64 {
                MaxU64(0)
            }
            fn transfer(&self, node: u32, input: &MaxU64) -> MaxU64 {
                MaxU64(input.0 + self.weights[node as usize])
            }
        }
        let g = FlowGraph::from_edges(3, [(0, 1), (1, 2)]);
        let sol = solve(&g, &Back { weights: &[1, 1, 1] });
        assert_eq!(sol.outputs[0].0, 3, "chain accumulates from the sink");
        assert_eq!(sol.outputs[2].0, 1);
    }
}

//! `lsr-flow` — a monotone dataflow framework and reachability oracle
//! over recovered logical structure.
//!
//! The extraction pipeline (`lsr-core`) recovers a phase DAG from an
//! event trace; the lint and metrics layers then ask structural
//! questions of it — "does this phase gate that one?", "is this edge
//! implied?", "does the critical path respect the recovered order?".
//! This crate gives those questions a shared engine:
//!
//! * [`lattice`] / [`solver`] — a generic worklist fixpoint solver:
//!   implement [`Analysis`] (a fact lattice, a direction, a monotone
//!   transfer function) and [`solve`] returns its least fixpoint over
//!   a [`FlowGraph`], forward or backward.
//! * [`reach`] — the workspace's one reachability core, [`Reach`]:
//!   topological levels, spanning-forest intervals and reach bounds
//!   settle most queries in O(1), and a search pruned by those bounds
//!   settles the rest, in O(nodes + edges) space and without
//!   materializing a per-node clock. [`ReachOracle`] wraps it for
//!   phase DAGs; `lsr-lint`'s happened-before index for task graphs.
//! * [`analyses`] — the D-family clients (`lsr lint` codes
//!   `D001`–`D004`, surfaced by `lsr analyze`): serialization
//!   bottlenecks via dominators/post-dominators, redundant dependence
//!   edges, orphan phases, and slack / critical-path disagreement.
//!
//! The crate deliberately knows nothing about diagnostics rendering:
//! [`analyze`] returns typed [`Finding`]s that `lsr-lint` maps onto
//! its `Diagnostic` machinery, keeping the framework reusable from
//! audit and bench code without a lint dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyses;
pub mod graph;
pub mod lattice;
pub mod reach;
pub mod solver;

pub use analyses::{
    analyze, AnalyzeOptions, AnalyzeReport, Finding, GateSide, DEFAULT_FINDING_LIMIT,
};
pub use graph::FlowGraph;
pub use lattice::{BitSet, JoinSemiLattice, MaxU64};
pub use reach::{Reach, ReachOracle};
pub use solver::{solve, Analysis, Direction, Solution};

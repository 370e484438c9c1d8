//! Seeded scenario fuzzing for the structure-recovery pipeline.
//!
//! The paper's evaluation (and this repo's preset corpus in
//! `lsr-apps`) covers a handful of fixed application skeletons. The
//! fuzzer generalizes that corpus: it composes communication *motifs*
//! — halo exchange, wavefront sweep, tree reduction/broadcast,
//! all-to-all, work stealing, and mid-phase chare migration — into
//! novel multi-phase programs, emits every composition through both
//! runtime backends (`lsr-charm` and `lsr-mpi`), and pushes each
//! generated trace through a differential oracle stack that needs no
//! golden data:
//!
//! 1. extraction must succeed ([`lsr_core::try_extract`]);
//! 2. the recovered structure must conform to the skeleton model the
//!    motifs declared ([`lsr_model::conforms`]);
//! 3. the extraction certificate must replay clean
//!    ([`lsr_audit::audit_extract`]).
//!
//! Generation is byte-deterministic: the same `(seed, id, params)`
//! always produces the same scenario and — because both simulators are
//! themselves seeded discrete-event machines — the same logfmt bytes.
//! That makes every failure a committed-reproducer candidate: the CLI
//! (`lsr fuzz`) hands failing traces to the ddmin minimizer
//! (`lsr_audit::shrink_log`) keyed by the diagnostic that fired.

mod charm_emit;
mod harness;
mod motif;
mod mpi_emit;
mod scenario;

pub use charm_emit::emit_charm;
pub use harness::{
    check_trace, emit, fuzz_scenario, run_fuzz, Backend, Failure, FuzzOutcome, FuzzParams,
};
pub use motif::Motif;
pub use mpi_emit::emit_mpi;
pub use scenario::Scenario;

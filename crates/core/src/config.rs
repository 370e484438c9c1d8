//! Configuration of the logical-structure extraction pipeline.

/// Which trace model the ordering algorithm assumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceModel {
    /// Task-based model (Charm++): serial blocks contain one sink and
    /// many sources; blocks are freely reorderable within a chare lane.
    TaskBased,
    /// Message-passing model (§3.2.1 "Reordering for message-passing
    /// models"): each block holds a single send or receive event; sends
    /// keep their positions (`w_send = 1 + max w_recv`), receives may be
    /// reordered around them.
    MessagePassing,
}

/// How events are ordered within each chare lane of a phase (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// Keep recorded physical-time order (the baseline; what Isaacs et
    /// al. 2014 effectively does for MPI).
    PhysicalTime,
    /// Idealized forward replay: reorder serial blocks by the `w` clock
    /// to undo non-deterministic scheduling.
    Reordered,
}

/// How `w`-clock ties between serial blocks are broken (§3.2.1).
///
/// The paper tie-breaks by the invoking chare's id and notes that
/// "prior knowledge of the simulation could improve the ordering. For
/// example, if the chares represent neighbors in 3D space, an ordering
/// that takes this data topology into account will likely be more
/// intuitive than tie-breaking by chare ID."
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TieBreak {
    /// The paper's default: the invoking chare's id.
    ChareId,
    /// Domain knowledge: a caller-supplied rank per chare (indexed by
    /// `ChareId`), e.g. a space-filling-curve position of the chare's
    /// sub-domain. Chares beyond the vector fall back to their id.
    Topology(std::sync::Arc<Vec<u64>>),
}

impl TieBreak {
    /// The sort key for an invoking chare.
    #[inline]
    pub(crate) fn key(&self, chare: lsr_trace::ChareId) -> u64 {
        match self {
            TieBreak::ChareId => chare.0 as u64,
            TieBreak::Topology(ranks) => {
                ranks.get(chare.index()).copied().unwrap_or(chare.0 as u64)
            }
        }
    }
}

/// Pipeline flags. The defaults run the paper's full algorithm; each
/// flag disables one ingredient for the ablation experiments.
#[derive(Debug, Clone)]
pub struct Config {
    /// Trace model (affects `w`-clock rules and block reordering).
    pub model: TraceModel,
    /// Ordering policy within phases.
    pub ordering: OrderingPolicy,
    /// §3.1.1/3.1.3: split serial blocks at application/runtime
    /// boundaries into separate initial partitions (and repair later).
    pub split_app_runtime: bool,
    /// §2.1: infer happened-before edges between consecutive SDAG
    /// serial numbers, and absorb entry methods into a directly
    /// following serial.
    pub sdag_inference: bool,
    /// §3.1.4: infer missing dependencies from partition-initial source
    /// times, merge overlapping same-leap partitions, order app/runtime
    /// partitions, and enforce the chare-path DAG properties. Disabling
    /// this reproduces Fig. 17.
    pub infer_dependencies: bool,
    /// §3.2.1: how `w` ties between serial blocks are broken.
    pub tiebreak: TieBreak,
    /// §3.4: in the message-passing model, assume per-process physical
    /// order carries control dependencies (Isaacs'14). The paper notes
    /// the assumption "is not always true, e.g., Figure 10" — the
    /// merge-tree analysis turns it off. Ignored for task-based traces.
    pub mp_process_order: bool,
    /// Re-check the DESIGN §7 invariants in release builds: promotes
    /// the pipeline's internal `debug_assert!`s to real assertions and
    /// verifies the final structure with
    /// [`StructureVerifier`](crate::StructureVerifier), panicking on
    /// any violation. Off by default (the checks cost a few percent;
    /// see the Fig. 19 bench's `verify` column).
    pub verify_invariants: bool,
    /// Observability handle (DESIGN §7.8): the pipeline opens a span
    /// per stage and flushes the [`Diagnostics`](crate::Diagnostics)
    /// counters through it. Disabled by default, where every recording
    /// call is a single branch; purely observational either way — an
    /// enabled recorder changes no extraction output (the differential
    /// property in `tests/obs_properties.rs`).
    pub recorder: lsr_obs::Recorder,
}

impl Config {
    /// The paper's full algorithm for task-based (Charm++) traces.
    pub fn charm() -> Config {
        Config {
            model: TraceModel::TaskBased,
            ordering: OrderingPolicy::Reordered,
            split_app_runtime: true,
            sdag_inference: true,
            infer_dependencies: true,
            tiebreak: TieBreak::ChareId,
            mp_process_order: true,
            verify_invariants: false,
            recorder: lsr_obs::Recorder::disabled(),
        }
    }

    /// The paper's algorithm for message-passing traces (used on the
    /// MPI proxies and the merge-tree case study).
    pub fn mpi() -> Config {
        Config { model: TraceModel::MessagePassing, ..Config::charm() }
    }

    /// The message-passing baseline: stepping without reordering, as in
    /// Isaacs et al. 2014 (Fig. 10a).
    pub fn mpi_baseline() -> Config {
        Config { ordering: OrderingPolicy::PhysicalTime, ..Config::mpi() }
    }

    /// Sets the ordering policy.
    pub fn with_ordering(mut self, ordering: OrderingPolicy) -> Config {
        self.ordering = ordering;
        self
    }

    /// Enables/disables §3.1.4 inference (Fig. 17 ablation).
    pub fn with_inference(mut self, on: bool) -> Config {
        self.infer_dependencies = on;
        self
    }

    /// Enables/disables the app/runtime serial-block split.
    pub fn with_split(mut self, on: bool) -> Config {
        self.split_app_runtime = on;
        self
    }

    /// Enables/disables SDAG heuristics.
    pub fn with_sdag(mut self, on: bool) -> Config {
        self.sdag_inference = on;
        self
    }

    /// Ignored: extraction is serial (DESIGN §7.12). Kept only because
    /// the pinned `lsr_benchmark` still calls it for its `extract_t2`
    /// axis; it goes away with the benchmark refresh (ROADMAP item 6).
    #[doc(hidden)]
    pub fn with_threads(self, _n: usize) -> Config {
        self
    }

    /// Enables/disables the §3.4 per-process control-order assumption
    /// for message-passing traces.
    pub fn with_process_order(mut self, on: bool) -> Config {
        self.mp_process_order = on;
        self
    }

    /// Enables/disables release-mode invariant verification during
    /// extraction (promoted `debug_assert!`s plus a final
    /// [`StructureVerifier`](crate::StructureVerifier) pass).
    pub fn with_verify(mut self, on: bool) -> Config {
        self.verify_invariants = on;
        self
    }

    /// Supplies a per-chare topology rank for tie-breaking (§3.2.1's
    /// "prior knowledge of the simulation" suggestion).
    pub fn with_topology(mut self, ranks: Vec<u64>) -> Config {
        self.tiebreak = TieBreak::Topology(std::sync::Arc::new(ranks));
        self
    }

    /// Attaches an observability recorder; the pipeline reports its
    /// stage spans and counters through it.
    pub fn with_recorder(mut self, recorder: lsr_obs::Recorder) -> Config {
        self.recorder = recorder;
        self
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::charm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_model_only_where_expected() {
        let c = Config::charm();
        let m = Config::mpi();
        assert_eq!(c.model, TraceModel::TaskBased);
        assert_eq!(m.model, TraceModel::MessagePassing);
        assert_eq!(c.ordering, OrderingPolicy::Reordered);
        assert_eq!(m.ordering, OrderingPolicy::Reordered);
        assert_eq!(Config::mpi_baseline().ordering, OrderingPolicy::PhysicalTime);
    }

    #[test]
    fn topology_tiebreak_ranks_and_falls_back() {
        let tb = TieBreak::Topology(std::sync::Arc::new(vec![30, 10, 20]));
        assert_eq!(tb.key(lsr_trace::ChareId(0)), 30);
        assert_eq!(tb.key(lsr_trace::ChareId(1)), 10);
        assert_eq!(tb.key(lsr_trace::ChareId(5)), 5, "out of range falls back to id");
        assert_eq!(TieBreak::ChareId.key(lsr_trace::ChareId(7)), 7);
        let cfg = Config::charm().with_topology(vec![1, 2]);
        assert!(matches!(cfg.tiebreak, TieBreak::Topology(_)));
    }

    #[test]
    fn with_methods_flip_flags() {
        let c = Config::charm()
            .with_inference(false)
            .with_split(false)
            .with_sdag(false)
            .with_ordering(OrderingPolicy::PhysicalTime);
        assert!(!c.infer_dependencies && !c.split_app_runtime && !c.sdag_inference);
        assert_eq!(c.ordering, OrderingPolicy::PhysicalTime);
    }
}

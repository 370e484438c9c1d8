//! Comparing two runs' logical structures.
//!
//! The structures the pipeline recovers are schedule-independent, which
//! makes them a stable basis for *run-to-run comparison*: same program,
//! different machine/day/input. [`StructureDiff`] lines up two runs
//! phase-by-phase (in offset order) and reports where the shapes or the
//! costs diverge — the "did my optimization change the structure or
//! just the timing?" question.

use crate::imbalance::Imbalance;
use crate::profile::{phase_profiles, PhaseProfile};
use lsr_core::LogicalStructure;
use lsr_trace::{Dur, Trace};
use std::fmt;

/// One aligned phase pair (or an unmatched phase on either side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePair {
    /// Profile from run A, if present at this position.
    pub a: Option<PhaseProfile>,
    /// Profile from run B, if present at this position.
    pub b: Option<PhaseProfile>,
    /// True when both sides are present and structurally equivalent
    /// (same flavor, task count, and message count).
    pub structurally_equal: bool,
}

/// The comparison of two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct StructureDiff {
    /// Aligned phases, in offset order.
    pub pairs: Vec<PhasePair>,
    /// Phases with identical structure on both sides.
    pub matching: usize,
    /// Total busy time of each run.
    pub busy: (Dur, Dur),
    /// Overall PE imbalance of each run.
    pub overall_imbalance: (Dur, Dur),
    /// Global step counts.
    pub steps: (u64, u64),
}

impl StructureDiff {
    /// Aligns the two structures positionally (by phase offset order)
    /// and compares shape and cost.
    pub fn compute(
        trace_a: &Trace,
        ls_a: &LogicalStructure,
        trace_b: &Trace,
        ls_b: &LogicalStructure,
    ) -> StructureDiff {
        let imb_a = Imbalance::compute(trace_a, ls_a);
        let imb_b = Imbalance::compute(trace_b, ls_b);
        let profiles = |trace: &Trace, ls: &LogicalStructure, imb| -> Vec<PhaseProfile> {
            let by_phase = phase_profiles(trace, ls, imb);
            ls.phases_by_offset().iter().map(|&p| by_phase[p as usize].clone()).collect()
        };
        let pa = profiles(trace_a, ls_a, &imb_a);
        let pb = profiles(trace_b, ls_b, &imb_b);
        let n = pa.len().max(pb.len());
        let mut pairs = Vec::with_capacity(n);
        let mut matching = 0;
        for i in 0..n {
            let a = pa.get(i).cloned();
            let b = pb.get(i).cloned();
            let structurally_equal = match (&a, &b) {
                (Some(x), Some(y)) => {
                    x.is_runtime == y.is_runtime && x.tasks == y.tasks && x.messages == y.messages
                }
                _ => false,
            };
            if structurally_equal {
                matching += 1;
            }
            pairs.push(PhasePair { a, b, structurally_equal });
        }
        let busy_of = |tr: &Trace| tr.tasks.iter().map(|t| t.end - t.begin).sum();
        StructureDiff {
            pairs,
            matching,
            busy: (busy_of(trace_a), busy_of(trace_b)),
            overall_imbalance: (imb_a.overall(), imb_b.overall()),
            steps: (ls_a.max_step() + 1, ls_b.max_step() + 1),
        }
    }

    /// True when every phase pair matches structurally — the two runs
    /// executed the same program shape.
    pub fn same_structure(&self) -> bool {
        self.matching == self.pairs.len()
    }
}

impl fmt::Display for StructureDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} / {} phases structurally equal; steps {} vs {}",
            self.matching,
            self.pairs.len(),
            self.steps.0,
            self.steps.1
        )?;
        writeln!(f, "busy: {} vs {}", self.busy.0, self.busy.1)?;
        writeln!(
            f,
            "overall imbalance: {} vs {}",
            self.overall_imbalance.0, self.overall_imbalance.1
        )?;
        for (i, pair) in self.pairs.iter().enumerate() {
            let mark = if pair.structurally_equal { "=" } else { "!" };
            let fmt_side = |p: &Option<PhaseProfile>| match p {
                Some(p) => format!(
                    "[{}] {} tasks, {} msgs, busy {}",
                    if p.is_runtime { "rt " } else { "app" },
                    p.tasks,
                    p.messages,
                    p.busy
                ),
                None => "(absent)".to_owned(),
            };
            writeln!(f, " {mark} {i:>3}: {:<44} | {}", fmt_side(&pair.a), fmt_side(&pair.b))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_apps::{jacobi2d, JacobiParams};
    use lsr_core::{extract, Config};

    #[test]
    fn same_program_different_seed_matches_structurally() {
        let a = jacobi2d(&JacobiParams { seed: 3, ..JacobiParams::fig15() });
        let b = jacobi2d(&JacobiParams { seed: 4, ..JacobiParams::fig15() });
        let la = extract(&a, &Config::charm());
        let lb = extract(&b, &Config::charm());
        let d = StructureDiff::compute(&a, &la, &b, &lb);
        // Same program: most phases line up exactly. Positional
        // alignment drifts after the first boundary remnant that
        // fragments differently between the seeds, so this is not 100%,
        // and seed pairs whose runs disagree on phase *count* shift the
        // whole alignment — pick a pair that agrees (re-derive if the
        // simulator's jitter stream changes).
        assert!(
            d.matching * 3 >= d.pairs.len() * 2,
            "expected ≥2/3 structural match, got {}/{}",
            d.matching,
            d.pairs.len()
        );
        let shown = d.to_string();
        assert!(shown.contains("phases structurally equal"));
    }

    #[test]
    fn different_programs_do_not_match() {
        let a = jacobi2d(&JacobiParams::fig15());
        let mut small = JacobiParams::fig15();
        small.chares_x = 2;
        small.chares_y = 2;
        let b = jacobi2d(&small);
        let la = extract(&a, &Config::charm());
        let lb = extract(&b, &Config::charm());
        let d = StructureDiff::compute(&a, &la, &b, &lb);
        assert!(!d.same_structure());
        assert!(d.matching < d.pairs.len());
    }

    #[test]
    fn identical_runs_are_fully_equal() {
        let a = jacobi2d(&JacobiParams::fig15());
        let la = extract(&a, &Config::charm());
        let d = StructureDiff::compute(&a, &la, &a, &la);
        assert!(d.same_structure());
        assert_eq!(d.busy.0, d.busy.1);
        assert_eq!(d.steps.0, d.steps.1);
    }
}

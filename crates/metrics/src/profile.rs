//! Per-phase profiles: the summary table an analyst reads first —
//! grain size, message counts, busy time, wall-clock extent, and the
//! paper's imbalance number, per phase.

use crate::imbalance::Imbalance;
use lsr_core::{LogicalStructure, NO_PHASE};
use lsr_trace::{Dur, Time, Trace};
use std::fmt;

/// Aggregates for one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Phase id.
    pub phase: u32,
    /// Runtime flavor.
    pub is_runtime: bool,
    /// Number of tasks attributed to the phase.
    pub tasks: usize,
    /// Intra-phase matched messages.
    pub messages: usize,
    /// Summed task duration.
    pub busy: Dur,
    /// Mean task grain.
    pub mean_grain: Dur,
    /// Earliest task begin.
    pub first_begin: Time,
    /// Latest task end.
    pub last_end: Time,
    /// Max − min processor load (paper §4).
    pub imbalance: Dur,
}

/// Computes a [`PhaseProfile`] per phase. `imb` is the caller's
/// [`Imbalance::compute`] of the same trace and structure, so a caller
/// that also reports imbalance computes it once.
pub fn phase_profiles(trace: &Trace, ls: &LogicalStructure, imb: &Imbalance) -> Vec<PhaseProfile> {
    let n = ls.num_phases();
    let mut out: Vec<PhaseProfile> = (0..n)
        .map(|p| PhaseProfile {
            phase: p as u32,
            is_runtime: ls.phases[p].is_runtime,
            tasks: 0,
            messages: 0,
            busy: Dur::ZERO,
            mean_grain: Dur::ZERO,
            first_begin: Time::MAX,
            last_end: Time::ZERO,
            imbalance: imb.per_phase[p],
        })
        .collect();
    for t in &trace.tasks {
        let p = ls.phase_of_task(t.id);
        if p == NO_PHASE {
            continue;
        }
        let row = &mut out[p as usize];
        row.tasks += 1;
        row.busy += t.end - t.begin;
        row.first_begin = row.first_begin.min(t.begin);
        row.last_end = row.last_end.max(t.end);
    }
    for m in &trace.msgs {
        if let Some(rt) = m.recv_task {
            let sink = trace.task(rt).sink.expect("matched");
            let p = ls.phase_of(sink);
            if p == ls.phase_of(m.send_event) {
                out[p as usize].messages += 1;
            }
        }
    }
    for row in &mut out {
        if row.tasks > 0 {
            row.mean_grain = Dur(row.busy.nanos() / row.tasks as u64);
        } else {
            row.first_begin = Time::ZERO;
        }
    }
    out
}

impl fmt::Display for PhaseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase {:>3} [{}] tasks {:>6} msgs {:>6} busy {:>12} grain {:>10} imb {:>10}",
            self.phase,
            if self.is_runtime { "rt " } else { "app" },
            self.tasks,
            self.messages,
            self.busy.to_string(),
            self.mean_grain.to_string(),
            self.imbalance.to_string()
        )
    }
}

/// Formats all profiles as a table, ordered by phase offset; `imb` as
/// for [`phase_profiles`].
pub fn profile_table(trace: &Trace, ls: &LogicalStructure, imb: &Imbalance) -> String {
    let profiles = phase_profiles(trace, ls, imb);
    let mut out = String::new();
    for &p in &ls.phases_by_offset() {
        out.push_str(&profiles[p as usize].to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_core::Config;

    #[test]
    fn profiles_account_for_all_tasks_and_intra_phase_messages() {
        let tr = lsr_apps::jacobi2d(&lsr_apps::JacobiParams::fig15());
        let ls = lsr_core::extract(&tr, &Config::charm());
        let profiles = phase_profiles(&tr, &ls, &Imbalance::compute(&tr, &ls));
        assert_eq!(profiles.len(), ls.num_phases());
        let total_tasks: usize = profiles.iter().map(|p| p.tasks).sum();
        assert_eq!(total_tasks, tr.tasks.len(), "every task lands in a phase");
        let total_msgs: usize = profiles.iter().map(|p| p.messages).sum();
        let matched = tr.msgs.iter().filter(|m| m.recv_task.is_some()).count();
        assert_eq!(total_msgs, matched, "matched messages are always intra-phase");
        let total_busy: Dur = profiles.iter().map(|p| p.busy).sum();
        let busy: Dur = tr.tasks.iter().map(|t| t.end - t.begin).sum();
        assert_eq!(total_busy, busy);
        for p in &profiles {
            if p.tasks > 0 {
                assert!(p.first_begin <= p.last_end);
                assert!(p.mean_grain <= p.busy);
            }
        }
    }

    #[test]
    fn table_is_ordered_by_offset() {
        let tr = lsr_apps::jacobi2d(&lsr_apps::JacobiParams::fig15());
        let ls = lsr_core::extract(&tr, &Config::charm());
        let table = profile_table(&tr, &ls, &Imbalance::compute(&tr, &ls));
        assert_eq!(table.lines().count(), ls.num_phases());
        assert!(table.contains("[rt ]") && table.contains("[app]"));
    }
}

//! The *imbalance* metric (paper §4, Fig. 14).
//!
//! Per phase, the computation duration executed on each processor is
//! summed; the phase's imbalance is the spread between the most and
//! least loaded processors, and each processor also gets its own
//! difference from the minimally loaded one (mapped onto every event it
//! executed, as in Fig. 14).
//!
//! Loads are stored sparsely: each phase keeps one `(pe, load)` entry
//! per PE that ran at least one of its tasks, so memory follows the task
//! count rather than phases × PEs (a process-ordered merge tree has one
//! phase per rank).

use lsr_core::{LogicalStructure, NO_PHASE};
use lsr_trace::{Dur, EventId, PeId, Trace};

/// Per-phase, per-processor load and the derived imbalance numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Imbalance {
    /// Phase `p`'s loads are `entries[offsets[p]..offsets[p + 1]]`.
    offsets: Vec<usize>,
    /// `(pe, summed task duration)`, ascending by PE within a phase;
    /// PEs that ran none of the phase's tasks have no entry.
    entries: Vec<(u32, Dur)>,
    /// Least-loaded PE's load per phase: 0 when some PE has no entry.
    min: Vec<Dur>,
    pe_count: usize,
    /// `per_phase[phase] = max − min load`.
    pub per_phase: Vec<Dur>,
}

impl Imbalance {
    /// Computes per-phase processor loads from task durations, each
    /// task attributed to its primary phase.
    pub fn compute(trace: &Trace, ls: &LogicalStructure) -> Imbalance {
        let phases = ls.num_phases();
        // One bucket pass: each phased task's (pe, duration), grouped by phase.
        let mut starts = vec![0usize; phases + 1];
        for t in &trace.tasks {
            let p = ls.phase_of_task(t.id);
            if p != NO_PHASE {
                starts[p as usize + 1] += 1;
            }
        }
        for p in 0..phases {
            starts[p + 1] += starts[p];
        }
        let mut next = starts.clone();
        let mut slots = vec![(0u32, Dur::ZERO); starts[phases]];
        for t in &trace.tasks {
            let p = ls.phase_of_task(t.id);
            if p != NO_PHASE {
                slots[next[p as usize]] = (t.pe.0, t.end - t.begin);
                next[p as usize] += 1;
            }
        }
        // Per phase, sum each PE's slots into one entry.
        let pe_count = trace.pe_count as usize;
        let mut offsets = Vec::with_capacity(phases + 1);
        let mut entries: Vec<(u32, Dur)> = Vec::new();
        let mut min = Vec::with_capacity(phases);
        let mut per_phase = Vec::with_capacity(phases);
        offsets.push(0);
        for p in 0..phases {
            let row_start = entries.len();
            let phase_slots = &mut slots[starts[p]..starts[p + 1]];
            phase_slots.sort_unstable_by_key(|&(pe, _)| pe);
            for &(pe, d) in phase_slots.iter() {
                match entries[row_start..].last_mut() {
                    Some((last, load)) if *last == pe => *load += d,
                    _ => entries.push((pe, d)),
                }
            }
            let row = &entries[row_start..];
            let max = row.iter().map(|&(_, l)| l).max().unwrap_or(Dur::ZERO);
            let least = if row.len() < pe_count {
                Dur::ZERO
            } else {
                row.iter().map(|&(_, l)| l).min().unwrap_or(Dur::ZERO)
            };
            min.push(least);
            per_phase.push(max.saturating_sub(least));
            offsets.push(entries.len());
        }
        Imbalance { offsets, entries, min, pe_count, per_phase }
    }

    /// Phase `phase`'s `(pe, load)` entries, ascending by PE.
    fn row(&self, phase: u32) -> &[(u32, Dur)] {
        let p = phase as usize;
        &self.entries[self.offsets[p]..self.offsets[p + 1]]
    }

    /// Summed duration of `phase`'s tasks that ran on `pe`.
    pub fn load(&self, phase: u32, pe: PeId) -> Dur {
        let row = self.row(phase);
        row.binary_search_by_key(&pe.0, |&(q, _)| q).map_or(Dur::ZERO, |i| row[i].1)
    }

    /// `load(phase, pe)` minus the least-loaded PE's load in `phase`.
    pub fn spread(&self, phase: u32, pe: PeId) -> Dur {
        self.load(phase, pe).saturating_sub(self.min[phase as usize])
    }

    /// The imbalance value an event is colored by (Fig. 14): its
    /// processor's spread within its phase.
    pub fn event_value(&self, trace: &Trace, ls: &LogicalStructure, e: EventId) -> Dur {
        self.spread(ls.phase_of(e), trace.task(trace.event(e).task).pe)
    }

    /// Total imbalance summed over phases.
    pub fn total(&self) -> Dur {
        self.per_phase.iter().copied().sum()
    }

    /// Overall run imbalance across processors: the spread between the
    /// most- and least-loaded PE over the whole run — the §6.2
    /// comparison ("less than half as much imbalance overall across
    /// processors").
    pub fn overall(&self) -> Dur {
        if self.per_phase.is_empty() {
            return Dur::ZERO;
        }
        let mut totals = vec![Dur::ZERO; self.pe_count];
        for &(pe, load) in &self.entries {
            totals[pe as usize] += load;
        }
        match (totals.iter().max(), totals.iter().min()) {
            (Some(&max), Some(&min)) => max.saturating_sub(min),
            _ => Dur::ZERO,
        }
    }

    /// Mean per-phase relative imbalance: (max − min) / max, averaged
    /// over phases with nonzero load. In [0, 1].
    pub fn mean_relative(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (p, &imb) in self.per_phase.iter().enumerate() {
            let max = self.row(p as u32).iter().map(|&(_, l)| l).max().unwrap_or(Dur::ZERO);
            if max > Dur::ZERO {
                sum += imb.nanos() as f64 / max.nanos() as f64;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_core::Config;
    use lsr_trace::{Kind, PeId, Time, TraceBuilder};

    /// One phase: PE0 runs 30ns of work, PE1 runs 10ns.
    fn lopsided() -> Trace {
        let mut b = TraceBuilder::new(2);
        let arr = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(arr, 0, PeId(0));
        let c1 = b.add_chare(arr, 1, PeId(1));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m = b.record_send(t0, Time(5), c1, e);
        b.end_task(t0, Time(30));
        let r = b.begin_task_from(c1, e, PeId(1), Time(40), m);
        b.end_task(r, Time(50));
        b.build().unwrap()
    }

    #[test]
    fn spread_and_per_phase_match_loads() {
        let tr = lopsided();
        let ls = lsr_core::extract(&tr, &Config::charm());
        let imb = Imbalance::compute(&tr, &ls);
        assert_eq!(ls.num_phases(), 1);
        assert_eq!((imb.load(0, PeId(0)), imb.load(0, PeId(1))), (Dur(30), Dur(10)));
        assert_eq!((imb.spread(0, PeId(0)), imb.spread(0, PeId(1))), (Dur(20), Dur(0)));
        assert_eq!(imb.per_phase[0], Dur(20));
        assert_eq!(imb.total(), Dur(20));
        let rel = imb.mean_relative();
        assert!((rel - 20.0 / 30.0).abs() < 1e-9);
    }

    #[test]
    fn event_value_maps_processor_spread() {
        let tr = lopsided();
        let ls = lsr_core::extract(&tr, &Config::charm());
        let imb = Imbalance::compute(&tr, &ls);
        let send = tr.tasks[0].sends[0];
        let sink = tr.tasks[1].sink.unwrap();
        assert_eq!(imb.event_value(&tr, &ls, send), Dur(20));
        assert_eq!(imb.event_value(&tr, &ls, sink), Dur(0));
    }

    #[test]
    fn overall_spreads_whole_run_loads() {
        let tr = lopsided();
        let ls = lsr_core::extract(&tr, &Config::charm());
        let imb = Imbalance::compute(&tr, &ls);
        // One phase: overall equals the phase's spread.
        assert_eq!(imb.overall(), Dur(20));
    }

    /// A random small trace: `ops` tasks in time order, each on a chare
    /// and PE drawn from the op, optionally triggered by a pending
    /// message to its chare and optionally sending one on. PEs above
    /// the ones the ops use stay idle.
    fn random_trace(pes: u32, ops: &[(u32, u32, u64, bool)]) -> Trace {
        let mut b = TraceBuilder::new(pes);
        let arr = b.add_array("a", Kind::Application);
        let chares: Vec<_> = (0..4).map(|i| b.add_chare(arr, i, PeId(i % pes))).collect();
        let e = b.add_entry("go", None);
        let mut pending = vec![Vec::new(); chares.len()];
        for (i, &(c, pe, dur, send)) in ops.iter().enumerate() {
            let (c, pe, begin) = (c as usize % chares.len(), PeId(pe % pes), 100 * i as u64);
            let task = match pending[c].pop() {
                Some(m) => b.begin_task_from(chares[c], e, pe, Time(begin), m),
                None => b.begin_task(chares[c], e, pe, Time(begin)),
            };
            if send {
                let dst = (c + 1 + i) % chares.len();
                pending[dst].push(b.record_send(task, Time(begin + 1), chares[dst], e));
            }
            b.end_task(task, Time(begin + 1 + dur));
        }
        b.build().unwrap()
    }

    /// The dense `phases × PEs` load table the sparse one replaces.
    fn dense_loads(trace: &Trace, ls: &LogicalStructure) -> Vec<Vec<Dur>> {
        let mut loads = vec![vec![Dur::ZERO; trace.pe_count as usize]; ls.num_phases()];
        for t in &trace.tasks {
            let p = ls.phase_of_task(t.id);
            if p != NO_PHASE {
                loads[p as usize][t.pe.index()] += t.end - t.begin;
            }
        }
        loads
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Every number the sparse table yields equals the dense
        /// brute force's, and it stores at most one entry per task.
        #[test]
        fn sparse_loads_match_dense_reference(
            pes in 1u32..6,
            ops in proptest::collection::vec(
                (0u32..4, 0u32..6, 0u64..40, proptest::prelude::any::<bool>()),
                1..24,
            ),
        ) {
            let tr = random_trace(pes, &ops);
            let ls = lsr_core::extract(&tr, &Config::charm());
            let imb = Imbalance::compute(&tr, &ls);
            let loads = dense_loads(&tr, &ls);
            let mut per_phase = Vec::new();
            let mut rel = (0.0, 0usize);
            for (p, row) in loads.iter().enumerate() {
                let min = row.iter().copied().min().unwrap_or(Dur::ZERO);
                let max = row.iter().copied().max().unwrap_or(Dur::ZERO);
                for (pe, &l) in row.iter().enumerate() {
                    let pe = PeId(pe as u32);
                    assert_eq!(imb.load(p as u32, pe), l);
                    assert_eq!(imb.spread(p as u32, pe), l.saturating_sub(min));
                }
                per_phase.push(max.saturating_sub(min));
                if max > Dur::ZERO {
                    rel.0 += max.saturating_sub(min).nanos() as f64 / max.nanos() as f64;
                    rel.1 += 1;
                }
            }
            assert_eq!(imb.per_phase, per_phase);
            assert_eq!(imb.total(), per_phase.iter().copied().sum::<Dur>());
            let totals: Vec<Dur> =
                (0..pes as usize).map(|pe| loads.iter().map(|row| row[pe]).sum()).collect();
            let overall = match (totals.iter().max(), totals.iter().min()) {
                (Some(&max), Some(&min)) if !loads.is_empty() => max.saturating_sub(min),
                _ => Dur::ZERO,
            };
            assert_eq!(imb.overall(), overall);
            let mean = if rel.1 == 0 { 0.0 } else { rel.0 / rel.1 as f64 };
            assert_eq!(imb.mean_relative().to_bits(), mean.to_bits());
            for e in tr.event_ids() {
                let p = ls.phase_of(e) as usize;
                let pe = tr.task(tr.event(e).task).pe.index();
                let min = loads[p].iter().copied().min().unwrap_or(Dur::ZERO);
                assert_eq!(imb.event_value(&tr, &ls, e), loads[p][pe].saturating_sub(min));
            }
            assert!(imb.entries.len() <= tr.tasks.len());
        }
    }

    /// One phase per task on as many PEs as tasks: the dense table
    /// would hold tasks² loads, the sparse one holds one per task.
    #[test]
    fn stored_entries_never_exceed_task_count() {
        let pes = 64u32;
        let mut b = TraceBuilder::new(pes);
        let arr = b.add_array("a", Kind::Application);
        let e = b.add_entry("go", None);
        for i in 0..pes {
            let c = b.add_chare(arr, i, PeId(i));
            let t = b.begin_task(c, e, PeId(i), Time(10 * u64::from(i)));
            b.record_send(t, Time(10 * u64::from(i)), c, e); // its one event, never delivered
            b.end_task(t, Time(10 * u64::from(i) + 1 + u64::from(i)));
        }
        let tr = b.build().unwrap();
        let ls = lsr_core::extract(&tr, &Config::charm());
        let imb = Imbalance::compute(&tr, &ls);
        assert_eq!(imb.per_phase.len(), tr.tasks.len(), "one phase per task");
        assert_eq!(imb.entries.len(), tr.tasks.len(), "one entry per task");
    }

    #[test]
    fn balanced_phase_has_zero_imbalance() {
        let mut b = TraceBuilder::new(2);
        let arr = b.add_array("a", Kind::Application);
        let c0 = b.add_chare(arr, 0, PeId(0));
        let c1 = b.add_chare(arr, 1, PeId(1));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m = b.record_send(t0, Time(5), c1, e);
        b.end_task(t0, Time(10));
        let r = b.begin_task_from(c1, e, PeId(1), Time(40), m);
        b.end_task(r, Time(50));
        let tr = b.build().unwrap();
        let ls = lsr_core::extract(&tr, &Config::charm());
        let imb = Imbalance::compute(&tr, &ls);
        assert_eq!(imb.per_phase[0], Dur::ZERO);
        assert_eq!(imb.mean_relative(), 0.0);
    }
}

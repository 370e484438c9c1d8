//! Lane layout shared by the ASCII and SVG renderers.
//!
//! Following the paper's figures, application chares get one timeline
//! each (ordered by array, then index) and all runtime chares of a PE
//! share a per-PE timeline drawn at the bottom.

use lsr_trace::{ChareId, Lane, PeId, Trace};

/// Marks a lane absent from [`Layout`]'s dense row tables.
const NO_ROW: u32 = u32::MAX;

/// The vertical arrangement of timelines for a trace.
#[derive(Debug, Clone)]
pub struct Layout {
    /// Lanes in display order (application first, runtime last).
    pub lanes: Vec<Lane>,
    /// Human-readable label per lane.
    pub labels: Vec<String>,
    /// Index of the first runtime lane (== `lanes.len()` if none).
    pub runtime_start: usize,
    /// Display row per chare id, `NO_ROW` for chares without a lane.
    chare_row: Vec<u32>,
    /// Display row of each PE's runtime lane, `NO_ROW` if it has none.
    pe_row: Vec<u32>,
}

impl Layout {
    /// Builds the layout for a trace. Only lanes that actually carry
    /// tasks appear.
    pub fn new(trace: &Trace) -> Layout {
        let mut app: Vec<(u32, u32, ChareId)> = Vec::new(); // (array, index, chare)
        let mut runtime_pes: Vec<PeId> = Vec::new();
        let mut seen_app = vec![false; trace.chares.len()];
        let mut seen_rt = vec![false; trace.pe_count as usize];
        for t in &trace.tasks {
            match trace.task_lane(t.id) {
                Lane::Chare(c) => {
                    if !std::mem::replace(&mut seen_app[c.index()], true) {
                        let info = trace.chare(c);
                        app.push((info.array.0, info.index, c));
                    }
                }
                Lane::RuntimePe(pe) => {
                    if !std::mem::replace(&mut seen_rt[pe.index()], true) {
                        runtime_pes.push(pe);
                    }
                }
            }
        }
        app.sort_unstable();
        runtime_pes.sort_unstable();
        let mut lanes = Vec::with_capacity(app.len() + runtime_pes.len());
        let mut labels = Vec::with_capacity(lanes.capacity());
        let mut chare_row = vec![NO_ROW; trace.chares.len()];
        let mut pe_row = vec![NO_ROW; trace.pe_count as usize];
        for (arr, idx, chare) in app {
            chare_row[chare.index()] = lanes.len() as u32;
            lanes.push(Lane::Chare(chare));
            labels.push(format!("{}[{}]", trace.array(lsr_trace::ArrayId(arr)).name, idx));
        }
        let runtime_start = lanes.len();
        for pe in runtime_pes {
            pe_row[pe.index()] = lanes.len() as u32;
            lanes.push(Lane::RuntimePe(pe));
            labels.push(format!("rt@{pe}"));
        }
        Layout { lanes, labels, runtime_start, chare_row, pe_row }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when no lane carries tasks.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The display row of a lane.
    ///
    /// # Panics
    ///
    /// If the lane carries no task of the trace the layout was built for.
    pub fn row(&self, lane: Lane) -> usize {
        let row = match lane {
            Lane::Chare(c) => self.chare_row[c.index()],
            Lane::RuntimePe(pe) => self.pe_row[pe.index()],
        };
        assert!(row != NO_ROW, "lane {lane:?} carries no task of this layout's trace");
        row as usize
    }

    /// The widest label (for column alignment).
    pub fn label_width(&self) -> usize {
        self.labels.iter().map(|l| l.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_trace::{Kind, Time, TraceBuilder};

    #[test]
    fn app_lanes_before_runtime_lanes() {
        let mut b = TraceBuilder::new(2);
        let app = b.add_array("work", Kind::Application);
        let rt = b.add_array("mgr", Kind::Runtime);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 1, PeId(1));
        let m0 = b.add_chare(rt, 0, PeId(0));
        let e = b.add_entry("go", None);
        for (c, pe, t) in [(c1, 1u32, 0u64), (m0, 0, 5), (c0, 0, 10)] {
            let task = b.begin_task(c, e, PeId(pe), Time(t));
            b.end_task(task, Time(t + 1));
        }
        let tr = b.build().unwrap();
        let layout = Layout::new(&tr);
        assert_eq!(layout.len(), 3);
        assert_eq!(layout.runtime_start, 2);
        assert_eq!(layout.labels[0], "work[0]");
        assert_eq!(layout.labels[1], "work[1]");
        assert_eq!(layout.labels[2], "rt@pe0");
        assert_eq!(layout.row(Lane::Chare(c0)), 0);
        assert_eq!(layout.row(Lane::RuntimePe(PeId(0))), 2);
        assert!(!layout.is_empty());
        assert_eq!(layout.label_width(), 7);
    }

    /// Two chares sharing an (array, index) pair each keep their own
    /// lane, so every task has a row.
    #[test]
    fn duplicate_array_index_chares_get_their_own_lanes() {
        let mut b = TraceBuilder::new(1);
        let app = b.add_array("w", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let c1 = b.add_chare(app, 0, PeId(0));
        let e = b.add_entry("go", None);
        for (c, t) in [(c0, 0u64), (c1, 5)] {
            let task = b.begin_task(c, e, PeId(0), Time(t));
            b.end_task(task, Time(t + 1));
        }
        let tr = b.build().unwrap();
        let layout = Layout::new(&tr);
        assert_eq!(layout.len(), 2);
        assert_ne!(layout.row(Lane::Chare(c0)), layout.row(Lane::Chare(c1)));
    }

    #[test]
    fn lanes_without_tasks_are_omitted() {
        let mut b = TraceBuilder::new(4);
        let app = b.add_array("w", Kind::Application);
        let c0 = b.add_chare(app, 0, PeId(0));
        let _c1 = b.add_chare(app, 1, PeId(1)); // never runs
        let e = b.add_entry("go", None);
        let t = b.begin_task(c0, e, PeId(0), Time(0));
        b.end_task(t, Time(1));
        let tr = b.build().unwrap();
        let layout = Layout::new(&tr);
        assert_eq!(layout.len(), 1);
    }
}

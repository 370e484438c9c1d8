//! The [`Trace`] container and its derived indexes.

use crate::ids::{ArrayId, ChareId, EntryId, EventId, MsgId, PeId, SigId, TaskId};
use crate::record::{ArrayInfo, ChareInfo, EntryInfo, EventRec, IdleRec, MsgRec, SigInfo, TaskRec};
use crate::time::Time;
use serde::Serialize;

/// A complete event trace of one run.
///
/// All tables are indexed densely by the corresponding id. Construct via
/// [`crate::TraceBuilder`]; the builder validates the cross-references
/// (see [`crate::validate()`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Trace {
    /// Number of PEs in the run.
    pub pe_count: u32,
    /// Chare array metadata.
    pub arrays: Vec<ArrayInfo>,
    /// Chare metadata.
    pub chares: Vec<ChareInfo>,
    /// Entry-method metadata.
    pub entries: Vec<EntryInfo>,
    /// Declared message-type signatures (declaration layer; empty when
    /// the trace declares none).
    pub sigs: Vec<SigInfo>,
    /// Serial blocks (entry-method executions).
    pub tasks: Vec<TaskRec>,
    /// Dependency events.
    pub events: Vec<EventRec>,
    /// Messages.
    pub msgs: Vec<MsgRec>,
    /// Recorded idle spans, sorted by (pe, begin).
    pub idles: Vec<IdleRec>,
}

impl Trace {
    /// Looks up a task record.
    #[inline]
    pub fn task(&self, id: TaskId) -> &TaskRec {
        &self.tasks[id.index()]
    }

    /// Looks up an event record.
    #[inline]
    pub fn event(&self, id: EventId) -> &EventRec {
        &self.events[id.index()]
    }

    /// Looks up a message record.
    #[inline]
    pub fn msg(&self, id: MsgId) -> &MsgRec {
        &self.msgs[id.index()]
    }

    /// Looks up a chare record.
    #[inline]
    pub fn chare(&self, id: ChareId) -> &ChareInfo {
        &self.chares[id.index()]
    }

    /// Looks up an array record.
    #[inline]
    pub fn array(&self, id: ArrayId) -> &ArrayInfo {
        &self.arrays[id.index()]
    }

    /// Looks up an entry-method record.
    #[inline]
    pub fn entry(&self, id: EntryId) -> &EntryInfo {
        &self.entries[id.index()]
    }

    /// Looks up a declared message-type signature.
    #[inline]
    pub fn sig(&self, id: SigId) -> &SigInfo {
        &self.sigs[id.index()]
    }

    /// The trace's *declaration layer*: PE count, arrays, chares, entry
    /// methods, and message-type signatures — everything a tracing
    /// framework registers before the run produces events. Static
    /// analyses (`lsr-model`) take this view instead of the whole
    /// [`Trace`] so the type system guarantees they never read the
    /// event stream.
    #[inline]
    pub fn declarations(&self) -> Declarations<'_> {
        Declarations {
            pe_count: self.pe_count,
            arrays: &self.arrays,
            chares: &self.chares,
            entries: &self.entries,
            sigs: &self.sigs,
        }
    }

    /// The chare a dependency event belongs to.
    #[inline]
    pub fn event_chare(&self, id: EventId) -> ChareId {
        self.task(self.event(id).task).chare
    }

    /// True if the task runs on a runtime chare.
    #[inline]
    pub fn task_is_runtime(&self, id: TaskId) -> bool {
        self.chare(self.task(id).chare).kind.is_runtime()
    }

    /// The *timeline* a task is drawn on / grouped by: application tasks
    /// group by their chare, runtime tasks by their PE (paper §2.1).
    pub fn task_lane(&self, id: TaskId) -> Lane {
        let t = self.task(id);
        if self.chare(t.chare).kind.is_runtime() {
            Lane::RuntimePe(t.pe)
        } else {
            Lane::Chare(t.chare)
        }
    }

    /// All task ids in trace order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len()).map(TaskId::from_index)
    }

    /// All event ids in trace order.
    pub fn event_ids(&self) -> impl Iterator<Item = EventId> + '_ {
        (0..self.events.len()).map(EventId::from_index)
    }

    /// All message ids in trace order.
    pub fn msg_ids(&self) -> impl Iterator<Item = MsgId> + '_ {
        (0..self.msgs.len()).map(MsgId::from_index)
    }

    /// Total run span: from the earliest task begin to the latest task end.
    pub fn span(&self) -> (Time, Time) {
        let begin = self.tasks.iter().map(|t| t.begin).min().unwrap_or(Time::ZERO);
        let end = self.tasks.iter().map(|t| t.end).max().unwrap_or(Time::ZERO);
        (begin, end)
    }

    /// Builds the derived per-lane/per-PE orderings used throughout the
    /// ordering algorithm. O(n log n).
    pub fn index(&self) -> TraceIndex {
        TraceIndex::build(self)
    }

    /// Matched messages as task-level happened-before edges: the
    /// sending task before the task the delivery awakened. Unmatched
    /// messages are skipped; self-sends (`from == to`) are included —
    /// graph builders that cannot tolerate trivial loops must filter
    /// them. Shared by the lint crate's HB engine and the extraction
    /// pipeline so both see the same dependency set.
    pub fn message_edges(&self) -> impl Iterator<Item = MsgEdge> + '_ {
        self.msgs.iter().filter_map(|m| {
            m.recv_task.map(|to| MsgEdge { msg: m.id, from: self.event(m.send_event).task, to })
        })
    }
}

/// A read-only view of a trace's declaration layer (see
/// [`Trace::declarations`]): the metadata tables only, with no access
/// to tasks, events, messages, or idle spans. Holding one of these is
/// a proof that an analysis is static.
#[derive(Debug, Clone, Copy)]
pub struct Declarations<'a> {
    /// Number of PEs in the run.
    pub pe_count: u32,
    /// Chare array metadata.
    pub arrays: &'a [ArrayInfo],
    /// Chare metadata.
    pub chares: &'a [ChareInfo],
    /// Entry-method metadata.
    pub entries: &'a [EntryInfo],
    /// Declared message-type signatures.
    pub sigs: &'a [SigInfo],
}

impl Declarations<'_> {
    /// Looks up an array record.
    #[inline]
    pub fn array(&self, id: ArrayId) -> &ArrayInfo {
        &self.arrays[id.index()]
    }

    /// Looks up a chare record.
    #[inline]
    pub fn chare(&self, id: ChareId) -> &ChareInfo {
        &self.chares[id.index()]
    }

    /// Looks up an entry-method record.
    #[inline]
    pub fn entry(&self, id: EntryId) -> &EntryInfo {
        &self.entries[id.index()]
    }

    /// Number of chares declared in `array`.
    pub fn chare_count(&self, array: ArrayId) -> u32 {
        self.chares.iter().filter(|c| c.array == array).count() as u32
    }
}

/// A matched message viewed as a task-level edge of the
/// happened-before relation (see [`Trace::message_edges`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgEdge {
    /// The message that induces the edge.
    pub msg: MsgId,
    /// The task whose send event emitted the message.
    pub from: TaskId,
    /// The task the delivery awakened.
    pub to: TaskId,
}

/// The grouping timeline for a task: a chare lane for application tasks,
/// a per-PE runtime lane for runtime tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// An application chare's timeline.
    Chare(ChareId),
    /// The runtime timeline of a PE.
    RuntimePe(PeId),
}

/// Derived orderings over a [`Trace`]: tasks sorted by time per PE and per
/// chare, and the position of each task within those orders.
#[derive(Debug, Clone)]
pub struct TraceIndex {
    /// Tasks per PE, sorted by begin time.
    pub tasks_by_pe: Vec<Vec<TaskId>>,
    /// Tasks per chare, sorted by begin time.
    pub tasks_by_chare: Vec<Vec<TaskId>>,
    /// For each task, its rank within its PE's sorted order.
    pub pe_pos: Vec<u32>,
    /// For each task, its rank within its chare's sorted order.
    pub chare_pos: Vec<u32>,
}

impl TraceIndex {
    fn build(trace: &Trace) -> TraceIndex {
        let mut tasks_by_pe: Vec<Vec<TaskId>> = vec![Vec::new(); trace.pe_count as usize];
        let mut tasks_by_chare: Vec<Vec<TaskId>> = vec![Vec::new(); trace.chares.len()];
        for t in &trace.tasks {
            tasks_by_pe[t.pe.index()].push(t.id);
            tasks_by_chare[t.chare.index()].push(t.id);
        }
        let by_begin = |a: &TaskId, b: &TaskId| {
            let (ta, tb) = (trace.task(*a), trace.task(*b));
            ta.begin.cmp(&tb.begin).then(a.cmp(b))
        };
        let mut pe_pos = vec![0u32; trace.tasks.len()];
        let mut chare_pos = vec![0u32; trace.tasks.len()];
        for list in &mut tasks_by_pe {
            list.sort_unstable_by(by_begin);
            for (i, t) in list.iter().enumerate() {
                pe_pos[t.index()] = i as u32;
            }
        }
        for list in &mut tasks_by_chare {
            list.sort_unstable_by(by_begin);
            for (i, t) in list.iter().enumerate() {
                chare_pos[t.index()] = i as u32;
            }
        }
        TraceIndex { tasks_by_pe, tasks_by_chare, pe_pos, chare_pos }
    }

    /// The task executed immediately before `t` on the same PE, if any.
    pub fn prev_on_pe(&self, trace: &Trace, t: TaskId) -> Option<TaskId> {
        let pe = trace.task(t).pe;
        let pos = self.pe_pos[t.index()] as usize;
        (pos > 0).then(|| self.tasks_by_pe[pe.index()][pos - 1])
    }

    /// The task executed immediately after `t` on the same PE, if any.
    pub fn next_on_pe(&self, trace: &Trace, t: TaskId) -> Option<TaskId> {
        let pe = trace.task(t).pe;
        let pos = self.pe_pos[t.index()] as usize + 1;
        self.tasks_by_pe[pe.index()].get(pos).copied()
    }

    /// The previous task of the same chare in physical time, if any.
    pub fn prev_on_chare(&self, trace: &Trace, t: TaskId) -> Option<TaskId> {
        let ch = trace.task(t).chare;
        let pos = self.chare_pos[t.index()] as usize;
        (pos > 0).then(|| self.tasks_by_chare[ch.index()][pos - 1])
    }

    /// The next task of the same chare in physical time, if any.
    pub fn next_on_chare(&self, trace: &Trace, t: TaskId) -> Option<TaskId> {
        let ch = trace.task(t).chare;
        let pos = self.chare_pos[t.index()] as usize + 1;
        self.tasks_by_chare[ch.index()].get(pos).copied()
    }

    /// Program-order edges: consecutive serial blocks on one PE, for
    /// every PE. Together with [`Trace::message_edges`] this is the
    /// generating edge set of the schedule happened-before relation.
    pub fn program_order_edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        adjacent_pairs(&self.tasks_by_pe)
    }

    /// Chare-order edges: consecutive tasks of one chare in begin-time
    /// order, for every chare. These are control dependencies in the
    /// message-passing model (each rank runs a deterministic program)
    /// but *not* in the Charm++ model, where delivery order to a chare
    /// is a scheduler decision.
    pub fn chare_order_edges(&self) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
        adjacent_pairs(&self.tasks_by_chare)
    }
}

fn adjacent_pairs(lists: &[Vec<TaskId>]) -> impl Iterator<Item = (TaskId, TaskId)> + '_ {
    lists.iter().flat_map(|list| list.windows(2).map(|w| (w[0], w[1])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::Kind;
    use crate::time::Dur;

    /// Two chares on two PEs; ch0 sends to ch1 twice.
    fn sample() -> Trace {
        let mut b = TraceBuilder::new(2);
        let arr = b.add_array("work", Kind::Application);
        let c0 = b.add_chare(arr, 0, PeId(0));
        let c1 = b.add_chare(arr, 1, PeId(1));
        let e = b.add_entry("go", None);
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let s0 = b.record_send(t0, Time(5), c1, e);
        let s1 = b.record_send(t0, Time(8), c1, e);
        b.end_task(t0, Time(10));
        let t1 = b.begin_task_from(c1, e, PeId(1), Time(20), s0);
        b.end_task(t1, Time(25));
        let t2 = b.begin_task_from(c1, e, PeId(1), Time(30), s1);
        b.end_task(t2, Time(40));
        b.add_idle(PeId(1), Time(0), Time(20));
        b.build().expect("valid trace")
    }

    #[test]
    fn accessors_resolve_ids() {
        let tr = sample();
        assert_eq!(tr.tasks.len(), 3);
        assert_eq!(tr.msgs.len(), 2);
        assert_eq!(tr.task(TaskId(0)).sends.len(), 2);
        assert_eq!(tr.event_chare(tr.task(TaskId(0)).sends[0]), ChareId(0));
        assert!(!tr.task_is_runtime(TaskId(0)));
        assert_eq!(tr.span(), (Time(0), Time(40)));
    }

    #[test]
    fn lanes_group_app_by_chare() {
        let tr = sample();
        assert_eq!(tr.task_lane(TaskId(0)), Lane::Chare(ChareId(0)));
        assert_eq!(tr.task_lane(TaskId(1)), Lane::Chare(ChareId(1)));
    }

    #[test]
    fn runtime_lane_groups_by_pe() {
        let mut b = TraceBuilder::new(1);
        let arr = b.add_array("mgr", Kind::Runtime);
        let c = b.add_chare(arr, 0, PeId(0));
        let e = b.add_entry("reduce", None);
        let t = b.begin_task(c, e, PeId(0), Time(0));
        b.end_task(t, Time(1));
        let tr = b.build().unwrap();
        assert_eq!(tr.task_lane(TaskId(0)), Lane::RuntimePe(PeId(0)));
        assert!(tr.task_is_runtime(TaskId(0)));
    }

    #[test]
    fn index_orders_tasks_by_time() {
        let tr = sample();
        let ix = tr.index();
        assert_eq!(ix.tasks_by_pe[1], vec![TaskId(1), TaskId(2)]);
        assert_eq!(ix.tasks_by_chare[1], vec![TaskId(1), TaskId(2)]);
        assert_eq!(ix.prev_on_pe(&tr, TaskId(2)), Some(TaskId(1)));
        assert_eq!(ix.next_on_pe(&tr, TaskId(1)), Some(TaskId(2)));
        assert_eq!(ix.prev_on_pe(&tr, TaskId(1)), None);
        assert_eq!(ix.prev_on_chare(&tr, TaskId(2)), Some(TaskId(1)));
        assert_eq!(ix.next_on_chare(&tr, TaskId(2)), None);
        assert_eq!(ix.next_on_chare(&tr, TaskId(1)), Some(TaskId(2)));
    }

    #[test]
    fn edge_iterators_cover_order_and_messages() {
        let tr = sample();
        let ix = tr.index();
        let po: Vec<_> = ix.program_order_edges().collect();
        assert_eq!(po, vec![(TaskId(1), TaskId(2))]);
        let co: Vec<_> = ix.chare_order_edges().collect();
        assert_eq!(co, vec![(TaskId(1), TaskId(2))]);
        let me: Vec<_> = tr.message_edges().collect();
        assert_eq!(me.len(), 2);
        assert_eq!(me[0], MsgEdge { msg: me[0].msg, from: TaskId(0), to: TaskId(1) });
        assert_eq!((me[1].from, me[1].to), (TaskId(0), TaskId(2)));
    }

    #[test]
    fn span_of_empty_trace_is_zero() {
        let tr = TraceBuilder::new(1).build().unwrap();
        assert_eq!(tr.span(), (Time::ZERO, Time::ZERO));
        let _ = Dur::ZERO;
    }
}

//! The record types stored in a [`crate::Trace`].
//!
//! The trace model follows the paper's view of a Charm++-style trace:
//!
//! * a **task** is one uninterruptible execution of an entry method on a
//!   chare (a *serial block*, §3.1.1);
//! * each task carries an ordered list of **dependency events**: at most
//!   one *sink* (the receive of the message that awoke it) followed by
//!   zero or more *sources* (message sends, in physical-time order);
//! * **messages** connect a send event to the task it awakens; a single
//!   send event may fan out to many messages (a broadcast);
//! * **idle spans** record time a PE spent with nothing to schedule.

use crate::ids::{ArrayId, ChareId, EntryId, EventId, Kind, MsgId, PeId, SigId, TaskId};
use crate::time::Time;
use serde::Serialize;
use std::fmt;

/// Metadata for a chare array (an indexed collection of chares) or a
/// runtime group (one chare per PE).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ArrayInfo {
    /// This array's id.
    pub id: ArrayId,
    /// Human-readable name, e.g. `"jacobi"` or `"CkReductionMgr"`.
    pub name: String,
    /// Application or runtime array.
    pub kind: Kind,
}

/// Metadata for one chare.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ChareInfo {
    /// This chare's id.
    pub id: ChareId,
    /// The array the chare belongs to.
    pub array: ArrayId,
    /// Index within the array.
    pub index: u32,
    /// Application or runtime chare. Application tasks are grouped by
    /// chare; runtime tasks by their PE (paper §2.1).
    pub kind: Kind,
    /// PE the chare was created on (its home before any migration).
    pub home_pe: PeId,
}

/// Metadata for an entry-method type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EntryInfo {
    /// This entry method's id.
    pub id: EntryId,
    /// Human-readable name, e.g. `"recvHalo"`.
    pub name: String,
    /// Structured Dagger parse-order number, if this entry was generated
    /// from an SDAG `serial` section (§2.1). Entries with consecutive
    /// numbers on the same chare are heuristically ordered.
    pub sdag_serial: Option<u32>,
    /// True for operations that are part of an abstracted collective
    /// (e.g. `MPI_Allreduce`). Tracing frameworks record this (paper
    /// §7.1: collectives are "represented as single calls"); the
    /// analysis merges each collective instance into one phase.
    pub collective: bool,
}

/// The communication pattern a declared signature promises.
///
/// Patterns are the *abstract* shapes the declaration layer can state
/// about a message type — the trace-side analogue of what a `.ci` file
/// registration (or an `.sts` entry-method table) reveals before any
/// event is recorded. The static skeleton analysis (`lsr-model`)
/// interprets them; the event stream never needs to be consulted to do
/// so.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CommPattern {
    /// Point-to-point within an index neighborhood: a chare at index
    /// `i` may only address indices `j` with `|i - j| <= radius`.
    Neighbor {
        /// Maximum index distance the signature admits.
        radius: u32,
    },
    /// Part of a collective combining/distribution tree (reduction,
    /// broadcast, allreduce) with the given branching factor.
    Tree {
        /// Expected branching factor of the combining tree (>= 1).
        arity: u32,
    },
    /// Unconstrained point-to-point (any pair of chares may talk).
    Any,
    /// The tracing layer could not classify this signature; the model
    /// degrades to "may communicate" for it (diagnostic `M006`).
    Unknown,
}

impl fmt::Display for CommPattern {
    /// The log-format token: `near:R`, `tree:A`, `any`, or `?`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommPattern::Neighbor { radius } => write!(f, "near:{radius}"),
            CommPattern::Tree { arity } => write!(f, "tree:{arity}"),
            CommPattern::Any => write!(f, "any"),
            CommPattern::Unknown => write!(f, "?"),
        }
    }
}

/// A declared message-type signature: the declaration layer's statement
/// that entry `src_entry` on chares of `src_array` may invoke
/// `dst_entry` on chares of `dst_array`, with the given pattern and
/// registered message volume.
///
/// Signatures belong to the trace's *declaration layer* (alongside
/// arrays, chares, and entry methods — they are written to the `.sts`
/// metadata file in the split layout, not to the per-PE event logs).
/// [`crate::TraceBuilder::build`] derives them from the recorded
/// messages when none were declared explicitly, the way a tracing
/// framework derives its registration table at startup.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SigInfo {
    /// This signature's id.
    pub id: SigId,
    /// Array whose chares send under this signature.
    pub src_array: ArrayId,
    /// Entry method the sending task executes.
    pub src_entry: EntryId,
    /// Array whose chares receive under this signature.
    pub dst_array: ArrayId,
    /// Entry method invoked on the destination.
    pub dst_entry: EntryId,
    /// The declared communication pattern.
    pub pattern: CommPattern,
    /// Registered message volume for this signature (an upper bound on
    /// traffic, used for static phase-count bounds; 0 means "declared
    /// but no volume registered").
    pub msgs: u64,
}

impl SigInfo {
    /// The (src array, src entry, dst array, dst entry) key that
    /// identifies the communication path.
    #[inline]
    pub fn key(&self) -> (ArrayId, EntryId, ArrayId, EntryId) {
        (self.src_array, self.src_entry, self.dst_array, self.dst_entry)
    }
}

/// What a dependency event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    /// The receive that awoke this task. `msg` is `None` for spontaneous
    /// tasks (e.g. the program's bootstrap task) that have no recorded
    /// trigger.
    Recv {
        /// The delivered message, when its send side was traced.
        msg: Option<MsgId>,
    },
    /// A remote method invocation issued from within the task.
    Send {
        /// First message carried by this send; broadcasts add more
        /// messages referencing the same event.
        msg: MsgId,
    },
}

impl EventKind {
    /// True for sends ("sources" in the paper's terminology).
    #[inline]
    pub fn is_source(self) -> bool {
        matches!(self, EventKind::Send { .. })
    }

    /// True for receives ("sinks").
    #[inline]
    pub fn is_sink(self) -> bool {
        matches!(self, EventKind::Recv { .. })
    }
}

/// One dependency event inside a task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct EventRec {
    /// This event's id.
    pub id: EventId,
    /// The task (serial block) containing the event.
    pub task: TaskId,
    /// When the event occurred.
    pub time: Time,
    /// Send or receive.
    pub kind: EventKind,
}

impl EventRec {
    /// True for sends ("sources").
    #[inline]
    pub fn is_source(&self) -> bool {
        self.kind.is_source()
    }

    /// True for receives ("sinks").
    #[inline]
    pub fn is_sink(&self) -> bool {
        self.kind.is_sink()
    }
}

/// One execution of an entry method: a serial block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TaskRec {
    /// This task's id.
    pub id: TaskId,
    /// The chare the entry method ran on.
    pub chare: ChareId,
    /// The entry-method type.
    pub entry: EntryId,
    /// The PE that executed the block (the chare's location at the time).
    pub pe: PeId,
    /// Begin timestamp.
    pub begin: Time,
    /// End timestamp.
    pub end: Time,
    /// The sink event (receive) that awoke the task, if traced.
    pub sink: Option<EventId>,
    /// Send events issued by the task, in physical-time order.
    pub sends: Vec<EventId>,
}

impl TaskRec {
    /// All dependency events of the block in order: sink first (if any),
    /// then sends.
    pub fn events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.sink.into_iter().chain(self.sends.iter().copied())
    }

    /// Number of dependency events in the block.
    pub fn event_count(&self) -> usize {
        usize::from(self.sink.is_some()) + self.sends.len()
    }
}

/// A message: the edge from a send event to the task it awakens.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MsgRec {
    /// This message's id.
    pub id: MsgId,
    /// The send event that produced the message.
    pub send_event: EventId,
    /// The task awakened by delivery, if the receive side was traced.
    /// `None` models dependencies lost to the runtime (paper Fig. 24).
    pub recv_task: Option<TaskId>,
    /// Destination chare.
    pub dst_chare: ChareId,
    /// Destination entry method.
    pub dst_entry: EntryId,
    /// Send timestamp (same as the send event's time).
    pub send_time: Time,
    /// Delivery timestamp (begin of the awakened task), if traced.
    pub recv_time: Option<Time>,
}

/// A span of recorded idle time on a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct IdleRec {
    /// The idle PE.
    pub pe: PeId,
    /// Start of the idle span.
    pub begin: Time,
    /// End of the idle span.
    pub end: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task_with(sink: Option<EventId>, sends: Vec<EventId>) -> TaskRec {
        TaskRec {
            id: TaskId(0),
            chare: ChareId(0),
            entry: EntryId(0),
            pe: PeId(0),
            begin: Time(0),
            end: Time(10),
            sink,
            sends,
        }
    }

    #[test]
    fn events_iterates_sink_then_sends() {
        let t = task_with(Some(EventId(5)), vec![EventId(6), EventId(7)]);
        let got: Vec<_> = t.events().collect();
        assert_eq!(got, vec![EventId(5), EventId(6), EventId(7)]);
        assert_eq!(t.event_count(), 3);
    }

    #[test]
    fn events_without_sink() {
        let t = task_with(None, vec![EventId(1)]);
        let got: Vec<_> = t.events().collect();
        assert_eq!(got, vec![EventId(1)]);
        assert_eq!(t.event_count(), 1);
    }

    #[test]
    fn comm_pattern_tokens() {
        assert_eq!(CommPattern::Neighbor { radius: 2 }.to_string(), "near:2");
        assert_eq!(CommPattern::Tree { arity: 4 }.to_string(), "tree:4");
        assert_eq!(CommPattern::Any.to_string(), "any");
        assert_eq!(CommPattern::Unknown.to_string(), "?");
    }

    #[test]
    fn sig_key_packs_endpoints() {
        let s = SigInfo {
            id: SigId(0),
            src_array: ArrayId(1),
            src_entry: EntryId(2),
            dst_array: ArrayId(3),
            dst_entry: EntryId(4),
            pattern: CommPattern::Any,
            msgs: 7,
        };
        assert_eq!(s.key(), (ArrayId(1), EntryId(2), ArrayId(3), EntryId(4)));
    }

    #[test]
    fn event_kind_predicates() {
        assert!(EventKind::Send { msg: MsgId(0) }.is_source());
        assert!(!EventKind::Send { msg: MsgId(0) }.is_sink());
        assert!(EventKind::Recv { msg: None }.is_sink());
        assert!(EventKind::Recv { msg: Some(MsgId(1)) }.is_sink());
    }
}

//! # lsr-trace
//!
//! Event-trace data model for task-based runtime traces, following the
//! model of Isaacs et al., *"Recovering Logical Structure from Charm++
//! Event Traces"* (SC '15).
//!
//! The central type is [`Trace`]: dense tables of chare arrays, chares,
//! entry methods, tasks (serial blocks), dependency events (sends and the
//! receive that awoke each task), messages, and idle spans. Traces are
//! constructed through [`TraceBuilder`], validated by [`validate()`], and
//! round-tripped through a Projections-style text log, either as one
//! document ([`logfmt`]) or as an `.sts` file plus one log per PE
//! ([`multifile`]). Both readers take one [`ReadOptions`].
//!
//! ```
//! use lsr_trace::{Kind, PeId, Time, TraceBuilder};
//!
//! let mut b = TraceBuilder::new(2);
//! let arr = b.add_array("workers", Kind::Application);
//! let a = b.add_chare(arr, 0, PeId(0));
//! let bch = b.add_chare(arr, 1, PeId(1));
//! let go = b.add_entry("go", None);
//!
//! let t0 = b.begin_task(a, go, PeId(0), Time(0));
//! let msg = b.record_send(t0, Time(5), bch, go);
//! b.end_task(t0, Time(10));
//! let t1 = b.begin_task_from(bch, go, PeId(1), Time(14), msg);
//! b.end_task(t1, Time(20));
//!
//! let trace = b.build().unwrap();
//! assert_eq!(trace.tasks.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod ids;
pub mod logfmt;
pub mod multifile;
mod quality;
mod reader;
mod record;
mod stats;
mod time;
mod trace;
pub mod validate;
mod window;

pub use builder::TraceBuilder;
pub use ids::{ArrayId, ChareId, EntryId, EventId, Kind, MsgId, PeId, SigId, TaskId};
pub use quality::QualityReport;
pub use reader::{IngestCode, IngestDiagnostic, IngestReport, Mode, ParseError, ReadOptions};
pub use record::{
    ArrayInfo, ChareInfo, CommPattern, EntryInfo, EventKind, EventRec, IdleRec, MsgRec, SigInfo,
    TaskRec,
};
pub use stats::TraceStats;
pub use time::{Dur, Time};
pub use trace::{Declarations, Lane, MsgEdge, Trace, TraceIndex};
pub use validate::{
    validate, validate_fast, validate_with_limit, ValidationError, DEFAULT_ERROR_LIMIT,
};
pub use window::window;

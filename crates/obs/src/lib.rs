//! # lsr-obs
//!
//! Self-instrumentation for the analysis pipeline: scoped wall-clock
//! **spans** and monotone **counters**, recorded through a cheaply
//! clonable [`Recorder`] handle and snapshotted into a schema-versioned
//! [`Profile`].
//!
//! The paper's contribution is making opaque event streams inspectable;
//! this crate turns the same idea on `lsr` itself. Every pipeline stage
//! (ingest → partition/merge → step assignment → metrics → render)
//! opens a span under the recorder carried by `lsr_core::Config`, and
//! the hot loops flush counters (bytes scanned, merges per rule, HB
//! reachability queries, phases ordered). `lsr <cmd> --profile`
//! renders the tree; `--profile-json` emits [`Profile::to_json`].
//!
//! **Zero cost when disabled.** A disabled recorder is a `None`; every
//! operation is a single branch on it, no allocation, no clock read.
//! The `exp_pipeline_profile` bench gates that a disabled-recorder
//! extraction stays within 5% of its own build with the calls compiled
//! out (the `noop` feature).
//!
//! **Instrumentation must never skew results.** The recorder only
//! observes; `tests/obs_properties.rs` holds a differential property
//! (enabled and disabled recorders produce bit-identical structures)
//! and [`Profile::validate`] checks the recording itself: every span
//! closed, nesting intact, counter totals consistent with their
//! monotone event log.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema identifier stamped into every [`Profile`] and its JSON form.
/// Bump the `/1` suffix on any breaking change to the JSON shape.
pub const PROFILE_SCHEMA: &str = "lsr-obs-profile/2";

// ---------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------

/// One recorded span: a named wall-clock interval nested under an
/// optional parent span.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: Option<u64>,
}

#[derive(Default)]
struct State {
    spans: Vec<SpanRec>,
    /// Indices of currently open spans, outermost first.
    stack: Vec<usize>,
    /// Counter totals, keyed by name, insertion-ordered.
    counters: Vec<(&'static str, u64)>,
    /// Every positive delta ever added, in order — the monotonicity
    /// witness [`Profile::validate`] checks totals against.
    events: Vec<(&'static str, u64)>,
    /// Recorder misuse detected at runtime (double close, unbalanced
    /// close). Never produced by well-behaved guards; kept so the
    /// defensive paths are themselves testable.
    anomalies: Vec<String>,
}

struct Inner {
    epoch: Instant,
    state: Mutex<State>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Handle to a span/counter recording session.
///
/// Clones share the same session. The default handle is **disabled**:
/// every operation returns immediately after one branch, so carrying a
/// `Recorder` through `Config` costs nothing unless a caller opted in
/// with [`Recorder::enabled`].
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Recorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.inner.is_some() { "Recorder(enabled)" } else { "Recorder(disabled)" })
    }
}

impl Recorder {
    /// A recorder that records nothing (the default).
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder; its clock starts now.
    pub fn enabled() -> Recorder {
        #[cfg(feature = "noop")]
        {
            Recorder { inner: None }
        }
        #[cfg(not(feature = "noop"))]
        {
            Recorder {
                inner: Some(Arc::new(Inner {
                    epoch: Instant::now(),
                    state: Mutex::new(State::default()),
                })),
            }
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a scoped span; it closes when the returned guard drops.
    /// Nesting follows guard scopes: a span opened while another is
    /// open becomes its child. Open and close spans on one thread;
    /// worker threads should count locally and let the coordinator
    /// flush (see [`Recorder::add`]).
    #[inline]
    pub fn span(&self, name: &'static str) -> Span {
        #[cfg(feature = "noop")]
        {
            let _ = name;
            Span { rec: None }
        }
        #[cfg(not(feature = "noop"))]
        {
            let Some(inner) = &self.inner else {
                return Span { rec: None };
            };
            let start_ns = inner.now_ns();
            let mut st = inner.state.lock().expect("obs state poisoned");
            let parent = st.stack.last().copied();
            let idx = st.spans.len();
            st.spans.push(SpanRec { name, parent, start_ns, dur_ns: None });
            st.stack.push(idx);
            Span { rec: Some((Arc::clone(inner), idx)) }
        }
    }

    /// Adds `delta` to the named counter. Counters are **monotone**:
    /// there is no set or reset, only positive increments, so a
    /// counter can never move backwards within a run. `delta == 0` is
    /// a no-op (the counter is not created).
    #[inline]
    pub fn add(&self, name: &'static str, delta: u64) {
        #[cfg(feature = "noop")]
        {
            let _ = (name, delta);
        }
        #[cfg(not(feature = "noop"))]
        {
            let Some(inner) = &self.inner else { return };
            if delta == 0 {
                return;
            }
            let mut st = inner.state.lock().expect("obs state poisoned");
            match st.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += delta,
                None => st.counters.push((name, delta)),
            }
            st.events.push((name, delta));
        }
    }

    /// Current counter totals, `(name, total)`, insertion-ordered.
    /// Useful for asserting monotonicity mid-run (the property tests
    /// snapshot between pipeline stages).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let st = inner.state.lock().expect("obs state poisoned");
        st.counters.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
    }

    /// Snapshots the session into a [`Profile`]. `None` when disabled.
    /// Open spans stay open in the snapshot (so a mid-run snapshot is
    /// honest); take the profile after the work finishes for a clean
    /// [`Profile::validate`].
    pub fn profile(&self, command: &str) -> Option<Profile> {
        let inner = self.inner.as_ref()?;
        let total_ns = inner.now_ns();
        let st = inner.state.lock().expect("obs state poisoned");
        Some(Profile {
            schema: PROFILE_SCHEMA.to_owned(),
            command: command.to_owned(),
            total_ns,
            spans: st
                .spans
                .iter()
                .map(|s| ProfileSpan {
                    name: s.name.to_owned(),
                    parent: s.parent,
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                })
                .collect(),
            counters: st
                .counters
                .iter()
                .map(|&(n, v)| Counter { name: n.to_owned(), total: v })
                .collect(),
            counter_events: st
                .events
                .iter()
                .map(|&(n, d)| CounterEvent { name: n.to_owned(), delta: d })
                .collect(),
            anomalies: st.anomalies.clone(),
        })
    }

    /// Test hook: force an unmatched close of the most recent span with
    /// `name`, simulating a buggy caller that closes a span twice or
    /// out of order. Records an anomaly; never used by real call sites.
    #[doc(hidden)]
    pub fn __force_close(&self, name: &str) {
        let Some(inner) = &self.inner else { return };
        let now = inner.now_ns();
        let mut st = inner.state.lock().expect("obs state poisoned");
        let Some(idx) = st.spans.iter().rposition(|s| s.name == name) else {
            st.anomalies.push(format!("close of never-opened span {name:?}"));
            return;
        };
        close_span(&mut st, idx, now);
    }
}

/// Closes `idx` at time `now`, recording an anomaly on misuse.
fn close_span(st: &mut State, idx: usize, now: u64) {
    let name = st.spans[idx].name;
    if st.spans[idx].dur_ns.is_some() {
        st.anomalies.push(format!("span {name:?} closed twice"));
        return;
    }
    st.spans[idx].dur_ns = Some(now.saturating_sub(st.spans[idx].start_ns));
    match st.stack.last() {
        Some(&top) if top == idx => {
            st.stack.pop();
        }
        _ => {
            // Closed while children were still open (or never on the
            // stack): note it and unwind anything above it.
            st.anomalies.push(format!("span {name:?} closed out of nesting order"));
            if let Some(pos) = st.stack.iter().position(|&i| i == idx) {
                st.stack.truncate(pos);
            }
        }
    }
}

/// Guard for an open span; closes it on drop.
#[must_use = "a span closes when this guard drops; binding it to _ closes immediately"]
pub struct Span {
    rec: Option<(Arc<Inner>, usize)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((inner, idx)) = self.rec.take() else { return };
        let now = inner.now_ns();
        let mut st = inner.state.lock().expect("obs state poisoned");
        close_span(&mut st, idx, now);
    }
}

// ---------------------------------------------------------------------
// Profile
// ---------------------------------------------------------------------

/// One span in a snapshot. Fields are public so renderers and tests can
/// inspect (and, in mutation tests, corrupt) the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileSpan {
    /// Span name (a static stage identifier at record time).
    pub name: String,
    /// Index of the enclosing span in [`Profile::spans`], if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// Duration; `None` when the span was still open at snapshot time.
    pub dur_ns: Option<u64>,
}

/// A counter total at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counter {
    /// Counter name, e.g. `core.merges.dependency`.
    pub name: String,
    /// Final value: the sum of all recorded deltas.
    pub total: u64,
}

/// One monotone increment in the order it was recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterEvent {
    /// Counter the delta applies to.
    pub name: String,
    /// The increment; always positive for a well-formed recording.
    pub delta: u64,
}

/// A finished snapshot of one recording session.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Always [`PROFILE_SCHEMA`] for profiles produced by this version.
    pub schema: String,
    /// The command or operation the session covered.
    pub command: String,
    /// Nanoseconds from enabling the recorder to the snapshot.
    pub total_ns: u64,
    /// All spans, in open order; parents precede children.
    pub spans: Vec<ProfileSpan>,
    /// Counter totals, in first-touch order.
    pub counters: Vec<Counter>,
    /// Every increment, in record order.
    pub counter_events: Vec<CounterEvent>,
    /// Recorder misuse detected during the run (empty when healthy).
    pub anomalies: Vec<String>,
}

/// A well-formedness violation found by [`Profile::validate`] or
/// [`Profile::expect_spans`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// A span was never closed.
    UnclosedSpan {
        /// The open span's name.
        name: String,
    },
    /// A span's parent index is not an earlier span.
    BadParent {
        /// The offending span's name.
        name: String,
    },
    /// A child span starts before or ends after its parent.
    ChildEscapesParent {
        /// The child span's name.
        child: String,
        /// The parent span's name.
        parent: String,
    },
    /// A counter's total does not equal the sum of its event deltas —
    /// the signature of a zeroed or otherwise tampered counter.
    CounterMismatch {
        /// The counter's name.
        name: String,
        /// The (inconsistent) stored total.
        total: u64,
        /// The sum of the recorded deltas.
        event_sum: u64,
    },
    /// A recorded increment is zero or missing its counter — counters
    /// must move strictly forward.
    NonMonotoneEvent {
        /// The counter's name.
        name: String,
    },
    /// The recorder itself flagged misuse at run time.
    Anomaly {
        /// The recorded anomaly message.
        message: String,
    },
    /// A span the caller requires is absent (see
    /// [`Profile::expect_spans`]).
    MissingSpan {
        /// The required span's name.
        name: String,
    },
    /// The schema tag is not the one this library writes.
    SchemaMismatch {
        /// The profile's schema string.
        found: String,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::UnclosedSpan { name } => write!(f, "span {name:?} was never closed"),
            ProfileError::BadParent { name } => {
                write!(f, "span {name:?} has an invalid parent index")
            }
            ProfileError::ChildEscapesParent { child, parent } => {
                write!(f, "span {child:?} escapes its parent {parent:?}")
            }
            ProfileError::CounterMismatch { name, total, event_sum } => {
                write!(f, "counter {name:?} total {total} disagrees with its event sum {event_sum}")
            }
            ProfileError::NonMonotoneEvent { name } => {
                write!(f, "counter {name:?} has a non-positive or orphaned increment")
            }
            ProfileError::Anomaly { message } => write!(f, "recorder anomaly: {message}"),
            ProfileError::MissingSpan { name } => write!(f, "required span {name:?} is missing"),
            ProfileError::SchemaMismatch { found } => {
                write!(f, "schema {found:?} is not {PROFILE_SCHEMA:?}")
            }
        }
    }
}

impl Profile {
    /// Checks the recording's own invariants: schema tag intact, every
    /// span closed with a valid parent and nested inside it, every
    /// counter total equal to the sum of its strictly positive event
    /// deltas, and no runtime anomalies. Returns every violation found
    /// (empty for a healthy profile).
    pub fn validate(&self) -> Vec<ProfileError> {
        let mut errs = Vec::new();
        if self.schema != PROFILE_SCHEMA {
            errs.push(ProfileError::SchemaMismatch { found: self.schema.clone() });
        }
        for (i, s) in self.spans.iter().enumerate() {
            let Some(dur) = s.dur_ns else {
                errs.push(ProfileError::UnclosedSpan { name: s.name.clone() });
                continue;
            };
            if let Some(p) = s.parent {
                if p >= i {
                    errs.push(ProfileError::BadParent { name: s.name.clone() });
                    continue;
                }
                let parent = &self.spans[p];
                let escapes = s.start_ns < parent.start_ns
                    || match parent.dur_ns {
                        Some(pd) => s.start_ns + dur > parent.start_ns + pd,
                        None => false, // open parent: child cannot escape yet
                    };
                if escapes {
                    errs.push(ProfileError::ChildEscapesParent {
                        child: s.name.clone(),
                        parent: parent.name.clone(),
                    });
                }
            }
        }
        let mut sums: Vec<(&str, u64)> = Vec::new();
        for e in &self.counter_events {
            if e.delta == 0 {
                errs.push(ProfileError::NonMonotoneEvent { name: e.name.clone() });
            }
            match sums.iter_mut().find(|(n, _)| *n == e.name) {
                Some((_, s)) => *s += e.delta,
                None => sums.push((&e.name, e.delta)),
            }
        }
        for c in &self.counters {
            let event_sum = sums.iter().find(|(n, _)| *n == c.name).map(|&(_, s)| s).unwrap_or(0);
            if event_sum != c.total {
                errs.push(ProfileError::CounterMismatch {
                    name: c.name.clone(),
                    total: c.total,
                    event_sum,
                });
            }
        }
        for (name, _) in &sums {
            if !self.counters.iter().any(|c| c.name == *name) {
                errs.push(ProfileError::NonMonotoneEvent { name: (*name).to_owned() });
            }
        }
        for message in &self.anomalies {
            errs.push(ProfileError::Anomaly { message: message.clone() });
        }
        errs
    }

    /// Requires every named span to be present (the stage-coverage
    /// check: a pipeline run that silently dropped a stage span fails
    /// here even if the remaining tree is self-consistent).
    pub fn expect_spans(&self, required: &[&str]) -> Vec<ProfileError> {
        required
            .iter()
            .filter(|name| !self.spans.iter().any(|s| s.name == **name))
            .map(|name| ProfileError::MissingSpan { name: (*name).to_owned() })
            .collect()
    }

    /// Names of the direct children of the first span called `parent`,
    /// in start order — what the nesting-order tests compare against
    /// the pipeline's canonical stage sequence.
    pub fn children_of(&self, parent: &str) -> Vec<String> {
        let Some(pidx) = self.spans.iter().position(|s| s.name == parent) else {
            return Vec::new();
        };
        let mut kids: Vec<(u64, usize, &ProfileSpan)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(pidx))
            .map(|(i, s)| (s.start_ns, i, s))
            .collect();
        kids.sort_by_key(|&(start, i, _)| (start, i));
        kids.into_iter().map(|(_, _, s)| s.name.clone()).collect()
    }

    /// Total of the named counter, or `None` if it never fired.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.total)
    }

    /// Serializes to the documented JSON schema
    /// (`docs/observability.md`): stable key order, nanosecond integer
    /// times, `null` for open spans and root parents.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(&self.schema)));
        out.push_str(&format!("  \"command\": {},\n", json_str(&self.command)));
        out.push_str(&format!("  \"total_ns\": {},\n", self.total_ns));
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let dur = s.dur_ns.map_or("null".to_owned(), |d| d.to_string());
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"parent\": {}, \"start_ns\": {}, \"dur_ns\": {}}}",
                json_str(&s.name),
                parent,
                s.start_ns,
                dur
            ));
        }
        out.push_str(if self.spans.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(&c.name), c.total));
        }
        out.push_str(if self.counters.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"counter_events\": [");
        for (i, e) in self.counter_events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"delta\": {}}}",
                json_str(&e.name),
                e.delta
            ));
        }
        out.push_str(if self.counter_events.is_empty() { "],\n" } else { "\n  ],\n" });
        out.push_str("  \"anomalies\": [");
        for (i, a) in self.anomalies.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(a));
        }
        out.push_str("]\n}\n");
        out
    }
}

/// JSON string literal with the escapes the profile can need.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Only the non-noop tests build a real profile; under `noop` the
    // recorder records nothing, so this helper would be dead code.
    #[cfg(not(feature = "noop"))]
    fn healthy_profile() -> Profile {
        let rec = Recorder::enabled();
        {
            let _outer = rec.span("outer");
            {
                let _a = rec.span("a");
                rec.add("hits", 2);
            }
            let _b = rec.span("b");
            rec.add("hits", 3);
            rec.add("bytes", 10);
        }
        rec.profile("test").expect("enabled recorder yields a profile")
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        let _s = rec.span("x");
        rec.add("c", 5);
        assert!(rec.counters().is_empty());
        assert!(rec.profile("noop").is_none());
        assert_eq!(format!("{rec:?}"), "Recorder(disabled)");
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn spans_nest_and_close() {
        let p = healthy_profile();
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        assert_eq!(p.children_of("outer"), ["a", "b"]);
        assert_eq!(p.counter("hits"), Some(5));
        assert_eq!(p.counter("bytes"), Some(10));
        assert_eq!(p.counter("absent"), None);
        assert!(p.expect_spans(&["outer", "a", "b"]).is_empty());
        assert_eq!(
            p.expect_spans(&["outer", "gone"]),
            [ProfileError::MissingSpan { name: "gone".to_owned() }]
        );
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn zero_delta_is_a_no_op() {
        let rec = Recorder::enabled();
        rec.add("c", 0);
        assert!(rec.counters().is_empty());
        rec.add("c", 1);
        assert_eq!(rec.counters(), [("c".to_owned(), 1)]);
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn open_span_is_reported_unclosed() {
        let rec = Recorder::enabled();
        let guard = rec.span("open");
        let p = rec.profile("mid").unwrap();
        assert_eq!(p.validate(), [ProfileError::UnclosedSpan { name: "open".to_owned() }]);
        drop(guard);
        assert!(rec.profile("after").unwrap().validate().is_empty());
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn forced_double_close_records_an_anomaly() {
        let rec = Recorder::enabled();
        drop(rec.span("s"));
        rec.__force_close("s");
        let p = rec.profile("t").unwrap();
        assert!(p
            .validate()
            .iter()
            .any(|e| matches!(e, ProfileError::Anomaly { message } if message.contains("twice"))));
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn out_of_order_close_records_an_anomaly() {
        let rec = Recorder::enabled();
        let _outer = rec.span("outer");
        let _inner = rec.span("inner");
        rec.__force_close("outer");
        let p = rec.profile("t").unwrap();
        assert!(p.validate().iter().any(
            |e| matches!(e, ProfileError::Anomaly { message } if message.contains("nesting"))
        ));
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn validate_catches_zeroed_counters() {
        let mut p = healthy_profile();
        p.counters[0].total = 0;
        assert!(p
            .validate()
            .iter()
            .any(|e| matches!(e, ProfileError::CounterMismatch { name, .. } if name == "hits")));
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn validate_catches_bad_parents_and_escapes() {
        let mut p = healthy_profile();
        let n = p.spans.len();
        p.spans[1].parent = Some(n + 3);
        assert!(p.validate().iter().any(|e| matches!(e, ProfileError::BadParent { .. })));

        let mut p = healthy_profile();
        p.spans[1].dur_ns = Some(u64::MAX / 2);
        assert!(p.validate().iter().any(|e| matches!(e, ProfileError::ChildEscapesParent { .. })));
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn json_matches_schema_shape() {
        let p = healthy_profile();
        let j = p.to_json();
        assert!(j.contains("\"schema\": \"lsr-obs-profile/2\""));
        assert!(j.contains("\"command\": \"test\""));
        assert!(j.contains("\"spans\": ["));
        assert!(j.contains("\"counters\": {"));
        assert!(j.contains("\"hits\": 5"));
        assert!(j.contains("\"anomalies\": []"));
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[cfg(not(feature = "noop"))]
    #[test]
    fn counters_are_shared_across_clones() {
        let rec = Recorder::enabled();
        let other = rec.clone();
        rec.add("c", 1);
        other.add("c", 2);
        assert_eq!(rec.counters(), [("c".to_owned(), 3)]);
        assert_eq!(format!("{rec:?}"), "Recorder(enabled)");
    }
}

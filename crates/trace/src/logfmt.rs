//! A Projections-style plain-text log format.
//!
//! Charm++ ships a line-oriented log format consumed by Projections; we
//! provide an equivalent so traces can be written by the simulators,
//! stored, and re-read by the analysis.
//!
//! One record per line; the record tag comes first; names (which may
//! contain spaces) always come last on their line.
//!
//! Parsing is handled by the streaming reader module: a
//! single pass with zero-copy field splitting, order-independent record
//! resolution, and an optional salvage mode ([`Mode::Salvage`]) that
//! skips malformed records and reports them as `I` diagnostics.

pub use crate::reader::ParseError;
use crate::reader::{IngestReport, Loader, Mode, ReadOptions, Section};
use crate::trace::Trace;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

pub(crate) const HEADER: &str = "LSRTRACE 1";

/// Serializes a trace into the text log format.
pub fn write_log<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "{HEADER}").unwrap();
    writeln!(buf, "PES {}", trace.pe_count).unwrap();
    for a in &trace.arrays {
        let k = if a.kind.is_runtime() { "R" } else { "A" };
        writeln!(buf, "ARRAY {} {} {}", a.id.0, k, a.name).unwrap();
    }
    for c in &trace.chares {
        writeln!(buf, "CHARE {} {} {} {}", c.id.0, c.array.0, c.index, c.home_pe.0).unwrap();
    }
    for e in &trace.entries {
        let s = e.sdag_serial.map_or("-".to_owned(), |n| n.to_string());
        let c = if e.collective { "C" } else { "-" };
        writeln!(buf, "ENTRY {} {} {} {}", e.id.0, s, c, e.name).unwrap();
    }
    for s in &trace.sigs {
        writeln!(
            buf,
            "SIG {} {} {} {} {} {} {}",
            s.id.0, s.src_array.0, s.src_entry.0, s.dst_array.0, s.dst_entry.0, s.pattern, s.msgs
        )
        .unwrap();
    }
    for t in &trace.tasks {
        let sink = t.sink.map_or("-".to_owned(), |s| s.0.to_string());
        writeln!(
            buf,
            "TASK {} {} {} {} {} {} {}",
            t.id.0, t.chare.0, t.entry.0, t.pe.0, t.begin.0, t.end.0, sink
        )
        .unwrap();
    }
    for ev in &trace.events {
        match ev.kind {
            crate::record::EventKind::Recv { msg } => {
                let m = msg.map_or("-".to_owned(), |m| m.0.to_string());
                writeln!(buf, "RECV {} {} {} {}", ev.id.0, ev.task.0, ev.time.0, m).unwrap();
            }
            crate::record::EventKind::Send { msg } => {
                writeln!(buf, "SEND {} {} {} {}", ev.id.0, ev.task.0, ev.time.0, msg.0).unwrap();
            }
        }
    }
    for m in &trace.msgs {
        let rt = m.recv_task.map_or("-".to_owned(), |t| t.0.to_string());
        let rtime = m.recv_time.map_or("-".to_owned(), |t| t.0.to_string());
        writeln!(
            buf,
            "MSG {} {} {} {} {} {} {}",
            m.id.0, m.send_event.0, m.dst_chare.0, m.dst_entry.0, m.send_time.0, rt, rtime
        )
        .unwrap();
    }
    for i in &trace.idles {
        writeln!(buf, "IDLE {} {} {}", i.pe.0, i.begin.0, i.end.0).unwrap();
    }
    w.write_all(buf.as_bytes())
}

/// Serializes a trace into an in-memory string.
pub fn to_log_string(trace: &Trace) -> String {
    let mut out = Vec::new();
    write_log(trace, &mut out).expect("writing to Vec cannot fail");
    String::from_utf8(out).expect("log format is ASCII")
}

/// Reads the text log format. Records may appear in any order: a `SEND`
/// may precede its `TASK`, a `CHARE` its `ARRAY`; cross-references are
/// resolved after the scan. `opts` chooses how strictly (see [`Mode`])
/// and where the ingest counters go. The [`IngestReport`] lists what
/// [`Mode::Salvage`] skipped; it is clean in the other modes.
pub fn read_log<R: BufRead>(r: R, opts: &ReadOptions) -> Result<(Trace, IngestReport), ParseError> {
    let salvage = opts.mode == Mode::Salvage;
    let mut ld = Loader::new(salvage);
    let saw = ld.scan(r, None, HEADER, &|_| format!("expected {HEADER:?}"), Section::Whole)?;
    if !saw {
        if !salvage {
            return Err(ParseError::whole("empty input (missing header)"));
        }
        ld.file_diag(None, "empty input (missing header)".to_owned());
    }
    opts.finish(ld)
}

/// Parses a validated [`Trace`] from an in-memory string.
pub fn from_log_str(s: &str) -> Result<Trace, ParseError> {
    read_log(s.as_bytes(), &ReadOptions::default()).map(|(t, _)| t)
}

// Checked and unchecked reads in the earlier one-function-per-mode
// form, kept for callers that still use it.
#[doc(hidden)]
pub fn read_log_with<R: BufRead>(r: R, rec: &lsr_obs::Recorder) -> Result<Trace, ParseError> {
    read_log(r, &ReadOptions { mode: Mode::Checked, recorder: rec.clone() }).map(|(t, _)| t)
}

#[doc(hidden)]
pub fn read_log_unchecked_with<R: BufRead>(
    r: R,
    rec: &lsr_obs::Recorder,
) -> Result<Trace, ParseError> {
    read_log(r, &ReadOptions { mode: Mode::Unchecked, recorder: rec.clone() }).map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::{EventId, Kind, PeId};
    use crate::reader::IngestCode;
    use crate::time::Time;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(2);
        let arr = b.add_array("jacobi block", Kind::Application);
        let rt = b.add_array("CkReductionMgr", Kind::Runtime);
        let c0 = b.add_chare(arr, 0, PeId(0));
        let c1 = b.add_chare(arr, 1, PeId(1));
        let mgr = b.add_chare(rt, 0, PeId(0));
        let e = b.add_entry("recvHalo", Some(2));
        let ctb = b.add_collective_entry("contribute");
        let t0 = b.begin_task(c0, e, PeId(0), Time(0));
        let m0 = b.record_send(t0, Time(3), c1, e);
        let m1 = b.record_send(t0, Time(4), mgr, ctb);
        b.end_task(t0, Time(5));
        let t1 = b.begin_task_from(c1, e, PeId(1), Time(9), m0);
        b.end_task(t1, Time(12));
        let t2 = b.begin_task_from(mgr, ctb, PeId(0), Time(7), m1);
        b.end_task(t2, Time(8));
        b.add_idle(PeId(1), Time(0), Time(9));
        b.build().unwrap()
    }

    #[test]
    fn roundtrip_preserves_trace() {
        let tr = sample();
        let text = to_log_string(&tr);
        let back = from_log_str(&text).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn names_with_spaces_survive() {
        let tr = sample();
        let back = from_log_str(&to_log_string(&tr)).unwrap();
        assert_eq!(back.arrays[0].name, "jacobi block");
        assert_eq!(back.entries[0].sdag_serial, Some(2));
    }

    #[test]
    fn names_with_whitespace_runs_survive() {
        // Regression: the old parser re-split the line and joined with
        // single spaces, collapsing "foo  bar" to "foo bar".
        let mut b = TraceBuilder::new(1);
        let arr = b.add_array("jacobi  block", Kind::Application);
        let c = b.add_chare(arr, 0, PeId(0));
        let e = b.add_entry("recv  halo\tstep", None);
        let t = b.begin_task(c, e, PeId(0), Time(0));
        b.end_task(t, Time(1));
        let tr = b.build().unwrap();
        let back = from_log_str(&to_log_string(&tr)).unwrap();
        assert_eq!(back.arrays[0].name, "jacobi  block");
        assert_eq!(back.entries[0].name, "recv  halo\tstep");
        assert_eq!(tr, back);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let tr = sample();
        let mut text = String::from("# a comment\n\n");
        text.push_str(&to_log_string(&tr));
        // from_log_str requires header first; comments before it are fine.
        let back = from_log_str(&text).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(from_log_str("PES 2\n").is_err());
        assert!(from_log_str("").is_err());
    }

    #[test]
    fn bad_tag_reports_line_number() {
        let err = from_log_str("LSRTRACE 1\nBOGUS 1 2 3\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("BOGUS"));
    }

    #[test]
    fn invalid_trace_is_rejected_at_parse() {
        // A TASK referencing a chare that doesn't exist.
        let text = "LSRTRACE 1\nPES 1\nENTRY 0 - - m\nTASK 0 5 0 0 0 1 -\n";
        let err = from_log_str(text).unwrap_err();
        assert!(err.to_string().contains("invalid trace"));
    }

    #[test]
    fn truncated_record_is_an_error() {
        let err = from_log_str("LSRTRACE 1\nPES\n").unwrap_err();
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn record_order_does_not_matter() {
        // Reversing every record line puts MSGs first, SENDs before
        // their TASKs, CHAREs before their ARRAYs, and PES last.
        let tr = sample();
        let text = to_log_string(&tr);
        let mut lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], HEADER);
        lines[1..].reverse();
        let back = from_log_str(&lines.join("\n")).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn forward_references_parse() {
        let text = "LSRTRACE 1\nSEND 0 0 1 0\nMSG 0 0 0 0 1 - -\nTASK 0 0 0 0 0 2 -\n\
                    CHARE 0 0 0 0\nARRAY 0 A w\nENTRY 0 - - e\nPES 1\n";
        let tr = from_log_str(text).unwrap();
        assert_eq!(tr.tasks[0].sends, vec![EventId(0)]);
        assert_eq!(tr.chares[0].kind, Kind::Application);
    }

    #[test]
    fn duplicate_id_is_an_error_with_line() {
        let text = "LSRTRACE 1\nPES 1\nARRAY 0 A x\nARRAY 0 A y\n";
        let err = from_log_str(text).unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn id_hole_is_an_error() {
        let err = from_log_str("LSRTRACE 1\nPES 1\nARRAY 1 A x\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("not dense"), "{err}");
    }

    #[test]
    fn salvage_on_clean_input_matches_strict() {
        let tr = sample();
        let text = to_log_string(&tr);
        let (back, rep) = read_log(text.as_bytes(), &Mode::Salvage.into()).unwrap();
        assert!(rep.is_clean(), "{rep:?}");
        assert_eq!(back, from_log_str(&text).unwrap());
    }

    #[test]
    fn salvage_skips_malformed_lines() {
        let tr = sample();
        let mut text = to_log_string(&tr);
        text.push_str("GARBAGE not a record\nTASK bogus\n");
        let (back, rep) = read_log(text.as_bytes(), &Mode::Salvage.into()).unwrap();
        assert_eq!(tr, back);
        assert_eq!(rep.skipped_records, 2);
        assert!(rep.diagnostics.iter().all(|d| d.code == IngestCode::MalformedRecord));
    }

    #[test]
    fn salvage_keeps_first_of_duplicate_ids() {
        let text = "LSRTRACE 1\nPES 1\nARRAY 0 A first\nARRAY 0 A second\n";
        let (tr, rep) = read_log(text.as_bytes(), &Mode::Salvage.into()).unwrap();
        assert_eq!(tr.arrays.len(), 1);
        assert_eq!(tr.arrays[0].name, "first");
        assert!(rep.diagnostics.iter().any(|d| d.code == IngestCode::DuplicateId));
    }

    #[test]
    fn salvage_cascades_dangling_references() {
        // TASK 1 references CHARE 9, which doesn't exist: the task goes,
        // its SEND goes with it, and the MSG carried by that send goes
        // too. TASK 0 survives untouched.
        let text = "LSRTRACE 1\nPES 1\nARRAY 0 A w\nCHARE 0 0 0 0\nENTRY 0 - - e\n\
                    TASK 0 0 0 0 0 5 -\nTASK 1 9 0 0 0 5 -\nSEND 0 1 1 0\nMSG 0 0 0 0 1 - -\n";
        let (tr, rep) = read_log(text.as_bytes(), &Mode::Salvage.into()).unwrap();
        assert_eq!(tr.tasks.len(), 1);
        assert!(tr.events.is_empty());
        assert!(tr.msgs.is_empty());
        assert_eq!(rep.skipped_records, 3);
        assert!(rep.diagnostics.iter().any(|d| d.code == IngestCode::DanglingReference));
        assert!(rep.diagnostics.iter().any(|d| d.code == IngestCode::TableCompacted));
    }
}

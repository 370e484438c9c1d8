//! Multi-file (per-PE) trace storage, Projections-style.
//!
//! Charm++ writes one log per processor plus a shared `.sts` metadata
//! file; the analysis tool merges them afterwards. This module provides
//! the same layout so simulated runs can be written the way a parallel
//! tracer would write them:
//!
//! * `<base>.sts` — run metadata: PE count, arrays, chares, entries,
//!   declared signatures;
//! * `<base>.<pe>.log` — the records of one PE: its serial blocks,
//!   their dependency events, messages *sent* from it, and idle spans.
//!
//! Ids are global, so merging is a deterministic sort; [`read_split`]
//! reassembles the records in id order.

use crate::logfmt::ParseError;
use crate::reader::{IngestReport, Loader, Mode, ReadOptions, Section};
use crate::trace::Trace;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// Writes `trace` as `<base>.sts` plus one `<base>.<pe>.log` per PE
/// into `dir`. Returns the number of files written.
pub fn write_split(trace: &Trace, dir: &Path, base: &str) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut sts = String::new();
    writeln!(sts, "LSRSTS 1").unwrap();
    writeln!(sts, "PES {}", trace.pe_count).unwrap();
    for a in &trace.arrays {
        let k = if a.kind.is_runtime() { "R" } else { "A" };
        writeln!(sts, "ARRAY {} {} {}", a.id.0, k, a.name).unwrap();
    }
    for c in &trace.chares {
        writeln!(sts, "CHARE {} {} {} {}", c.id.0, c.array.0, c.index, c.home_pe.0).unwrap();
    }
    for e in &trace.entries {
        let s = e.sdag_serial.map_or("-".to_owned(), |n| n.to_string());
        let c = if e.collective { "C" } else { "-" };
        writeln!(sts, "ENTRY {} {} {} {}", e.id.0, s, c, e.name).unwrap();
    }
    for s in &trace.sigs {
        writeln!(
            sts,
            "SIG {} {} {} {} {} {} {}",
            s.id.0, s.src_array.0, s.src_entry.0, s.dst_array.0, s.dst_entry.0, s.pattern, s.msgs
        )
        .unwrap();
    }
    std::fs::write(dir.join(format!("{base}.sts")), sts)?;

    let mut logs: Vec<String> = (0..trace.pe_count).map(|p| format!("LSRLOG {p}\n")).collect();
    for t in &trace.tasks {
        let log = &mut logs[t.pe.index()];
        let sink = t.sink.map_or("-".to_owned(), |s| s.0.to_string());
        writeln!(
            log,
            "TASK {} {} {} {} {} {} {}",
            t.id.0, t.chare.0, t.entry.0, t.pe.0, t.begin.0, t.end.0, sink
        )
        .unwrap();
        for e in t.events() {
            let ev = trace.event(e);
            match ev.kind {
                crate::record::EventKind::Recv { msg } => {
                    let m = msg.map_or("-".to_owned(), |m| m.0.to_string());
                    writeln!(log, "RECV {} {} {} {}", ev.id.0, ev.task.0, ev.time.0, m).unwrap();
                }
                crate::record::EventKind::Send { msg } => {
                    writeln!(log, "SEND {} {} {} {}", ev.id.0, ev.task.0, ev.time.0, msg.0)
                        .unwrap();
                }
            }
        }
    }
    // Messages live in the sender's log.
    for m in &trace.msgs {
        let sender_pe = trace.task(trace.event(m.send_event).task).pe;
        let rt = m.recv_task.map_or("-".to_owned(), |t| t.0.to_string());
        let rtime = m.recv_time.map_or("-".to_owned(), |t| t.0.to_string());
        writeln!(
            logs[sender_pe.index()],
            "MSG {} {} {} {} {} {} {}",
            m.id.0,
            m.send_event.0,
            m.dst_chare.0,
            m.dst_entry.0,
            m.send_time.0,
            rt,
            rtime
        )
        .unwrap();
    }
    for i in &trace.idles {
        writeln!(logs[i.pe.index()], "IDLE {} {} {}", i.pe.0, i.begin.0, i.end.0).unwrap();
    }
    for (p, log) in logs.iter().enumerate() {
        std::fs::write(dir.join(format!("{base}.{p}.log")), log)?;
    }
    Ok(trace.pe_count as usize + 1)
}

/// Reads a split trace written by [`write_split`], streaming each
/// per-PE log through the record reader — no merged intermediate
/// document is materialized, and every [`ParseError`] carries the file
/// and line it came from. `opts` works as for
/// [`crate::logfmt::read_log`]; in [`Mode::Salvage`] bad headers and
/// unreadable per-PE logs are reported too (the `.sts` file itself must
/// still open), and the counters sum over every file.
pub fn read_split(
    dir: &Path,
    base: &str,
    opts: &ReadOptions,
) -> Result<(Trace, IngestReport), ParseError> {
    let salvage = opts.mode == Mode::Salvage;
    let mut ld = Loader::new(salvage);
    let sts_name = format!("{base}.sts");
    let sts = File::open(dir.join(&sts_name)).map_err(|e| ParseError {
        file: Some(sts_name.clone()),
        line: 0,
        msg: format!("cannot read sts: {e}"),
    })?;
    ld.scan(
        BufReader::new(sts),
        Some(&sts_name),
        "LSRSTS 1",
        &|_| "bad sts header".to_owned(),
        Section::Metadata,
    )?;
    if !ld.saw_pes {
        if !salvage {
            return Err(ParseError {
                file: Some(sts_name),
                line: 0,
                msg: "sts missing PES".to_owned(),
            });
        }
        ld.file_diag(Some(sts_name), "sts missing PES; no per-PE logs will be read".to_owned());
    }
    for p in 0..ld.pe_count() {
        let name = format!("{base}.{p}.log");
        let path = dir.join(&name);
        match File::open(&path) {
            Ok(f) => {
                let header = format!("LSRLOG {p}");
                ld.scan(
                    BufReader::new(f),
                    Some(&name),
                    &header,
                    &|raw| format!("bad log header in pe {p}: {raw:?}"),
                    Section::Events,
                )?;
            }
            Err(e) => {
                let msg = format!("cannot read {}: {e}", path.display());
                if !salvage {
                    return Err(ParseError { file: Some(name), line: 0, msg });
                }
                ld.file_diag(Some(name), msg);
            }
        }
    }
    opts.finish(ld)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TraceBuilder;
    use crate::ids::{Kind, PeId};
    use crate::time::Time;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(3);
        let arr = b.add_array("work split", Kind::Application);
        let rt = b.add_array("mgr", Kind::Runtime);
        let cs: Vec<_> = (0..3).map(|i| b.add_chare(arr, i, PeId(i))).collect();
        let m0 = b.add_chare(rt, 0, PeId(0));
        let e = b.add_entry("go", Some(1));
        let coll = b.add_collective_entry("reduce");
        // Cross-PE chain 0 → 1 → 2 → mgr.
        let t0 = b.begin_task(cs[0], e, PeId(0), Time(0));
        let m01 = b.record_send(t0, Time(1), cs[1], e);
        b.end_task(t0, Time(2));
        let t1 = b.begin_task_from(cs[1], e, PeId(1), Time(10), m01);
        let m12 = b.record_send(t1, Time(11), cs[2], e);
        b.end_task(t1, Time(12));
        b.add_idle(PeId(1), Time(0), Time(10));
        let t2 = b.begin_task_from(cs[2], e, PeId(2), Time(20), m12);
        let m2m = b.record_send(t2, Time(21), m0, coll);
        b.end_task(t2, Time(22));
        let t3 = b.begin_task_from(m0, coll, PeId(0), Time(30), m2m);
        b.end_task(t3, Time(31));
        b.build().unwrap()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lsr_split_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn split_roundtrip_preserves_trace() {
        let tr = sample();
        let dir = tmp("roundtrip");
        let files = write_split(&tr, &dir, "run").unwrap();
        assert_eq!(files, 4, "sts + 3 PE logs");
        let back = read_split(&dir, "run", &ReadOptions::default()).unwrap().0;
        assert_eq!(tr, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn each_pe_log_only_holds_its_own_tasks() {
        let tr = sample();
        let dir = tmp("locality");
        write_split(&tr, &dir, "run").unwrap();
        let log1 = std::fs::read_to_string(dir.join("run.1.log")).unwrap();
        // PE1 executed exactly one task (t1) and its idle span.
        assert_eq!(log1.lines().filter(|l| l.starts_with("TASK")).count(), 1);
        assert_eq!(log1.lines().filter(|l| l.starts_with("IDLE")).count(), 1);
        // Its outgoing message lives here; PE2's does not.
        assert_eq!(log1.lines().filter(|l| l.starts_with("MSG")).count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_log_is_a_clean_error() {
        let tr = sample();
        let dir = tmp("missing");
        write_split(&tr, &dir, "run").unwrap();
        std::fs::remove_file(dir.join("run.2.log")).unwrap();
        let err = read_split(&dir, "run", &ReadOptions::default()).unwrap_err();
        assert!(err.to_string().contains("cannot read"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_log_header_is_rejected() {
        let tr = sample();
        let dir = tmp("header");
        write_split(&tr, &dir, "run").unwrap();
        let path = dir.join("run.0.log");
        let content = std::fs::read_to_string(&path).unwrap().replace("LSRLOG 0", "LSRLOG 9");
        std::fs::write(&path, content).unwrap();
        let err = read_split(&dir, "run", &ReadOptions::default()).unwrap_err();
        assert!(err.to_string().contains("bad log header"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_id_is_a_hard_error_naming_the_file() {
        // Regression: the old reader sorted lines by a parsed id with
        // `unwrap_or(u64::MAX)`, silently shuffling a record with a
        // mangled id to the end instead of reporting it.
        let tr = sample();
        let dir = tmp("badid");
        write_split(&tr, &dir, "run").unwrap();
        let path = dir.join("run.1.log");
        let content = std::fs::read_to_string(&path).unwrap().replace("TASK 1 ", "TASK x ");
        std::fs::write(&path, content).unwrap();
        let err = read_split(&dir, "run", &ReadOptions::default()).unwrap_err();
        assert_eq!(err.file.as_deref(), Some("run.1.log"), "{err}");
        assert!(err.line > 0, "{err}");
        assert!(err.to_string().contains("bad integer"), "{err}");
        // Salvage skips the record (and its dependents) instead.
        let (back, rep) = read_split(&dir, "run", &Mode::Salvage.into()).unwrap();
        assert!(back.tasks.len() < tr.tasks.len());
        assert!(rep.skipped_records > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_salvage_on_clean_input_matches_strict() {
        let tr = sample();
        let dir = tmp("salvage_clean");
        write_split(&tr, &dir, "run").unwrap();
        let (back, rep) = read_split(&dir, "run", &Mode::Salvage.into()).unwrap();
        assert!(rep.is_clean(), "{rep:?}");
        assert_eq!(tr, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_salvage_tolerates_a_missing_log() {
        let tr = sample();
        let dir = tmp("salvage_missing");
        write_split(&tr, &dir, "run").unwrap();
        std::fs::remove_file(dir.join("run.2.log")).unwrap();
        let (back, rep) = read_split(&dir, "run", &Mode::Salvage.into()).unwrap();
        // PE2's task (and the chain hanging off it) is gone, the rest
        // survives; the missing file is reported.
        assert!(back.tasks.len() < tr.tasks.len());
        assert!(!back.tasks.is_empty());
        assert!(rep.diagnostics.iter().any(|d| d.message.contains("cannot read")), "{rep:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

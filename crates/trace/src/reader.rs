//! Streaming, order-independent ingestion of the text log formats.
//!
//! The reader makes a single pass over each input file with a reused
//! line buffer and zero-copy field splitting ([`Fields`]), appending
//! typed records to per-table vectors together with their
//! file/line provenance ([`Src`]). Cross-references — a `CHARE`'s kind
//! (copied from its `ARRAY`), a task's `sends` list (built from its
//! `SEND` events) — are resolved *after* the scan, so record order in
//! the file does not matter: a `SEND` may precede its `TASK`, a `CHARE`
//! its `ARRAY`, and a `MSG` may appear anywhere.
//!
//! Two finishing modes share the scan:
//!
//! * **strict** — any malformed record, duplicate id, id-range hole, or
//!   dangling mandatory reference is a [`ParseError`] carrying the
//!   offending file and line;
//! * **salvage** — problems are skipped instead of fatal, each recorded
//!   as an [`IngestDiagnostic`] (codes `I001`–`I006`); dropped records
//!   cascade (a task whose chare was dropped is dropped too), optional
//!   links to dropped records are cleared, and the surviving tables are
//!   renumbered dense so the result is referentially intact by
//!   construction.

use crate::ids::{ArrayId, ChareId, EntryId, EventId, Kind, MsgId, PeId, SigId, TaskId};
use crate::record::{
    ArrayInfo, ChareInfo, CommPattern, EntryInfo, EventKind, EventRec, IdleRec, MsgRec, SigInfo,
    TaskRec,
};
use crate::time::Time;
use crate::trace::Trace;
use crate::validate::{validate_fast, MAX_PES};
use std::collections::HashMap;
use std::io::BufRead;

/// A parse failure, with the file (for split traces) and 1-based line
/// number where it occurred.
#[derive(Debug)]
pub struct ParseError {
    /// File the error occurred in, when reading a split trace.
    /// `None` for single-document input.
    pub file: Option<String>,
    /// 1-based line number (0 when the error is about a whole file).
    pub line: usize,
    /// Description of the problem.
    pub msg: String,
}

impl ParseError {
    pub(crate) fn whole(msg: impl Into<String>) -> ParseError {
        ParseError { file: None, line: 0, msg: msg.into() }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.file, self.line) {
            (Some(name), 0) => write!(f, "{name}: {}", self.msg),
            (Some(name), n) => write!(f, "{name}:{n}: {}", self.msg),
            (None, 0) => f.write_str(&self.msg),
            (None, n) => write!(f, "line {n}: {}", self.msg),
        }
    }
}

impl std::error::Error for ParseError {}

/// How strictly a trace is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Any malformed record is a [`ParseError`], and the loaded trace
    /// must pass [`crate::validate_fast`].
    #[default]
    Checked,
    /// Like `Checked` but without the final validation pass: any
    /// syntactically well-formed input loads, even one whose records
    /// violate the structural invariants. For diagnostic tooling
    /// (`lsr lint`) that reports the violations itself.
    Unchecked,
    /// Malformed records, duplicate ids, dangling references and (for
    /// split traces) unreadable per-PE logs are skipped instead of
    /// fatal, cascading through whatever depended on them, and reported
    /// in the [`IngestReport`] as `I001`–`I006` diagnostics. The
    /// surviving tables are renumbered dense, so the result is
    /// referentially intact by construction, but it is *not*
    /// semantically validated.
    Salvage,
}

/// How [`crate::logfmt::read_log`] and [`crate::multifile::read_split`]
/// read a trace.
#[derive(Debug, Clone, Default)]
pub struct ReadOptions {
    /// Strictness; see [`Mode`].
    pub mode: Mode,
    /// Receives the ingest tallies (the `ingest.*` counter family; see
    /// `docs/observability.md`). Disabled by default.
    pub recorder: lsr_obs::Recorder,
}

impl From<Mode> for ReadOptions {
    fn from(mode: Mode) -> ReadOptions {
        ReadOptions { mode, recorder: lsr_obs::Recorder::disabled() }
    }
}

impl ReadOptions {
    /// Finishes a read: resolves the loader's tables, flushes the
    /// ingest counters (before validation, so a refused trace is still
    /// counted) and, in [`Mode::Checked`], validates the result.
    pub(crate) fn finish(&self, ld: Loader) -> Result<(Trace, IngestReport), ParseError> {
        let (trace, report) = ld.finish()?;
        report.flush_counters(&self.recorder);
        if self.mode == Mode::Checked {
            validate_fast(&trace).map_err(|e| ParseError::whole(format!("invalid trace: {e}")))?;
        }
        Ok((trace, report))
    }
}

/// The ingestion-diagnostic family (`I` codes) produced by salvage
/// mode. Stable codes, documented in `docs/lints.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestCode {
    /// `I001` — a record line could not be parsed and was skipped.
    MalformedRecord,
    /// `I002` — a second record with an already-seen id was skipped.
    DuplicateId,
    /// `I003` — a record referencing a missing or dropped record (or an
    /// out-of-range PE) was dropped.
    DanglingReference,
    /// `I004` — an *optional* link (task sink, receive's message, a
    /// message's receive side) pointed at a dropped record and was
    /// cleared instead of dropping the referencing record.
    DowngradedLink,
    /// `I005` — a file header was missing or malformed, or a per-PE log
    /// could not be opened; the file was parsed headerless or skipped.
    BadFileHeader,
    /// `I006` — a table lost records or had sparse ids; surviving
    /// records were renumbered to a dense id range (summary, one per
    /// table), or the PE count was adjusted to cover the records.
    TableCompacted,
}

impl IngestCode {
    /// The stable diagnostic code, e.g. `"I003"`.
    pub fn code(self) -> &'static str {
        match self {
            IngestCode::MalformedRecord => "I001",
            IngestCode::DuplicateId => "I002",
            IngestCode::DanglingReference => "I003",
            IngestCode::DowngradedLink => "I004",
            IngestCode::BadFileHeader => "I005",
            IngestCode::TableCompacted => "I006",
        }
    }

    /// Short kebab-case name, e.g. `"dangling-reference"`.
    pub fn name(self) -> &'static str {
        match self {
            IngestCode::MalformedRecord => "malformed-record",
            IngestCode::DuplicateId => "duplicate-id",
            IngestCode::DanglingReference => "dangling-reference",
            IngestCode::DowngradedLink => "downgraded-link",
            IngestCode::BadFileHeader => "bad-file-header",
            IngestCode::TableCompacted => "table-compacted",
        }
    }

    /// One-sentence explanation of what the code means.
    pub fn explanation(self) -> &'static str {
        match self {
            IngestCode::MalformedRecord => "the line is not a well-formed record and was skipped",
            IngestCode::DuplicateId => {
                "a record with this id was already read; the later one was skipped"
            }
            IngestCode::DanglingReference => {
                "the record references a record that is missing or was itself dropped"
            }
            IngestCode::DowngradedLink => {
                "an optional cross-reference pointed at a dropped record and was cleared"
            }
            IngestCode::BadFileHeader => {
                "a file header was missing or wrong, or a per-PE log was unreadable"
            }
            IngestCode::TableCompacted => "surviving records were renumbered to a dense id range",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// One salvage finding: what was skipped or rewritten, and where.
#[derive(Debug, Clone)]
pub struct IngestDiagnostic {
    /// Which `I` code.
    pub code: IngestCode,
    /// File the problem was found in (split traces only).
    pub file: Option<String>,
    /// 1-based line number (0 for whole-file or whole-table findings).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for IngestDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.code.code(), self.code.name())?;
        match (&self.file, self.line) {
            (Some(name), 0) => write!(f, " {name}")?,
            (Some(name), n) => write!(f, " {name}:{n}")?,
            (None, 0) => {}
            (None, n) => write!(f, " line {n}")?,
        }
        write!(f, ": {}", self.message)
    }
}

/// Everything salvage mode did to produce a loadable trace.
#[derive(Debug, Clone, Default)]
pub struct IngestReport {
    /// Individual findings, capped per code (see [`IngestReport::suppressed`]).
    pub diagnostics: Vec<IngestDiagnostic>,
    /// Findings beyond the per-code cap, counted but not stored.
    pub suppressed: usize,
    /// Total records skipped or dropped.
    pub skipped_records: usize,
    /// Optional links cleared because their target was dropped.
    pub downgraded_links: usize,
    /// Raw bytes consumed from the input reader(s).
    pub bytes: u64,
    /// Lines scanned (including comments, blanks, and the header).
    pub lines: u64,
    /// Records parsed successfully into the staging tables (before any
    /// salvage cascade drops).
    pub records: u64,
}

impl IngestReport {
    /// True when the input was ingested without any intervention.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty() && self.suppressed == 0
    }

    /// One-line summary for status output.
    pub fn summary(&self) -> String {
        format!(
            "{} finding(s), {} record(s) skipped, {} link(s) downgraded",
            self.diagnostics.len() + self.suppressed,
            self.skipped_records,
            self.downgraded_links
        )
    }

    /// Flushes the ingest tallies onto an observability recorder (the
    /// `ingest.*` counter family; see `docs/observability.md`).
    pub fn flush_counters(&self, rec: &lsr_obs::Recorder) {
        if !rec.is_enabled() {
            return;
        }
        rec.add("ingest.bytes", self.bytes);
        rec.add("ingest.lines", self.lines);
        rec.add("ingest.records", self.records);
        rec.add("ingest.salvage.skipped", self.skipped_records as u64);
        rec.add("ingest.salvage.downgraded", self.downgraded_links as u64);
        rec.add("ingest.salvage.findings", (self.diagnostics.len() + self.suppressed) as u64);
    }
}

/// Cap on stored diagnostics per code; the rest are only counted.
const DIAG_CAP: usize = 64;

/// Where a record came from: file index into `Loader::files` (or
/// [`NO_FILE`] for single-document input) and 1-based line.
#[derive(Debug, Clone, Copy)]
struct Src {
    file: u32,
    line: u32,
}

const NO_FILE: u32 = u32::MAX;

fn file_of(files: &[String], src: Src) -> Option<String> {
    if src.file == NO_FILE {
        None
    } else {
        Some(files[src.file as usize].clone())
    }
}

fn src_err(files: &[String], src: Src, msg: String) -> ParseError {
    ParseError { file: file_of(files, src), line: src.line as usize, msg }
}

/// Diagnostic accumulator with the per-code cap.
#[derive(Default)]
struct DiagSink {
    diags: Vec<IngestDiagnostic>,
    counts: [usize; 6],
    suppressed: usize,
    skipped: usize,
    downgraded: usize,
}

impl DiagSink {
    fn push(&mut self, code: IngestCode, file: Option<String>, line: usize, message: String) {
        if self.counts[code.idx()] < DIAG_CAP {
            self.counts[code.idx()] += 1;
            self.diags.push(IngestDiagnostic { code, file, line, message });
        } else {
            self.suppressed += 1;
        }
    }

    fn into_report(self) -> IngestReport {
        IngestReport {
            diagnostics: self.diags,
            suppressed: self.suppressed,
            skipped_records: self.skipped,
            downgraded_links: self.downgraded,
            // Volume tallies live on the Loader; finish() fills them in.
            ..IngestReport::default()
        }
    }
}

/// Zero-copy whitespace-separated field cursor over one line of raw
/// bytes.
///
/// The scanner works on bytes end to end so no per-line UTF-8
/// validation pass is needed; only trailing *names* ([`Fields::rest`],
/// which preserves interior whitespace runs) are checked when they are
/// turned into `String`s. Numeric fields and record tags are pure
/// ASCII comparisons either way.
struct Fields<'a> {
    raw: &'a [u8],
    pos: usize,
}

impl<'a> Fields<'a> {
    fn new(raw: &'a [u8]) -> Fields<'a> {
        Fields { raw, pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.raw.len() && self.raw[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn next(&mut self) -> Option<&'a [u8]> {
        self.skip_ws();
        if self.pos >= self.raw.len() {
            return None;
        }
        let start = self.pos;
        while self.pos < self.raw.len() && !self.raw[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
        Some(&self.raw[start..self.pos])
    }

    /// The remaining tail of the line, trimmed of *surrounding* ASCII
    /// whitespace only: interior runs survive.
    fn rest(&mut self) -> &'a [u8] {
        self.skip_ws();
        let start = self.pos;
        self.pos = self.raw.len();
        let mut end = self.raw.len();
        while end > start && self.raw[end - 1].is_ascii_whitespace() {
            end -= 1;
        }
        &self.raw[start..end]
    }
}

/// Renders raw bytes for an error message; for the valid-UTF-8 inputs
/// the strict reader used to require, this prints exactly what the old
/// `&str`-based errors did.
fn lossy(b: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(b)
}

/// Converts a trailing name to an owned `String`, the only place the
/// reader requires valid UTF-8.
fn utf8_name(b: &[u8]) -> Result<String, String> {
    std::str::from_utf8(b).map(str::to_owned).map_err(|_| "name is not valid UTF-8".to_owned())
}

#[inline]
fn parse_u64(b: &[u8]) -> Option<u64> {
    if b.is_empty() {
        return None;
    }
    // 19 digits can never overflow a u64, so the common path needs no
    // per-digit overflow checks; longer strings (e.g. leading zeros)
    // take the checked loop.
    if b.len() <= 19 {
        let mut v: u64 = 0;
        for &c in b {
            let d = c.wrapping_sub(b'0');
            if d > 9 {
                return None;
            }
            v = v * 10 + u64::from(d);
        }
        return Some(v);
    }
    let mut v: u64 = 0;
    for &c in b {
        let d = c.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
    }
    Some(v)
}

fn u64_field(f: Option<&[u8]>) -> Result<u64, String> {
    let s = f.ok_or_else(|| "missing field".to_owned())?;
    parse_u64(s).ok_or_else(|| format!("bad integer {:?}", lossy(s)))
}

fn u32_field(f: Option<&[u8]>) -> Result<u32, String> {
    let s = f.ok_or_else(|| "missing field".to_owned())?;
    parse_u64(s)
        .and_then(|v| u32::try_from(v).ok())
        .ok_or_else(|| format!("bad integer {:?}", lossy(s)))
}

fn opt_u32_field(f: Option<&[u8]>) -> Result<Option<u32>, String> {
    match f {
        None => Err("missing field".to_owned()),
        Some(b"-") => Ok(None),
        Some(s) => parse_u64(s)
            .and_then(|v| u32::try_from(v).ok())
            .map(Some)
            .ok_or_else(|| format!("bad integer {:?}", lossy(s))),
    }
}

fn opt_u64_field(f: Option<&[u8]>) -> Result<Option<u64>, String> {
    match f {
        None => Err("missing field".to_owned()),
        Some(b"-") => Ok(None),
        Some(s) => parse_u64(s).map(Some).ok_or_else(|| format!("bad integer {:?}", lossy(s))),
    }
}

/// Parses a `SIG` pattern token: `near:R`, `tree:A`, `any`, or `?`.
fn pattern_field(f: Option<&[u8]>) -> Result<CommPattern, String> {
    let s = f.ok_or_else(|| "missing field".to_owned())?;
    match s {
        b"any" => return Ok(CommPattern::Any),
        b"?" => return Ok(CommPattern::Unknown),
        _ => {}
    }
    let bad = || format!("bad pattern {:?}", lossy(s));
    let colon = s.iter().position(|&b| b == b':').ok_or_else(bad)?;
    let n = parse_u64(&s[colon + 1..]).and_then(|v| u32::try_from(v).ok()).ok_or_else(bad)?;
    match &s[..colon] {
        b"near" => Ok(CommPattern::Neighbor { radius: n }),
        b"tree" => Ok(CommPattern::Tree { arity: n }),
        _ => Err(bad()),
    }
}

/// Which records a file kind may contain.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Section {
    /// Single-document trace: every record.
    Whole,
    /// `.sts` metadata: `PES`, `ARRAY`, `CHARE`, `ENTRY`.
    Metadata,
    /// Per-PE log: `TASK`, `RECV`, `SEND`, `MSG`, `IDLE`.
    Events,
}

/// A `CHARE` record before its kind is resolved from its array.
struct RawChare {
    id: ChareId,
    array: ArrayId,
    index: u32,
    home_pe: PeId,
}

/// The streaming loader: scan files in, finish once.
pub(crate) struct Loader {
    salvage: bool,
    files: Vec<String>,
    pe_count: u32,
    pub(crate) saw_pes: bool,
    arrays: Vec<(ArrayInfo, Src)>,
    chares: Vec<(RawChare, Src)>,
    entries: Vec<(EntryInfo, Src)>,
    sigs: Vec<(SigInfo, Src)>,
    tasks: Vec<(TaskRec, Src)>,
    events: Vec<(EventRec, Src)>,
    msgs: Vec<(MsgRec, Src)>,
    idles: Vec<IdleRec>,
    sink: DiagSink,
    /// Ingest-volume tallies (bytes/lines consumed, records parsed),
    /// surfaced on [`IngestReport`] for the obs counters.
    bytes: u64,
    lines: u64,
    records: u64,
}

impl Loader {
    pub(crate) fn new(salvage: bool) -> Loader {
        Loader {
            salvage,
            files: Vec::new(),
            pe_count: 0,
            saw_pes: false,
            arrays: Vec::new(),
            chares: Vec::new(),
            entries: Vec::new(),
            sigs: Vec::new(),
            tasks: Vec::new(),
            events: Vec::new(),
            msgs: Vec::new(),
            idles: Vec::new(),
            sink: DiagSink::default(),
            bytes: 0,
            lines: 0,
            records: 0,
        }
    }

    pub(crate) fn pe_count(&self) -> u32 {
        self.pe_count
    }

    /// Records a whole-file salvage finding (no scanned line to point at).
    pub(crate) fn file_diag(&mut self, file: Option<String>, msg: String) {
        self.sink.push(IngestCode::BadFileHeader, file, 0, msg);
    }

    fn diag(&mut self, code: IngestCode, src: Src, msg: String) {
        let file = file_of(&self.files, src);
        self.sink.push(code, file, src.line as usize, msg);
    }

    fn skip(&mut self, src: Src, msg: String) {
        self.diag(IngestCode::MalformedRecord, src, msg);
        self.sink.skipped += 1;
    }

    /// Streams one file through the record scanner. Returns whether a
    /// header line was seen. `header_err` renders the strict-mode error
    /// for a bad header line (given the offending line).
    pub(crate) fn scan<R: BufRead>(
        &mut self,
        mut r: R,
        file: Option<&str>,
        header: &str,
        header_err: &dyn Fn(&str) -> String,
        section: Section,
    ) -> Result<bool, ParseError> {
        let fidx = match file {
            Some(name) => {
                self.files.push(name.to_owned());
                (self.files.len() - 1) as u32
            }
            None => NO_FILE,
        };
        // Lines are borrowed straight out of the reader's buffer;
        // `spill` only fills in when a line spans a buffer refill, so
        // the common case performs no per-line copy.
        let mut spill: Vec<u8> = Vec::new();
        let mut lineno: u32 = 0;
        let mut saw_header = false;
        loop {
            let consumed = {
                let avail = match r.fill_buf() {
                    Ok(a) => a,
                    Err(e) => {
                        let src = Src { file: fidx, line: lineno + 1 };
                        return Err(src_err(&self.files, src, e.to_string()));
                    }
                };
                if avail.is_empty() {
                    if !spill.is_empty() {
                        lineno += 1;
                        let src = Src { file: fidx, line: lineno };
                        self.scan_line(&spill, src, &mut saw_header, header, header_err, section)?;
                    }
                    break;
                }
                match avail.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        lineno += 1;
                        let src = Src { file: fidx, line: lineno };
                        if spill.is_empty() {
                            self.scan_line(
                                &avail[..pos],
                                src,
                                &mut saw_header,
                                header,
                                header_err,
                                section,
                            )?;
                        } else {
                            spill.extend_from_slice(&avail[..pos]);
                            let line = std::mem::take(&mut spill);
                            self.scan_line(
                                &line,
                                src,
                                &mut saw_header,
                                header,
                                header_err,
                                section,
                            )?;
                            spill = line; // reuse the allocation
                            spill.clear();
                        }
                        pos + 1
                    }
                    None => {
                        spill.extend_from_slice(avail);
                        avail.len()
                    }
                }
            };
            self.bytes += consumed as u64;
            r.consume(consumed);
        }
        self.lines += lineno as u64;
        Ok(saw_header)
    }

    /// Handles one raw (untrimmed) line: comments, the header, then the
    /// record itself, with salvage-mode downgrades.
    fn scan_line(
        &mut self,
        raw: &[u8],
        src: Src,
        saw_header: &mut bool,
        header: &str,
        header_err: &dyn Fn(&str) -> String,
        section: Section,
    ) -> Result<(), ParseError> {
        let raw = raw.trim_ascii();
        if raw.is_empty() || raw[0] == b'#' {
            return Ok(());
        }
        if !*saw_header {
            if raw == header.as_bytes() {
                *saw_header = true;
                return Ok(());
            }
            if !self.salvage {
                return Err(src_err(&self.files, src, header_err(&lossy(raw))));
            }
            let msg = header_err(&lossy(raw));
            self.diag(IngestCode::BadFileHeader, src, msg);
            *saw_header = true; // fall through: try the line as a record
        }
        match self.record(raw, src, section) {
            Ok(()) => self.records += 1,
            Err(msg) => {
                if !self.salvage {
                    return Err(src_err(&self.files, src, msg));
                }
                self.skip(src, msg);
            }
        }
        Ok(())
    }

    /// Parses one record line into the staging tables.
    fn record(&mut self, raw: &[u8], src: Src, section: Section) -> Result<(), String> {
        let mut f = Fields::new(raw);
        let tag = f.next().expect("non-empty line has a field");
        let meta_ok = section != Section::Events;
        let ev_ok = section != Section::Metadata;
        match tag {
            b"PES" if meta_ok => {
                self.pe_count = u32_field(f.next())?;
                self.saw_pes = true;
            }
            b"ARRAY" if meta_ok => {
                let id = ArrayId(u32_field(f.next())?);
                let kind = match f.next() {
                    Some(b"A") => Kind::Application,
                    Some(b"R") => Kind::Runtime,
                    other => return Err(format!("bad kind {:?}", other.map(lossy))),
                };
                let name = utf8_name(f.rest())?;
                self.arrays.push((ArrayInfo { id, name, kind }, src));
            }
            b"CHARE" if meta_ok => {
                let id = ChareId(u32_field(f.next())?);
                let array = ArrayId(u32_field(f.next())?);
                let index = u32_field(f.next())?;
                let home_pe = PeId(u32_field(f.next())?);
                self.chares.push((RawChare { id, array, index, home_pe }, src));
            }
            b"ENTRY" if meta_ok => {
                let id = EntryId(u32_field(f.next())?);
                let sdag_serial = opt_u32_field(f.next())?;
                let collective = match f.next() {
                    Some(b"C") => true,
                    Some(b"-") => false,
                    other => return Err(format!("bad collective flag {:?}", other.map(lossy))),
                };
                let name = utf8_name(f.rest())?;
                self.entries.push((EntryInfo { id, name, sdag_serial, collective }, src));
            }
            b"SIG" if meta_ok => {
                let id = SigId(u32_field(f.next())?);
                let src_array = ArrayId(u32_field(f.next())?);
                let src_entry = EntryId(u32_field(f.next())?);
                let dst_array = ArrayId(u32_field(f.next())?);
                let dst_entry = EntryId(u32_field(f.next())?);
                let pattern = pattern_field(f.next())?;
                let msgs = u64_field(f.next())?;
                self.sigs.push((
                    SigInfo { id, src_array, src_entry, dst_array, dst_entry, pattern, msgs },
                    src,
                ));
            }
            b"TASK" if ev_ok => {
                let id = TaskId(u32_field(f.next())?);
                let chare = ChareId(u32_field(f.next())?);
                let entry = EntryId(u32_field(f.next())?);
                let pe = PeId(u32_field(f.next())?);
                let begin = Time(u64_field(f.next())?);
                let end = Time(u64_field(f.next())?);
                let sink = opt_u32_field(f.next())?.map(EventId);
                self.tasks.push((
                    TaskRec { id, chare, entry, pe, begin, end, sink, sends: Vec::new() },
                    src,
                ));
            }
            b"RECV" if ev_ok => {
                let id = EventId(u32_field(f.next())?);
                let task = TaskId(u32_field(f.next())?);
                let time = Time(u64_field(f.next())?);
                let msg = opt_u32_field(f.next())?.map(MsgId);
                self.events.push((EventRec { id, task, time, kind: EventKind::Recv { msg } }, src));
            }
            b"SEND" if ev_ok => {
                let id = EventId(u32_field(f.next())?);
                let task = TaskId(u32_field(f.next())?);
                let time = Time(u64_field(f.next())?);
                let msg = MsgId(u32_field(f.next())?);
                self.events.push((EventRec { id, task, time, kind: EventKind::Send { msg } }, src));
            }
            b"MSG" if ev_ok => {
                let id = MsgId(u32_field(f.next())?);
                let send_event = EventId(u32_field(f.next())?);
                let dst_chare = ChareId(u32_field(f.next())?);
                let dst_entry = EntryId(u32_field(f.next())?);
                let send_time = Time(u64_field(f.next())?);
                let recv_task = opt_u32_field(f.next())?.map(TaskId);
                let recv_time = opt_u64_field(f.next())?.map(Time);
                self.msgs.push((
                    MsgRec {
                        id,
                        send_event,
                        recv_task,
                        dst_chare,
                        dst_entry,
                        send_time,
                        recv_time,
                    },
                    src,
                ));
            }
            b"IDLE" if ev_ok => {
                let pe = PeId(u32_field(f.next())?);
                let begin = Time(u64_field(f.next())?);
                let end = Time(u64_field(f.next())?);
                self.idles.push(IdleRec { pe, begin, end });
            }
            b"PES" | b"ARRAY" | b"CHARE" | b"ENTRY" | b"SIG" | b"TASK" | b"RECV" | b"SEND"
            | b"MSG" | b"IDLE" => {
                return Err(format!("unexpected record {:?} for this file kind", lossy(tag)));
            }
            other => return Err(format!("unknown record tag {:?}", lossy(other))),
        }
        Ok(())
    }
}

impl Loader {
    /// Finishes the load in the mode the loader was created with.
    pub(crate) fn finish(self) -> Result<(Trace, IngestReport), ParseError> {
        let (bytes, lines, records) = (self.bytes, self.lines, self.records);
        let (trace, mut report) = if self.salvage {
            self.finish_salvage()
        } else {
            (self.finish_strict()?, IngestReport::default())
        };
        report.bytes = bytes;
        report.lines = lines;
        report.records = records;
        Ok((trace, report))
    }

    /// Strict finish: every table must be a dense `0..n` id range and
    /// every mandatory cross-reference must resolve.
    fn finish_strict(self) -> Result<Trace, ParseError> {
        let Loader {
            files,
            pe_count,
            mut arrays,
            mut chares,
            mut entries,
            mut sigs,
            mut tasks,
            mut events,
            mut msgs,
            mut idles,
            ..
        } = self;
        require_dense("ARRAY", &mut arrays, |a| a.id.0, &files)?;
        require_dense("CHARE", &mut chares, |c| c.id.0, &files)?;
        require_dense("ENTRY", &mut entries, |e| e.id.0, &files)?;
        require_dense("SIG", &mut sigs, |s| s.id.0, &files)?;
        require_dense("TASK", &mut tasks, |t| t.id.0, &files)?;
        require_dense("event", &mut events, |e| e.id.0, &files)?;
        require_dense("MSG", &mut msgs, |m| m.id.0, &files)?;

        let mut trace = Trace { pe_count, ..Trace::default() };
        trace.arrays = arrays.into_iter().map(|(a, _)| a).collect();
        trace.entries = entries.into_iter().map(|(e, _)| e).collect();
        // Reference validity is checked by the validation pass the
        // strict readers run afterwards, same as for the other tables.
        trace.sigs = sigs.into_iter().map(|(s, _)| s).collect();
        for (c, src) in chares {
            let kind = trace
                .arrays
                .get(c.array.index())
                .ok_or_else(|| src_err(&files, src, "CHARE references unknown ARRAY".to_owned()))?
                .kind;
            trace.chares.push(ChareInfo {
                id: c.id,
                array: c.array,
                index: c.index,
                kind,
                home_pe: c.home_pe,
            });
        }
        trace.tasks = tasks.into_iter().map(|(t, _)| t).collect();
        // `sends` lists rebuild in event-id order, which is the order a
        // canonical single-document log lists them in.
        for (ev, src) in events {
            if ev.kind.is_source() {
                trace
                    .tasks
                    .get_mut(ev.task.index())
                    .ok_or_else(|| src_err(&files, src, "SEND references unknown TASK".to_owned()))?
                    .sends
                    .push(ev.id);
            }
            trace.events.push(ev);
        }
        trace.msgs = msgs.into_iter().map(|(m, _)| m).collect();
        idles.sort_by_key(|i| (i.pe.0, i.begin.0));
        trace.idles = idles;
        Ok(trace)
    }

    /// Salvage finish: skip, cascade, downgrade, and renumber so the
    /// resulting trace is referentially intact by construction.
    fn finish_salvage(self) -> (Trace, IngestReport) {
        let Loader {
            files,
            mut pe_count,
            mut arrays,
            mut chares,
            mut entries,
            mut sigs,
            mut tasks,
            mut events,
            mut msgs,
            mut idles,
            sink: mut diags,
            ..
        } = self;

        // Keep the first record of every id (I002).
        dedup("ARRAY", &mut arrays, |a| a.id.0, &mut diags, &files);
        dedup("CHARE", &mut chares, |c| c.id.0, &mut diags, &files);
        dedup("ENTRY", &mut entries, |e| e.id.0, &mut diags, &files);
        dedup("SIG", &mut sigs, |s| s.id.0, &mut diags, &files);
        dedup("TASK", &mut tasks, |t| t.id.0, &mut diags, &files);
        dedup("event", &mut events, |e| e.id.0, &mut diags, &files);
        dedup("MSG", &mut msgs, |m| m.id.0, &mut diags, &files);

        // A hostile PES value must not drive allocations downstream.
        if pe_count > MAX_PES {
            diags.push(
                IngestCode::TableCompacted,
                None,
                0,
                format!("PES {pe_count} exceeds the supported maximum {MAX_PES}; clamped"),
            );
            pe_count = MAX_PES;
        }

        // id → slot lookups (ids may be sparse at this point).
        let amap = slot_map(&arrays, |a| a.id.0);
        let cmap = slot_map(&chares, |c| c.id.0);
        let emap = slot_map(&entries, |e| e.id.0);
        let tmap = slot_map(&tasks, |t| t.id.0);
        let evmap = slot_map(&events, |e| e.id.0);
        let mmap = slot_map(&msgs, |m| m.id.0);

        // Drop records on impossible PEs (I003)...
        let mut drop_c = vec![false; chares.len()];
        let mut drop_t = vec![false; tasks.len()];
        let mut drop_e = vec![false; events.len()];
        let mut drop_m = vec![false; msgs.len()];
        for i in 0..chares.len() {
            let (c, src) = (&chares[i].0, chares[i].1);
            if c.home_pe.0 >= MAX_PES {
                drop_c[i] = true;
                diags.push(
                    IngestCode::DanglingReference,
                    file_of(&files, src),
                    src.line as usize,
                    format!(
                        "CHARE {}: home pe {} is beyond the supported maximum",
                        c.id.0, c.home_pe.0
                    ),
                );
                diags.skipped += 1;
            }
        }
        for i in 0..tasks.len() {
            let (t, src) = (&tasks[i].0, tasks[i].1);
            if t.pe.0 >= MAX_PES {
                drop_t[i] = true;
                diags.push(
                    IngestCode::DanglingReference,
                    file_of(&files, src),
                    src.line as usize,
                    format!("TASK {}: pe {} is beyond the supported maximum", t.id.0, t.pe.0),
                );
                diags.skipped += 1;
            }
        }

        // ...then cascade drops through mandatory references until a
        // fixpoint: events and messages reference each other, so one
        // pass is not enough.
        loop {
            let mut changed = false;
            for i in 0..chares.len() {
                if drop_c[i] {
                    continue;
                }
                let (c, src) = (&chares[i].0, chares[i].1);
                if !amap.contains_key(&c.array.0) {
                    drop_c[i] = true;
                    changed = true;
                    diags.push(
                        IngestCode::DanglingReference,
                        file_of(&files, src),
                        src.line as usize,
                        format!("CHARE {} references unknown ARRAY {}", c.id.0, c.array.0),
                    );
                    diags.skipped += 1;
                }
            }
            for i in 0..tasks.len() {
                if drop_t[i] {
                    continue;
                }
                let (t, src) = (&tasks[i].0, tasks[i].1);
                if !(alive(&cmap, &drop_c, t.chare.0) && emap.contains_key(&t.entry.0)) {
                    drop_t[i] = true;
                    changed = true;
                    diags.push(
                        IngestCode::DanglingReference,
                        file_of(&files, src),
                        src.line as usize,
                        format!("TASK {} references a missing or dropped CHARE/ENTRY", t.id.0),
                    );
                    diags.skipped += 1;
                }
            }
            for i in 0..events.len() {
                if drop_e[i] {
                    continue;
                }
                let (e, src) = (&events[i].0, events[i].1);
                let ok = alive(&tmap, &drop_t, e.task.0)
                    && match e.kind {
                        EventKind::Send { msg } => alive(&mmap, &drop_m, msg.0),
                        EventKind::Recv { .. } => true,
                    };
                if !ok {
                    drop_e[i] = true;
                    changed = true;
                    diags.push(
                        IngestCode::DanglingReference,
                        file_of(&files, src),
                        src.line as usize,
                        format!("event {} references a missing or dropped TASK/MSG", e.id.0),
                    );
                    diags.skipped += 1;
                }
            }
            for i in 0..msgs.len() {
                if drop_m[i] {
                    continue;
                }
                let (m, src) = (&msgs[i].0, msgs[i].1);
                let ok = alive(&evmap, &drop_e, m.send_event.0)
                    && alive(&cmap, &drop_c, m.dst_chare.0)
                    && emap.contains_key(&m.dst_entry.0);
                if !ok {
                    drop_m[i] = true;
                    changed = true;
                    diags.push(
                        IngestCode::DanglingReference,
                        file_of(&files, src),
                        src.line as usize,
                        format!("MSG {} references a missing or dropped record", m.id.0),
                    );
                    diags.skipped += 1;
                }
            }
            if !changed {
                break;
            }
        }

        // Optional links to dropped records are cleared, not fatal (I004).
        for i in 0..tasks.len() {
            if drop_t[i] {
                continue;
            }
            let src = tasks[i].1;
            let t = &mut tasks[i].0;
            if let Some(s) = t.sink {
                if !alive(&evmap, &drop_e, s.0) {
                    t.sink = None;
                    diags.push(
                        IngestCode::DowngradedLink,
                        file_of(&files, src),
                        src.line as usize,
                        format!(
                            "TASK {}: sink event {} is missing or dropped; cleared",
                            t.id.0, s.0
                        ),
                    );
                    diags.downgraded += 1;
                }
            }
        }
        for i in 0..events.len() {
            if drop_e[i] {
                continue;
            }
            let src = events[i].1;
            let e = &mut events[i].0;
            if let EventKind::Recv { msg: Some(m) } = e.kind {
                if !alive(&mmap, &drop_m, m.0) {
                    e.kind = EventKind::Recv { msg: None };
                    diags.push(
                        IngestCode::DowngradedLink,
                        file_of(&files, src),
                        src.line as usize,
                        format!("RECV {}: message {} is missing or dropped; cleared", e.id.0, m.0),
                    );
                    diags.downgraded += 1;
                }
            }
        }
        for i in 0..msgs.len() {
            if drop_m[i] {
                continue;
            }
            let src = msgs[i].1;
            let m = &mut msgs[i].0;
            if let Some(t) = m.recv_task {
                if !alive(&tmap, &drop_t, t.0) {
                    m.recv_task = None;
                    m.recv_time = None;
                    diags.push(
                        IngestCode::DowngradedLink,
                        file_of(&files, src),
                        src.line as usize,
                        format!(
                            "MSG {}: receive task {} is missing or dropped; cleared",
                            m.id.0, t.0
                        ),
                    );
                    diags.downgraded += 1;
                } else if tasks[tmap[&t.0] as usize].0.sink.is_none() {
                    // The receive task survived but lost its sink event
                    // above: a matched message must point at a task
                    // with a sink, so the match degrades with it.
                    m.recv_task = None;
                    m.recv_time = None;
                    diags.push(
                        IngestCode::DowngradedLink,
                        file_of(&files, src),
                        src.line as usize,
                        format!(
                            "MSG {}: receive task {} lost its sink event; match cleared",
                            m.id.0, t.0
                        ),
                    );
                    diags.downgraded += 1;
                }
            }
        }

        // The PE count must cover every surviving record.
        let mut max_pe: Option<u32> = None;
        for (i, (t, _)) in tasks.iter().enumerate() {
            if !drop_t[i] {
                max_pe = max_pe.max(Some(t.pe.0));
            }
        }
        for (i, (c, _)) in chares.iter().enumerate() {
            if !drop_c[i] {
                max_pe = max_pe.max(Some(c.home_pe.0));
            }
        }
        idles.retain(|idle| {
            if idle.pe.0 >= MAX_PES {
                diags.push(
                    IngestCode::DanglingReference,
                    None,
                    0,
                    format!("IDLE on pe {} beyond the supported maximum dropped", idle.pe.0),
                );
                diags.skipped += 1;
                false
            } else {
                max_pe = max_pe.max(Some(idle.pe.0));
                true
            }
        });
        if let Some(m) = max_pe {
            if m >= pe_count {
                diags.push(
                    IngestCode::TableCompacted,
                    None,
                    0,
                    format!("pe count raised from {pe_count} to {} to cover recorded PEs", m + 1),
                );
                pe_count = m + 1;
            }
        }

        // Compact each table and renumber ids dense (I006).
        let (raw_arrays, amap2) = compact("ARRAY", arrays, &[], |a| a.id.0, &mut diags);
        let (raw_chares, cmap2) = compact("CHARE", chares, &drop_c, |c| c.id.0, &mut diags);
        let (raw_entries, emap2) = compact("ENTRY", entries, &[], |e| e.id.0, &mut diags);
        let (raw_tasks, tmap2) = compact("TASK", tasks, &drop_t, |t| t.id.0, &mut diags);
        let (raw_events, evmap2) = compact("event", events, &drop_e, |e| e.id.0, &mut diags);
        let (raw_msgs, mmap2) = compact("MSG", msgs, &drop_m, |m| m.id.0, &mut diags);

        let arrays2: Vec<ArrayInfo> = raw_arrays
            .into_iter()
            .enumerate()
            .map(|(i, a)| ArrayInfo { id: ArrayId(i as u32), ..a })
            .collect();
        let entries2: Vec<EntryInfo> = raw_entries
            .into_iter()
            .enumerate()
            .map(|(i, e)| EntryInfo { id: EntryId(i as u32), ..e })
            .collect();
        let chares2: Vec<ChareInfo> = raw_chares
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let array = ArrayId(amap2[&c.array.0]);
                ChareInfo {
                    id: ChareId(i as u32),
                    array,
                    index: c.index,
                    kind: arrays2[array.index()].kind,
                    home_pe: c.home_pe,
                }
            })
            .collect();
        let mut tasks2: Vec<TaskRec> = raw_tasks
            .into_iter()
            .enumerate()
            .map(|(i, t)| TaskRec {
                id: TaskId(i as u32),
                chare: ChareId(cmap2[&t.chare.0]),
                entry: EntryId(emap2[&t.entry.0]),
                pe: t.pe,
                begin: t.begin,
                end: t.end,
                sink: t.sink.and_then(|e| evmap2.get(&e.0).map(|&n| EventId(n))),
                sends: Vec::new(),
            })
            .collect();
        let events2: Vec<EventRec> = raw_events
            .into_iter()
            .enumerate()
            .map(|(i, e)| EventRec {
                id: EventId(i as u32),
                task: TaskId(tmap2[&e.task.0]),
                time: e.time,
                kind: match e.kind {
                    EventKind::Recv { msg } => EventKind::Recv {
                        msg: msg.and_then(|m| mmap2.get(&m.0).map(|&n| MsgId(n))),
                    },
                    EventKind::Send { msg } => EventKind::Send { msg: MsgId(mmap2[&msg.0]) },
                },
            })
            .collect();
        let msgs2: Vec<MsgRec> = raw_msgs
            .into_iter()
            .enumerate()
            .map(|(i, m)| MsgRec {
                id: MsgId(i as u32),
                send_event: EventId(evmap2[&m.send_event.0]),
                recv_task: m.recv_task.and_then(|t| tmap2.get(&t.0).map(|&n| TaskId(n))),
                dst_chare: ChareId(cmap2[&m.dst_chare.0]),
                dst_entry: EntryId(emap2[&m.dst_entry.0]),
                send_time: m.send_time,
                recv_time: m.recv_time,
            })
            .collect();
        for e in &events2 {
            if e.kind.is_source() {
                tasks2[e.task.index()].sends.push(e.id);
            }
        }
        idles.sort_by_key(|i| (i.pe.0, i.begin.0));

        // Signatures reference only arrays and entries, which are never
        // dropped (only deduplicated and renumbered) — so a sig either
        // remaps cleanly or referenced an id that never existed.
        let mut sigs2: Vec<SigInfo> = Vec::with_capacity(sigs.len());
        for (s, src) in sigs {
            let remapped = (|| {
                Some(SigInfo {
                    id: SigId(sigs2.len() as u32),
                    src_array: ArrayId(*amap2.get(&s.src_array.0)?),
                    src_entry: EntryId(*emap2.get(&s.src_entry.0)?),
                    dst_array: ArrayId(*amap2.get(&s.dst_array.0)?),
                    dst_entry: EntryId(*emap2.get(&s.dst_entry.0)?),
                    pattern: s.pattern,
                    msgs: s.msgs,
                })
            })();
            match remapped {
                Some(sig) => sigs2.push(sig),
                None => {
                    diags.push(
                        IngestCode::DanglingReference,
                        file_of(&files, src),
                        src.line as usize,
                        format!("SIG {} references an unknown ARRAY/ENTRY", s.id.0),
                    );
                    diags.skipped += 1;
                }
            }
        }

        let trace = Trace {
            pe_count,
            arrays: arrays2,
            chares: chares2,
            entries: entries2,
            sigs: sigs2,
            tasks: tasks2,
            events: events2,
            msgs: msgs2,
            idles,
        };
        (trace, diags.into_report())
    }
}

/// Sorts a staging table by id (stable) and errors on the first
/// duplicate or hole.
fn require_dense<T>(
    what: &str,
    v: &mut [(T, Src)],
    id: impl Fn(&T) -> u32,
    files: &[String],
) -> Result<(), ParseError> {
    v.sort_by_key(|t| id(&t.0));
    for (i, (t, src)) in v.iter().enumerate() {
        let got = id(t);
        if got as usize == i {
            continue;
        }
        let msg = if i > 0 && got == id(&v[i - 1].0) {
            format!("duplicate {what} record for id {got}")
        } else {
            format!("{what} ids are not dense: missing id {i}")
        };
        return Err(src_err(files, *src, msg));
    }
    Ok(())
}

/// Sorts a staging table by id (stable) and keeps the first record of
/// every id, reporting the rest as `I002`.
fn dedup<T>(
    what: &str,
    v: &mut Vec<(T, Src)>,
    id: impl Fn(&T) -> u32,
    diags: &mut DiagSink,
    files: &[String],
) {
    v.sort_by_key(|t| id(&t.0));
    let mut last: Option<u32> = None;
    v.retain(|(t, src)| {
        let i = id(t);
        if last == Some(i) {
            diags.push(
                IngestCode::DuplicateId,
                file_of(files, *src),
                src.line as usize,
                format!("duplicate {what} record for id {i} skipped"),
            );
            diags.skipped += 1;
            false
        } else {
            last = Some(i);
            true
        }
    });
}

fn slot_map<T>(v: &[(T, Src)], id: impl Fn(&T) -> u32) -> HashMap<u32, u32> {
    v.iter().enumerate().map(|(i, (t, _))| (id(t), i as u32)).collect()
}

fn alive(map: &HashMap<u32, u32>, dropped: &[bool], id: u32) -> bool {
    map.get(&id).is_some_and(|&s| !dropped[s as usize])
}

/// Strips dropped records, maps surviving old ids to new dense ids, and
/// reports the compaction (`I006`) when anything changed.
fn compact<T>(
    what: &str,
    v: Vec<(T, Src)>,
    dropped: &[bool],
    id: impl Fn(&T) -> u32,
    diags: &mut DiagSink,
) -> (Vec<T>, HashMap<u32, u32>) {
    let total = v.len();
    let mut out: Vec<T> = Vec::with_capacity(total);
    let mut map: HashMap<u32, u32> = HashMap::with_capacity(total);
    let mut renumbered = false;
    for (i, (t, _)) in v.into_iter().enumerate() {
        if dropped.get(i).copied().unwrap_or(false) {
            renumbered = true;
            continue;
        }
        let new = out.len() as u32;
        if id(&t) != new {
            renumbered = true;
        }
        map.insert(id(&t), new);
        out.push(t);
    }
    if renumbered {
        diags.push(
            IngestCode::TableCompacted,
            None,
            0,
            format!(
                "{what}: {} of {total} record(s) kept; ids renumbered to a dense range",
                out.len()
            ),
        );
    }
    (out, map)
}

#[cfg(test)]
mod tests {
    use super::ParseError;

    #[test]
    fn parse_error_display_names_only_the_location_it_has() {
        let at = |file: Option<&str>, line| ParseError {
            file: file.map(str::to_owned),
            line,
            msg: "boom".to_owned(),
        };
        assert_eq!(at(Some("run.1.log"), 7).to_string(), "run.1.log:7: boom");
        assert_eq!(at(Some("run.sts"), 0).to_string(), "run.sts: boom");
        assert_eq!(at(None, 3).to_string(), "line 3: boom");
        assert_eq!(at(None, 0).to_string(), "boom");
    }
}

//! Counterexample minimization: given a trace log that makes some
//! diagnostic fire, find a (locally) minimal subset of its record
//! lines that still makes it fire — Zeller & Hildebrandt's *ddmin*
//! delta debugging, with the salvage-mode reader as the
//! well-formedness filter (any candidate parses; dropped references
//! degrade instead of erroring, so probes never abort).
//!
//! The oracle is the full diagnostic stack: ingestion (`I` codes),
//! lint (`T`/`H`/`S`/`P`), race enumeration (`R` codes), skeleton
//! conformance (`M` codes), and — for `A` codes — a fresh extraction
//! with provenance followed by the certificate check. Only the pass
//! family that can produce the target code runs per probe, which keeps
//! probe cost proportional to what is being reproduced.
//!
//! Minimization is structure-aware: a first ddmin round reduces only
//! the event records (`TASK`/`RECV`/`SEND`/`MSG`/`IDLE`) with the
//! metadata records (`PES`/`ARRAY`/`CHARE`/`ENTRY`) pinned, so probes
//! stay inside the well-formed region instead of cascading into
//! salvage drops; a second round over everything (metadata included)
//! then reaches 1-minimality.

use crate::check::{audit, AuditOptions};
use lsr_core::{try_extract, try_extract_with_provenance, Config};
use lsr_lint::{analyze_races, ingest_diagnostics, lint_trace, model_diagnostics, LintOptions};
use lsr_model::SkeletonModel;
use lsr_trace::logfmt::{read_log, to_log_string};
use lsr_trace::Mode;

/// Options for [`shrink_log`].
#[derive(Debug, Clone)]
pub struct ShrinkOptions {
    /// Extraction configuration the oracle replays per probe (also the
    /// source of the obs recorder for `shrink.probes`).
    pub config: Config,
    /// Probe budget: once spent, minimization stops at the current
    /// (still-firing) candidate instead of reaching 1-minimality.
    pub max_probes: usize,
}

impl Default for ShrinkOptions {
    fn default() -> ShrinkOptions {
        ShrinkOptions { config: Config::charm(), max_probes: 4096 }
    }
}

/// Why [`shrink_log`] could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShrinkError {
    /// The target code does not fire on the full input, so there is
    /// nothing to minimize (wrong code, wrong config, or a trace that
    /// does not reproduce).
    CodeNeverFires {
        /// The code that was asked for.
        code: String,
    },
}

impl std::fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShrinkError::CodeNeverFires { code } => {
                write!(f, "diagnostic {code} does not fire on the full input")
            }
        }
    }
}

impl std::error::Error for ShrinkError {}

/// A minimized reproducer.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The reduced log: the kept input lines verbatim (header first),
    /// newline-terminated — exactly the text the last successful probe
    /// tested, so re-running the oracle on it fires the code again.
    pub log: String,
    /// Reducible record lines in the input (excluding the header).
    pub original_records: usize,
    /// Record lines kept in the reproducer.
    pub final_records: usize,
    /// Oracle probes spent.
    pub probes: usize,
}

impl ShrinkResult {
    /// Fraction of record lines removed, in `[0, 1]`.
    pub fn reduction(&self) -> f64 {
        if self.original_records == 0 {
            0.0
        } else {
            1.0 - self.final_records as f64 / self.original_records as f64
        }
    }
}

/// True when diagnostic `code` fires on `text` under `cfg`. Salvage
/// failures (no usable header at all) simply mean "does not fire".
fn fires(text: &str, code: &str, cfg: &Config) -> bool {
    let Ok((trace, report)) = read_log(text.as_bytes(), &Mode::Salvage.into()) else {
        return false;
    };
    match code.as_bytes().first() {
        Some(b'I') => ingest_diagnostics(&report).iter().any(|d| d.code == code),
        Some(b'A') => {
            let cfg = cfg.clone().with_verify(false);
            match try_extract_with_provenance(&trace, &cfg) {
                Ok((ls, prov)) => audit(&trace, &cfg, &prov, &ls, AuditOptions::default())
                    .diagnostics
                    .iter()
                    .any(|d| d.code == code),
                Err(_) => false,
            }
        }
        Some(b'M') => {
            let cfg = cfg.clone().with_verify(false);
            match try_extract(&trace, &cfg) {
                Ok(ls) => {
                    let model = SkeletonModel::build(&trace.declarations());
                    let report = lsr_model::check(&model, &trace, &ls);
                    model_diagnostics(&report, 256).iter().any(|d| d.code == code)
                }
                Err(_) => false,
            }
        }
        Some(b'R') => {
            let cfg = cfg.clone().with_verify(false);
            match analyze_races(&trace, &cfg, 256) {
                Ok(report) => report.diagnostics.iter().any(|d| d.code == code),
                Err(_) => false,
            }
        }
        _ => {
            let opts = LintOptions {
                limit: 256,
                // S and P codes need extraction; T and H do not.
                check_structure: matches!(code.as_bytes().first(), Some(b'S') | Some(b'P')),
                config: cfg.clone().with_verify(false),
            };
            lint_trace(&trace, &opts).diagnostics.iter().any(|d| d.code == code)
        }
    }
}

/// Classic ddmin over an index set. `test` must be monotone-ish in
/// spirit but is treated as a black box: the result is 1-minimal with
/// respect to it (removing any single kept line stops the code from
/// firing), or the best candidate found when the probe budget runs
/// out. Chunk order is input order — fully deterministic.
fn ddmin(initial: Vec<u32>, test: &mut dyn FnMut(&[u32]) -> bool) -> Vec<u32> {
    let mut cur = initial;
    let mut n = 2usize;
    while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut found = false;
        // Reduce to a subset (one chunk alone).
        let mut i = 0;
        while i < cur.len() {
            let sub = cur[i..(i + chunk).min(cur.len())].to_vec();
            if sub.len() < cur.len() && test(&sub) {
                cur = sub;
                n = 2;
                found = true;
                break;
            }
            i += chunk;
        }
        if found {
            continue;
        }
        // Reduce to a complement (drop one chunk). At n == 2 the
        // complements are the subsets just tried; skip them.
        if n > 2 {
            let mut i = 0;
            while i < cur.len() {
                let hi = (i + chunk).min(cur.len());
                let mut comp = Vec::with_capacity(cur.len() - (hi - i));
                comp.extend_from_slice(&cur[..i]);
                comp.extend_from_slice(&cur[hi..]);
                if comp.len() < cur.len() && test(&comp) {
                    cur = comp;
                    n = (n - 1).max(2);
                    found = true;
                    break;
                }
                i += chunk;
            }
        }
        if found {
            continue;
        }
        if chunk <= 1 {
            break; // 1-minimal
        }
        n = (n * 2).min(cur.len());
    }
    cur
}

fn is_metadata(line: &str) -> bool {
    ["PES", "ARRAY", "CHARE", "ENTRY"].iter().any(|kw| {
        line.strip_prefix(kw).is_some_and(|rest| rest.starts_with(' ') || rest.is_empty())
    })
}

/// Minimizes `log` to a subset of lines on which diagnostic `code`
/// still fires. The first line is treated as the format header and
/// always kept; every other line is a removal candidate.
pub fn shrink_log(
    log: &str,
    code: &str,
    opts: &ShrinkOptions,
) -> Result<ShrinkResult, ShrinkError> {
    let _span = opts.config.recorder.span("shrink");
    let lines: Vec<&str> = log.lines().collect();
    let header_len = usize::from(lines.first().is_some_and(|l| l.starts_with("LSRTRACE")));
    let body = &lines[header_len..];

    let render = |keep: &[u32]| -> String {
        let mut text = String::new();
        for l in &lines[..header_len] {
            text.push_str(l);
            text.push('\n');
        }
        for &i in keep {
            text.push_str(body[i as usize]);
            text.push('\n');
        }
        text
    };

    let mut probes = 0usize;
    let mut probe = |keep: &[u32]| -> bool {
        if probes >= opts.max_probes {
            return false; // budget spent: refuse further reductions
        }
        probes += 1;
        opts.config.recorder.add("shrink.probes", 1);
        fires(&render(keep), code, &opts.config)
    };

    let all: Vec<u32> = (0..body.len() as u32).collect();
    if !probe(&all) {
        return Err(ShrinkError::CodeNeverFires { code: code.to_string() });
    }

    // Round 1: event records only, metadata pinned.
    let (meta, events): (Vec<u32>, Vec<u32>) =
        all.iter().partition(|&&i| is_metadata(body[i as usize]));
    let kept_events = ddmin(events, &mut |subset| {
        let mut merged: Vec<u32> = meta.iter().copied().chain(subset.iter().copied()).collect();
        merged.sort_unstable();
        probe(&merged)
    });

    // Round 2: everything, metadata included.
    let mut seed: Vec<u32> = meta.iter().copied().chain(kept_events).collect();
    seed.sort_unstable();
    let kept = ddmin(seed, &mut |subset| probe(subset));

    // Prefer the canonical rewrite (dense ids, normalized field order)
    // when the code still fires on it: it then loads without salvage
    // renumbering warnings. Otherwise keep the raw lines verbatim —
    // exactly the text the last successful probe tested.
    let raw = render(&kept);
    let log = match read_log(raw.as_bytes(), &Mode::Salvage.into()) {
        Ok((t, _)) => {
            let canonical = to_log_string(&t);
            probes += 1;
            opts.config.recorder.add("shrink.probes", 1);
            if fires(&canonical, code, &opts.config) {
                canonical
            } else {
                raw
            }
        }
        Err(_) => raw,
    };

    Ok(ShrinkResult { log, original_records: body.len(), final_records: kept.len(), probes })
}

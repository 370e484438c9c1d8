//! Documentation drift guard: every diagnostic code a crate can emit
//! has a row in `docs/lints.md`, and every documented code is still
//! emitted somewhere. The scan is lexical — any string literal shaped
//! like a code (`"T005"`, family letter + three digits) in any `.rs`
//! file counts as emitted — so the test errs on the side of demanding
//! documentation for codes that only tests mention.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// The diagnostic families `docs/lints.md` documents.
const FAMILIES: &[u8] = b"THSPIRADM";

/// Extracts `"X###"` literals from one source text.
fn codes_in(text: &str, out: &mut BTreeSet<String>) {
    let b = text.as_bytes();
    let mut i = 0;
    while i + 6 <= b.len() {
        if b[i] == b'"'
            && FAMILIES.contains(&b[i + 1])
            && b[i + 2].is_ascii_digit()
            && b[i + 3].is_ascii_digit()
            && b[i + 4].is_ascii_digit()
            && b[i + 5] == b'"'
        {
            out.insert(String::from_utf8_lossy(&b[i + 1..i + 5]).into_owned());
            i += 6;
        } else {
            i += 1;
        }
    }
}

/// Recursively collects code literals from every `.rs` file under `dir`.
fn scan_sources(dir: &Path, out: &mut BTreeSet<String>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            scan_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = fs::read_to_string(&path) {
                codes_in(&text, out);
            }
        }
    }
}

/// A code is a row in `docs/lints.md` when it is the first cell of a
/// table line: `| T005 | ... |`.
fn documented_codes(lints_md: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for line in lints_md.lines() {
        let Some(rest) = line.strip_prefix('|') else { continue };
        let Some(cell) = rest.split('|').next() else { continue };
        let cell = cell.trim();
        let b = cell.as_bytes();
        if b.len() == 4 && FAMILIES.contains(&b[0]) && b[1..].iter().all(u8::is_ascii_digit) {
            out.insert(cell.to_string());
        }
    }
    out
}

/// Extracts counter names from `add("family.name"` call sites. Names
/// built with `format!` or `concat!` are invisible to this scan and
/// are documented with a placeholder row instead.
fn counters_in(text: &str, out: &mut BTreeSet<String>) {
    for (i, _) in text.match_indices("add(\"") {
        let rest = &text[i + 5..];
        let Some(end) = rest.find('"') else { continue };
        let name = &rest[..end];
        if name.contains('.')
            && name
                .bytes()
                .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'.' || b == b'_')
        {
            out.insert(name.to_string());
        }
    }
}

/// Recursively collects counter-name literals from `.rs` files.
fn scan_counters(dir: &Path, out: &mut BTreeSet<String>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            scan_counters(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            if let Ok(text) = fs::read_to_string(&path) {
                counters_in(&text, out);
            }
        }
    }
}

/// Every counter the pipeline increments has a reference-page mention:
/// `docs/observability.md` carries the inventory table, `docs/audit.md`
/// documents the audit/shrink counters alongside their subcommands.
#[test]
fn every_emitted_counter_is_documented() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut emitted = BTreeSet::new();
    for dir in ["src", "crates"] {
        scan_counters(&root.join(dir), &mut emitted);
    }
    // The fuzz sweep, happened-before index and ordering counters must
    // be part of the scan (guards both the scanner and the instrumentation
    // against silent renames).
    for name in [
        "fuzz.scenarios",
        "fuzz.motifs",
        "fuzz.traces",
        "fuzz.tasks",
        "fuzz.msgs",
        "fuzz.failures",
        "fuzz.exported",
        "fuzz.shrunk",
        "lint.hb.queries",
        "lint.hb.bytes",
        "lint.hb.searches",
        "lint.hb.search_visits",
        "flow.oracle.searches",
        "core.ordering.phases",
    ] {
        assert!(emitted.contains(name), "counter {name} is no longer incremented anywhere");
    }
    assert!(emitted.len() >= 20, "counter scan looks broken: only found {emitted:?}");

    let docs: String =
        ["docs/observability.md", "docs/audit.md", "docs/analyze.md", "docs/model.md"]
            .iter()
            .map(|p| fs::read_to_string(root.join(p)).unwrap_or_else(|e| panic!("{p}: {e}")))
            .collect();
    // The inventory table groups siblings (`core.edges.inferred` /
    // `.ordering`), uses `<stage>` placeholders, and `family.*` globs;
    // accept those spellings alongside the literal name.
    let documented = |name: &str| -> bool {
        if docs.contains(name) {
            return true;
        }
        if let Some((parent, last)) = name.rsplit_once('.') {
            if docs.contains(parent)
                && (docs.contains(&format!(".{last}")) || docs.contains(&format!("{parent}.<")))
            {
                return true;
            }
        }
        let family = name.split('.').next().unwrap_or(name);
        docs.contains(&format!("{family}.*"))
    };
    let undocumented: Vec<&String> = emitted.iter().filter(|n| !documented(n)).collect();
    assert!(
        undocumented.is_empty(),
        "counters incremented in source but absent from the docs/ reference pages: {undocumented:?}"
    );
}

#[test]
fn every_emitted_code_is_documented_and_vice_versa() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut emitted = BTreeSet::new();
    for dir in ["src", "crates", "tests", "examples"] {
        scan_sources(&root.join(dir), &mut emitted);
    }
    assert!(emitted.len() >= 40, "source scan looks broken: only found {emitted:?}");

    let lints_md =
        fs::read_to_string(root.join("docs/lints.md")).expect("docs/lints.md must exist");
    let documented = documented_codes(&lints_md);

    let undocumented: Vec<&String> = emitted.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "codes emitted in source but missing from docs/lints.md: {undocumented:?}"
    );
    let stale: Vec<&String> = documented.difference(&emitted).collect();
    assert!(stale.is_empty(), "codes documented in docs/lints.md but emitted nowhere: {stale:?}");
}

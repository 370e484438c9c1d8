//! Property tests for the scenario fuzzer (`lsr-fuzz`): generation and
//! emission are byte-deterministic across file layouts, every generated
//! trace passes the strict validator, and the salvage reader's
//! integrity contract holds when fuzzed scenarios — not just the
//! synthetic tag garbage of `crates/trace/tests/parser_fuzz.rs` — are
//! the corpus being corrupted. Record-line dropping below is exactly
//! the probe shape `lsr shrink` uses, so these properties pin the
//! salvage guarantees ddmin minimization depends on.

use lsr_fuzz::{emit, Backend, Motif, Scenario};
use lsr_trace::logfmt::{from_log_str, read_log, to_log_string};
use lsr_trace::{multifile, validate, EventKind, Mode, ReadOptions, Trace};
use proptest::prelude::*;

/// Every id a salvaged trace hands out must resolve, and every matched
/// message must point at a receive task that still has its sink event
/// (the degraded-link contract: when salvage drops a task's sink, the
/// message match degrades with it).
fn assert_salvage_intact(tr: &Trace) {
    let (nc, ne, nt, nev, nm) =
        (tr.chares.len(), tr.entries.len(), tr.tasks.len(), tr.events.len(), tr.msgs.len());
    for (i, t) in tr.tasks.iter().enumerate() {
        assert_eq!(t.id.0 as usize, i, "task ids dense");
        assert!((t.chare.0 as usize) < nc, "task -> chare");
        assert!((t.entry.0 as usize) < ne, "task -> entry");
        if let Some(s) = t.sink {
            assert!((s.0 as usize) < nev, "task sink -> event");
        }
        for s in &t.sends {
            assert!((s.0 as usize) < nev, "task sends -> event");
        }
    }
    for (i, ev) in tr.events.iter().enumerate() {
        assert_eq!(ev.id.0 as usize, i, "event ids dense");
        assert!((ev.task.0 as usize) < nt, "event -> task");
        match ev.kind {
            EventKind::Send { msg } => assert!((msg.0 as usize) < nm, "send -> msg"),
            EventKind::Recv { msg } => {
                if let Some(m) = msg {
                    assert!((m.0 as usize) < nm, "recv -> msg");
                }
            }
        }
    }
    for (i, m) in tr.msgs.iter().enumerate() {
        assert_eq!(m.id.0 as usize, i, "msg ids dense");
        assert!((m.send_event.0 as usize) < nev, "msg -> send event");
        assert!((m.dst_chare.0 as usize) < nc, "msg -> dst chare");
        assert!((m.dst_entry.0 as usize) < ne, "msg -> dst entry");
        if let Some(t) = m.recv_task {
            assert!((t.0 as usize) < nt, "msg -> recv task");
            assert!(
                tr.task(t).sink.is_some(),
                "matched msg {i} points at task {} with no sink event",
                t.0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same `(master, id)` ⇒ byte-identical logfmt output, twice over,
    /// on both backends: the determinism contract the committed-
    /// reproducer workflow stands on.
    #[test]
    fn emission_is_byte_deterministic(master in any::<u64>(), id in 0u32..64) {
        let sc = Scenario::generate(master, id, &Motif::ALL);
        for b in Backend::ALL {
            let first = to_log_string(&emit(&sc, b));
            let second = to_log_string(&emit(&sc, b));
            prop_assert_eq!(first, second, "{} re-emission differs for {:?}", b, sc);
        }
    }

    /// Every generated trace passes the strict validator and survives
    /// both serializations — the single document and the
    /// Projections-style split layout — with byte-identical logfmt.
    #[test]
    fn generated_traces_are_strictly_valid_in_both_layouts(
        master in any::<u64>(),
        id in 0u32..64,
    ) {
        let sc = Scenario::generate(master, id, &Motif::ALL);
        let dir = std::env::temp_dir()
            .join(format!("lsr_fuzz_props_{}_{master:x}_{id}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for b in Backend::ALL {
            let tr = emit(&sc, b);
            prop_assert!(validate(&tr).is_ok(), "{b}: {:?}", validate(&tr));

            // Single document: strict round trip.
            let text = to_log_string(&tr);
            let back = from_log_str(&text).expect("strict parse");
            prop_assert_eq!(&tr, &back, "{} single-document roundtrip", b);

            // Split layout parses to the same trace and re-serializes
            // to the same bytes as the single document.
            let base = format!("fz{}", b);
            multifile::write_split(&tr, &dir, &base).expect("write_split");
            let back = multifile::read_split(&dir, &base, &ReadOptions::default()).expect("read_split").0;
            prop_assert_eq!(&tr, &back, "{} split roundtrip", b);
            prop_assert_eq!(
                to_log_string(&back),
                text,
                "{} split layout re-serializes differently",
                b
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Dropping an arbitrary subset of record lines from a fuzzed log —
    /// the exact probe `lsr shrink` runs thousands of times — must
    /// always salvage to a referentially intact trace with every
    /// surviving message match still resolvable to a sunk task.
    #[test]
    fn salvage_stays_intact_when_record_lines_drop(
        master in any::<u64>(),
        id in 0u32..16,
        mask in proptest::collection::vec(any::<bool>(), 1..64),
        charm in any::<bool>(),
    ) {
        let sc = Scenario::generate(master, id, &Motif::ALL);
        let b = if charm { Backend::Charm } else { Backend::Mpi };
        let text = to_log_string(&emit(&sc, b));
        let mut lines = text.lines();
        let header = lines.next().unwrap().to_owned();
        let kept: Vec<&str> = lines
            .enumerate()
            .filter(|(i, _)| mask[i % mask.len()])
            .map(|(_, l)| l)
            .collect();
        let doc = format!("{header}\n{}\n", kept.join("\n"));
        let (tr, _rep) = read_log(doc.as_bytes(), &Mode::Salvage.into()).expect("salvage never fails");
        assert_salvage_intact(&tr);
    }

    /// Single-byte corruption of a fuzzed log: strict parsing either
    /// fails cleanly or yields a valid trace, and salvage always yields
    /// an intact one.
    #[test]
    fn single_byte_corruption_of_fuzzed_logs_is_handled(
        master in any::<u64>(),
        id in 0u32..16,
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let sc = Scenario::generate(master, id, &Motif::ALL);
        let text = to_log_string(&emit(&sc, Backend::Charm));
        let mut bytes = text.into_bytes();
        let i = pos % bytes.len();
        bytes[i] = byte;
        if let Ok(s) = String::from_utf8(bytes.clone()) {
            if let Ok(tr) = from_log_str(&s) {
                prop_assert!(
                    validate(&tr).is_ok(),
                    "anything the strict parser accepts must validate"
                );
            }
        }
        if let Ok((tr, _)) = read_log(&bytes[..], &Mode::Salvage.into()) {
            assert_salvage_intact(&tr);
        }
    }
}

/// The committed `.proptest-regressions` corpus must actually arm the
/// replay shim: `persisted_seeds` resolves this file's sibling and the
/// `proptest!` macro replays each seed before the novel cases, so an
/// empty result would silently drop the regression coverage.
#[test]
fn persisted_regression_seeds_replay() {
    let seeds = proptest::persisted_seeds(file!());
    assert!(
        !seeds.is_empty(),
        "tests/fuzz_properties.proptest-regressions must contain at least one `cc` seed"
    );
    // Folding is deterministic: the same file yields the same seeds.
    assert_eq!(seeds, proptest::persisted_seeds(file!()));
}

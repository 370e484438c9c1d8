//! Fuzzing the text-log parser: arbitrary input must never panic —
//! every malformed document is a clean `ParseError` (strict) or a
//! repaired trace plus `I` diagnostics (salvage).

use lsr_trace::logfmt::{from_log_str, read_log};
use lsr_trace::{EventKind, Mode, Trace};
use proptest::prelude::*;

/// Every id a salvaged trace hands out must resolve: salvage promises
/// the result is referentially intact *by construction*, whatever the
/// input looked like.
fn assert_referentially_intact(tr: &Trace) {
    let (na, nc, ne, nt, nev, nm) = (
        tr.arrays.len(),
        tr.chares.len(),
        tr.entries.len(),
        tr.tasks.len(),
        tr.events.len(),
        tr.msgs.len(),
    );
    for (i, a) in tr.arrays.iter().enumerate() {
        assert_eq!(a.id.0 as usize, i, "array ids dense");
    }
    for (i, c) in tr.chares.iter().enumerate() {
        assert_eq!(c.id.0 as usize, i, "chare ids dense");
        assert!((c.array.0 as usize) < na, "chare -> array");
        assert!((c.home_pe.0) < tr.pe_count, "chare home pe in range");
    }
    for (i, e) in tr.entries.iter().enumerate() {
        assert_eq!(e.id.0 as usize, i, "entry ids dense");
    }
    for (i, t) in tr.tasks.iter().enumerate() {
        assert_eq!(t.id.0 as usize, i, "task ids dense");
        assert!((t.chare.0 as usize) < nc, "task -> chare");
        assert!((t.entry.0 as usize) < ne, "task -> entry");
        assert!(t.pe.0 < tr.pe_count, "task pe in range");
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
        }
    }
    for idle in &tr.idles {
        assert!(idle.pe.0 < tr.pe_count, "idle pe in range");
    }
}

/// A small fixed valid trace used by several properties below.
fn sample_trace() -> Trace {
    let mut b = lsr_trace::TraceBuilder::new(2);
    let arr = b.add_array("a", lsr_trace::Kind::Application);
    let c0 = b.add_chare(arr, 0, lsr_trace::PeId(0));
    let c1 = b.add_chare(arr, 1, lsr_trace::PeId(1));
    let e = b.add_entry("go", Some(1));
    let t0 = b.begin_task(c0, e, lsr_trace::PeId(0), lsr_trace::Time(0));
    let m = b.record_send(t0, lsr_trace::Time(1), c1, e);
    b.end_task(t0, lsr_trace::Time(2));
    let t1 = b.begin_task_from(c1, e, lsr_trace::PeId(1), lsr_trace::Time(5), m);
    b.end_task(t1, lsr_trace::Time(6));
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totally arbitrary bytes-as-text.
    #[test]
    fn arbitrary_text_never_panics(s in "\\PC*") {
        let _ = from_log_str(&s);
    }

    /// Completely arbitrary BYTES — not even valid UTF-8. Neither the
    /// strict reader nor salvage mode may panic on any input.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = read_log(&bytes[..], &Mode::Unchecked.into());
        let _ = read_log(&bytes[..], &Mode::Salvage.into());
    }

    /// Arbitrary bytes appended after a valid header: the likeliest
    /// corruption shape (truncated or overwritten tail).
    #[test]
    fn corrupted_tail_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut doc = b"LSRTRACE 1\n".to_vec();
        doc.extend_from_slice(&bytes);
        let _ = read_log(&doc[..], &Mode::Unchecked.into());
        if let Ok((tr, _)) = read_log(&doc[..], &Mode::Salvage.into()) {
            assert_referentially_intact(&tr);
        }
    }

    /// Salvage over tag-shaped garbage must produce a trace whose every
    /// cross-reference resolves and whose ids are dense — the salvage
    /// contract, checked record by record.
    #[test]
    fn salvage_output_is_referentially_intact(
        lines in proptest::collection::vec(
            (
                prop_oneof![
                    Just("PES"), Just("ARRAY"), Just("CHARE"), Just("ENTRY"),
                    Just("TASK"), Just("RECV"), Just("SEND"), Just("MSG"),
                    Just("IDLE"), Just("JUNK"),
                ],
                proptest::collection::vec(any::<u32>(), 0..8),
            ),
            0..40,
        )
    ) {
        let mut doc = String::from("LSRTRACE 1\n");
        for (tag, fields) in lines {
            doc.push_str(tag);
            for f in fields {
                doc.push(' ');
                if f % 7 == 0 {
                    doc.push('-');
                } else {
                    doc.push_str(&f.to_string());
                }
            }
            doc.push('\n');
        }
        let (tr, _rep) = read_log(doc.as_bytes(), &Mode::Salvage.into())
            .expect("salvage never fails on headered text input");
        assert_referentially_intact(&tr);
    }

    /// Shuffling the record lines of a valid document parses to the
    /// identical trace: ingestion is two-phase, so record order carries
    /// no information.
    #[test]
    fn record_order_never_matters(
        shuffled in Just(
            lsr_trace::logfmt::to_log_string(&sample_trace())
                .lines()
                .skip(1)
                .map(str::to_owned)
                .collect::<Vec<_>>()
        ).prop_shuffle()
    ) {
        let doc = format!("LSRTRACE 1\n{}\n", shuffled.join("\n"));
        let tr = from_log_str(&doc).expect("valid records in any order");
        prop_assert_eq!(tr, sample_trace());
    }

    /// Adversarial inputs that look like the format: a valid header
    /// followed by lines assembled from real tags and random fields.
    #[test]
    fn tag_shaped_garbage_never_panics(
        lines in proptest::collection::vec(
            (
                prop_oneof![
                    Just("PES"), Just("ARRAY"), Just("CHARE"), Just("ENTRY"),
                    Just("TASK"), Just("RECV"), Just("SEND"), Just("MSG"),
                    Just("IDLE"), Just("JUNK"),
                ],
                proptest::collection::vec(any::<u32>(), 0..8),
            ),
            0..40,
        )
    ) {
        let mut doc = String::from("LSRTRACE 1\n");
        for (tag, fields) in lines {
            doc.push_str(tag);
            for f in fields {
                doc.push(' ');
                // Mix numerals with the occasional placeholder.
                if f % 7 == 0 {
                    doc.push('-');
                } else {
                    doc.push_str(&f.to_string());
                }
            }
            doc.push('\n');
        }
        let _ = from_log_str(&doc);
    }

    /// Mutating one byte of a VALID document parses or fails cleanly —
    /// and if it parses, it still validates (the parser re-validates).
    #[test]
    fn single_byte_corruption_is_handled(pos in 0usize..4096, byte in any::<u8>()) {
        // A small fixed valid trace.
        let mut b = lsr_trace::TraceBuilder::new(2);
        let arr = b.add_array("a", lsr_trace::Kind::Application);
        let c0 = b.add_chare(arr, 0, lsr_trace::PeId(0));
        let c1 = b.add_chare(arr, 1, lsr_trace::PeId(1));
        let e = b.add_entry("go", Some(1));
        let t0 = b.begin_task(c0, e, lsr_trace::PeId(0), lsr_trace::Time(0));
        let m = b.record_send(t0, lsr_trace::Time(1), c1, e);
        b.end_task(t0, lsr_trace::Time(2));
        let t1 = b.begin_task_from(c1, e, lsr_trace::PeId(1), lsr_trace::Time(5), m);
        b.end_task(t1, lsr_trace::Time(6));
        let text = lsr_trace::logfmt::to_log_string(&b.build().unwrap());
        let mut bytes = text.into_bytes();
        let i = pos % bytes.len();
        bytes[i] = byte;
        if let Ok(s) = String::from_utf8(bytes) {
            if let Ok(trace) = from_log_str(&s) {
                prop_assert!(lsr_trace::validate(&trace).is_ok(),
                    "anything the parser accepts must be valid");
            }
        }
    }
}

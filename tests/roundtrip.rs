//! Serialization round trips on real application traces: the
//! Projections-style text log, as one document or split per PE, must
//! reproduce the trace exactly under every read mode, and the recovered
//! structure must be identical.

mod support;

use lsr_apps::{jacobi2d, lulesh_mpi, mergetree_mpi, JacobiParams, LuleshParams, MergeTreeParams};
use lsr_core::{extract, Config};
use lsr_obs::Recorder;
use lsr_trace::{logfmt, multifile, Mode, ReadOptions};

#[test]
fn text_log_roundtrip_preserves_app_traces() {
    let traces = [
        jacobi2d(&JacobiParams::fig8()),
        lulesh_mpi(&LuleshParams::fig16_mpi()),
        support::trace_from_tape(2, 4, &[7, 1, 9, 200, 3, 44, 5, 6, 1, 0, 255, 13, 21, 34]),
    ];
    for tr in traces {
        let text = logfmt::to_log_string(&tr);
        let back = logfmt::from_log_str(&text).expect("parse back");
        assert_eq!(tr, back);
    }
}

#[test]
fn structure_of_roundtripped_trace_is_identical() {
    let tr = jacobi2d(&JacobiParams::fig8());
    let back = logfmt::from_log_str(&logfmt::to_log_string(&tr)).unwrap();
    let a = extract(&tr, &Config::charm());
    let b = extract(&back, &Config::charm());
    assert_eq!(a.step, b.step);
    assert_eq!(a.phase_of_event, b.phase_of_event);
    assert_eq!(a.task_phase, b.task_phase);
}

#[test]
fn log_files_survive_disk_io() {
    let tr = jacobi2d(&JacobiParams::fig15());
    let dir = std::env::temp_dir().join("lsr_roundtrip_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("jacobi.lsrtrace");
    {
        let f = std::fs::File::create(&path).unwrap();
        logfmt::write_log(&tr, std::io::BufWriter::new(f)).unwrap();
    }
    let f = std::fs::File::open(&path).unwrap();
    let (back, _) = logfmt::read_log(std::io::BufReader::new(f), &ReadOptions::default()).unwrap();
    assert_eq!(tr, back);
    std::fs::remove_file(&path).ok();
}

/// Ingest is one table: every `lsr gen` preset and the paper's
/// 1,024-rank merge tree × {single document, split `.sts` + per-PE
/// logs} × every [`Mode`] × {disabled, enabled recorder} must read back
/// the generator's in-memory trace exactly, with a clean report, and an
/// enabled recorder must receive the report's `ingest.bytes`.
/// Because the reader is order-independent, a document with its record
/// lines reversed must parse to the identical trace too.
#[test]
fn every_preset_roundtrips_single_and_split() {
    let dir = std::env::temp_dir().join(format!("lsr_preset_roundtrip_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mergetree1024 = ("mergetree1024", mergetree_mpi(&MergeTreeParams::fig10()));
    let inputs = support::presets().into_iter().map(|(name, tr, _)| (name, tr));
    for (name, tr) in inputs.chain([mergetree1024]) {
        let text = logfmt::to_log_string(&tr);
        multifile::write_split(&tr, &dir, name)
            .unwrap_or_else(|e| panic!("{name}: write_split: {e}"));
        for split in [false, true] {
            for mode in [Mode::Checked, Mode::Unchecked, Mode::Salvage] {
                for enabled in [false, true] {
                    let case = format!("{name} split={split} {mode:?} recorder={enabled}");
                    let recorder = if enabled { Recorder::enabled() } else { Recorder::disabled() };
                    let opts = ReadOptions { mode, recorder };
                    let read = if split {
                        multifile::read_split(&dir, name, &opts)
                    } else {
                        logfmt::read_log(text.as_bytes(), &opts)
                    };
                    let (back, rep) = read.unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert_eq!(tr, back, "{case}: roundtrip");
                    assert!(rep.is_clean(), "{case}: clean input produced {}", rep.summary());
                    assert!(rep.bytes > 0, "{case}: no bytes tallied");
                    let counted =
                        opts.recorder.counters().into_iter().find(|(k, _)| k == "ingest.bytes");
                    assert_eq!(counted.map(|(_, v)| v), enabled.then_some(rep.bytes), "{case}");
                }
            }
        }

        // The same document with every record line in reverse order:
        // ingestion is two-phase, so record order must not matter.
        let mut lines: Vec<&str> = text.lines().collect();
        let header = lines.remove(0);
        lines.reverse();
        let reversed = std::iter::once(header).chain(lines).collect::<Vec<_>>().join("\n") + "\n";
        let back =
            logfmt::from_log_str(&reversed).unwrap_or_else(|e| panic!("{name} (reversed): {e}"));
        assert_eq!(tr, back, "{name}: reversed-order roundtrip");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Counters are flushed before validation: a checked read that refuses
/// a well-formed but invalid trace has still tallied what it read.
#[test]
fn checked_read_counts_ingest_before_refusing_an_invalid_trace() {
    let text = "LSRTRACE 1\nPES 1\nARRAY 0 A w\nCHARE 0 0 0 0\nENTRY 0 - - e\nTASK 0 0 0 0 9 2 -\n";
    let opts = ReadOptions { mode: Mode::Checked, recorder: Recorder::enabled() };
    let err = logfmt::read_log(text.as_bytes(), &opts).unwrap_err();
    assert!(err.to_string().starts_with("invalid trace: "), "{err}");
    let counters = opts.recorder.counters();
    let counter = |name: &str| counters.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
    assert_eq!(counter("ingest.bytes"), Some(text.len() as u64));
    assert_eq!(counter("ingest.records"), Some(5));
    // The same bytes read unchecked load, so only validation refused them.
    assert!(logfmt::read_log(text.as_bytes(), &Mode::Unchecked.into()).is_ok());
}

#[test]
fn collective_flag_survives_roundtrip() {
    let tr = lulesh_mpi(&LuleshParams::fig16_mpi());
    let back = logfmt::from_log_str(&logfmt::to_log_string(&tr)).unwrap();
    let allred = back.entries.iter().find(|e| e.name == "MPI_Allreduce").unwrap();
    assert!(allred.collective);
    let send = back.entries.iter().find(|e| e.name == "MPI_Send").unwrap();
    assert!(!send.collective);
}

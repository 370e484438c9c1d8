//! Run-to-run determinism suite: two serial extractions of the same
//! trace must be **bit-identical** — same `LogicalStructure`, same
//! `MergeProvenance` decision log, same error text. Every `HashMap`
//! built during an extraction gets fresh hash seeds, so a map whose
//! iteration order leaks into a merge decision (see the `merges.rs`
//! module doc) shows up here as two runs that disagree.

mod support;

use lsr_core::{try_extract_with_provenance, Config, ExtractError};
use proptest::prelude::*;

/// Every preset: two runs agree on structure and provenance, byte for
/// byte.
#[test]
fn presets_are_run_to_run_deterministic() {
    for (name, trace, cfg) in support::presets() {
        let first =
            try_extract_with_provenance(&trace, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let second =
            try_extract_with_provenance(&trace, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(first.0, second.0, "{name}: structure differs between two runs");
        assert_eq!(first.1, second.1, "{name}: provenance log differs between two runs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Adversarial tape-generated traces (unmatched messages,
    /// broadcasts, runtime chares) extract identically twice under
    /// every extraction configuration, failures included.
    #[test]
    fn random_traces_are_run_to_run_deterministic(
        pes in 1u32..5,
        chares in 1u32..9,
        tape in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        for (cname, cfg) in support::all_configs() {
            let first = try_extract_with_provenance(&trace, &cfg);
            let second = try_extract_with_provenance(&trace, &cfg);
            match (&first, &second) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.0, &b.0, "{}: structure", cname);
                    prop_assert_eq!(&a.1, &b.1, "{}: provenance", cname);
                }
                (Err(ae), Err(be)) => prop_assert_eq!(
                    format!("{ae}"), format!("{be}"), "{}: errors differ", cname
                ),
                _ => prop_assert!(false, "{}: one run errored, the other did not", cname),
            }
        }
    }
}

/// A windowed degenerate trace takes the same path twice: the same
/// structure, or the same `ExtractError` text (not a panic, not a
/// different error). The cyclic-phase-graph variant lives next to the
/// stage internals in `lsr-core` unit tests, since a validated trace
/// cannot reach it.
#[test]
fn errors_are_run_to_run_deterministic() {
    // An empty window produces the degenerate-trace error path.
    let trace = lsr_apps::jacobi2d(&lsr_apps::JacobiParams::fig15());
    let windowed =
        lsr_trace::window(&trace, lsr_trace::Time(u64::MAX - 1), lsr_trace::Time(u64::MAX));
    let first = try_extract_with_provenance(&windowed, &Config::charm());
    let second = try_extract_with_provenance(&windowed, &Config::charm());
    match (&first, &second) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "outputs differ"),
        (Err(ae), Err(be)) => assert_eq!(format!("{ae}"), format!("{be}"), "errors differ"),
        _ => panic!("one run errored, the other did not"),
    }
    // The error type itself round-trips: PhaseCycle formatting is
    // stable, so the comparison above is meaningful.
    let e = ExtractError::PhaseCycle { cycle: vec![3, 1, 4] };
    assert!(format!("{e}").contains("3 -> 1 -> 4"));
}

//! Properties of the observability layer (`lsr-obs`): enabling the
//! recorder never changes extraction output, and every profile it
//! produces is well-formed — spans close, nesting follows the pipeline
//! stage order, counters are monotone.

mod support;

use lsr_core::{try_extract, EXTRACT_STAGE_SPANS};
use lsr_obs::{Profile, Recorder};
use proptest::prelude::*;

/// Asserts the structural well-formedness the mutation tests rely on:
/// validation passes, every span is closed, and the stage spans under
/// `extract` appear in pipeline order.
fn assert_well_formed(name: &str, p: &Profile) {
    let errs = p.validate();
    assert!(errs.is_empty(), "{name}: profile must validate: {errs:?}");
    assert!(p.anomalies.is_empty(), "{name}: no recording anomalies: {:?}", p.anomalies);
    for s in &p.spans {
        assert!(s.dur_ns.is_some(), "{name}: span {:?} was opened but never closed", s.name);
    }
    let missing = p.expect_spans(EXTRACT_STAGE_SPANS);
    assert!(missing.is_empty(), "{name}: stage spans missing: {missing:?}");
    // The unconditional stages must be children of `extract`, in
    // ingest→partition→order order (conditional stages may interleave).
    let kids = p.children_of("extract");
    let mut last = 0;
    for stage in EXTRACT_STAGE_SPANS {
        let pos = kids
            .iter()
            .position(|k| k == stage)
            .unwrap_or_else(|| panic!("{name}: {stage} must be a child of extract, got {kids:?}"));
        assert!(pos >= last, "{name}: stage {stage} out of pipeline order in {kids:?}");
        last = pos;
    }
    // Counters are totals of positive deltas: monotone by construction,
    // and the event log must reconcile with every total.
    for ev in &p.counter_events {
        assert!(ev.delta > 0, "{name}: counter event with non-positive delta: {ev:?}");
    }
    for c in &p.counters {
        let sum: u64 = p.counter_events.iter().filter(|e| e.name == c.name).map(|e| e.delta).sum();
        assert_eq!(sum, c.total, "{name}: counter {} events must sum to its total", c.name);
    }
}

/// The differential property, on the real proxy apps: extraction with
/// an enabled recorder is bit-identical to the disabled default, and
/// the profile is well-formed with the core counters populated.
#[test]
fn enabled_recorder_never_changes_extraction_output() {
    for (name, trace, cfg) in support::presets() {
        let off = try_extract(&trace, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rec = Recorder::enabled();
        let on = try_extract(&trace, &cfg.with_recorder(rec.clone()))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(off, on, "{name}: recorder must not perturb the recovered structure");

        let p = rec.profile(name).expect("enabled recorder yields a profile");
        assert_well_formed(name, &p);
        assert!(p.counter("core.atoms").unwrap_or(0) > 0, "{name}: atoms counter populated");
        assert_eq!(
            p.counter("core.phases"),
            Some(on.phases.len() as u64),
            "{name}: phase counter matches the structure"
        );
    }
}

/// Counters are deterministic: two enabled runs over the same preset
/// agree exactly (spans differ only in timing).
#[test]
fn counters_are_deterministic_per_preset() {
    for (name, trace, cfg) in support::presets() {
        let rec1 = Recorder::enabled();
        let rec2 = Recorder::enabled();
        try_extract(&trace, &cfg.clone().with_recorder(rec1.clone())).unwrap();
        try_extract(&trace, &cfg.with_recorder(rec2.clone())).unwrap();
        assert_eq!(rec1.counters(), rec2.counters(), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Span-tree well-formedness holds for arbitrary tape-generated
    /// traces under every extraction configuration, and the recorder
    /// stays extraction-invariant there too.
    #[test]
    fn profiles_are_well_formed_on_arbitrary_traces(
        pes in 1u32..4,
        chares in 1u32..6,
        tape in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        for (name, cfg) in support::all_configs() {
            let off = try_extract(&trace, &cfg).expect("tape traces extract");
            let rec = Recorder::enabled();
            let on = try_extract(&trace, &cfg.with_recorder(rec.clone()))
                .expect("tape traces extract");
            prop_assert_eq!(&off, &on, "{}", name);
            let p = rec.profile(name).expect("profile");
            assert_well_formed(name, &p);
        }
    }
}

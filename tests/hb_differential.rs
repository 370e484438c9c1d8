//! Differential suite for the two happened-before engines: the
//! epoch-clock baseline (`HbEngine::Clocks`) and the dynamic
//! partial-order engine (`HbEngine::Dynamic`) must answer every
//! reachability query identically — on every generator preset, on
//! adversarial tape-generated traces, and across a seeded `lsr-fuzz`
//! scenario sweep — and `analyze_races` must produce byte-identical
//! reports through either. The planted-corruption tests close the
//! loop: each engine corruption kind must be *caught* by this suite's
//! oracle, flipping a race verdict against the clocks baseline.

mod support;

use lsr_core::Config;
use lsr_lint::{
    analyze_races_with, analyze_races_with_index, causal_mode, HbCorruption, HbEngine, HbIndex,
    HbMode,
};
use lsr_trace::{TaskId, Trace};
use proptest::prelude::*;

/// All eleven generator presets with their CLI extraction
/// configurations (mirrors `tests/obs_properties.rs`).
fn presets() -> Vec<(&'static str, Trace, Config)> {
    use lsr_apps::*;
    let charm = Config::charm();
    let mpi = Config::mpi();
    vec![
        ("jacobi-fig8", jacobi2d(&JacobiParams::fig8()), charm.clone()),
        ("jacobi-fig15", jacobi2d(&JacobiParams::fig15()), charm.clone()),
        ("lulesh-charm", lulesh_charm(&LuleshParams::fig16_charm()), charm.clone()),
        ("lulesh-mpi", lulesh_mpi(&LuleshParams::fig16_mpi()), mpi.clone()),
        ("lassen8", lassen_charm(&LassenParams::chares8()), charm.clone()),
        ("lassen64", lassen_charm(&LassenParams::chares64()), charm.clone()),
        ("lassen-mpi", lassen_mpi(&LassenParams::mpi(4, 2)), mpi.clone()),
        ("pdes", pdes_charm(&PdesParams::fig24()), charm.clone()),
        (
            "mergetree",
            mergetree_mpi(&MergeTreeParams::small()),
            mpi.clone().with_process_order(false),
        ),
        ("bt", bt_mpi(&BtParams::fig1()), mpi),
        ("divcon", divcon_charm(&DivConParams::small()), charm),
    ]
}

/// The modes a preset's CLI surface can reach: the schedule relation
/// (`lsr lint`) and its configuration's causal relation (`lsr races`).
fn modes(cfg: &Config) -> [HbMode; 2] {
    [HbMode::Schedule, causal_mode(cfg)]
}

/// Exhaustive agreement on one trace and mode: both engines must give
/// the same cycle witness and the same answer for *every* ordered task
/// pair — not a sampled workload. Returns how many of those queries the
/// dynamic engine answered through its pruned search.
fn assert_engines_agree(name: &str, trace: &Trace, mode: HbMode) -> u64 {
    let ix = trace.index();
    let clocks = HbIndex::build_with_engine(trace, &ix, mode, HbEngine::Clocks);
    let dynamic = HbIndex::build_with_engine(trace, &ix, mode, HbEngine::Dynamic);
    assert_eq!(
        clocks.cycle(),
        dynamic.cycle(),
        "{name} {mode:?}: engines must report the same cycle witness"
    );
    let n = trace.tasks.len();
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            let (ta, tb) = (TaskId(a), TaskId(b));
            assert_eq!(
                clocks.happens_before(ta, tb),
                dynamic.happens_before(ta, tb),
                "{name} {mode:?}: engines disagree on {a} -> {b}"
            );
        }
    }
    dynamic.stats().searches
}

/// Both engines agree on every task pair of every preset, in both the
/// schedule and the causal relation — including queries only the
/// dynamic engine's pruned search can settle.
#[test]
fn engines_agree_on_all_pairs_of_every_preset() {
    let mut searches = 0;
    for (name, trace, cfg) in presets() {
        for mode in modes(&cfg) {
            searches += assert_engines_agree(name, &trace, mode);
        }
    }
    assert!(searches > 0, "the presets must exercise the pruned search");
}

/// `analyze_races` is engine-independent on every preset: the full
/// report — diagnostics, classifications, JSON — is byte-identical.
#[test]
fn race_reports_are_identical_across_engines_on_every_preset() {
    for (name, trace, cfg) in presets() {
        let rep_c = analyze_races_with(&trace, &cfg, 1_000_000, HbEngine::Clocks)
            .unwrap_or_else(|c| panic!("{name}: cyclic: {c:?}"));
        let rep_d = analyze_races_with(&trace, &cfg, 1_000_000, HbEngine::Dynamic)
            .unwrap_or_else(|c| panic!("{name}: cyclic: {c:?}"));
        assert_eq!(rep_c.to_json(), rep_d.to_json(), "{name}: reports must be byte-identical");
        assert_eq!(rep_c.to_string(), rep_d.to_string(), "{name}");
    }
}

/// A 64-scenario `lsr-fuzz` sweep through both simulator backends:
/// engine agreement and report identity must hold on machine-generated
/// program shapes, not just the curated presets.
#[test]
fn engines_agree_across_fuzz_scenario_sweep() {
    use lsr_fuzz::{emit, Backend, Motif, Scenario};
    for id in 0..64u32 {
        let sc = Scenario::generate(0xD1FF_E4E7_0001, id, &Motif::ALL);
        for backend in Backend::ALL {
            let trace = emit(&sc, backend);
            let cfg = backend.config();
            let name = format!("scenario{id}/{backend}");
            assert_engines_agree(&name, &trace, causal_mode(&cfg));
            let rep_c = analyze_races_with(&trace, &cfg, 10_000, HbEngine::Clocks)
                .unwrap_or_else(|c| panic!("{name}: cyclic: {c:?}"));
            let rep_d = analyze_races_with(&trace, &cfg, 10_000, HbEngine::Dynamic)
                .unwrap_or_else(|c| panic!("{name}: cyclic: {c:?}"));
            assert_eq!(rep_c.to_json(), rep_d.to_json(), "{name}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine agreement on arbitrary tape-generated traces, across the
    /// schedule relation and every causal variant the configurations
    /// reach.
    #[test]
    fn engines_agree_on_arbitrary_traces(
        pes in 1u32..4,
        chares in 1u32..6,
        tape in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        let ix = trace.index();
        for mode in [
            HbMode::Schedule,
            HbMode::Causal { chare_order: true, sdag_order: false },
            HbMode::Causal { chare_order: false, sdag_order: true },
            HbMode::Causal { chare_order: false, sdag_order: false },
        ] {
            let clocks = HbIndex::build_with_engine(&trace, &ix, mode, HbEngine::Clocks);
            let dynamic = HbIndex::build_with_engine(&trace, &ix, mode, HbEngine::Dynamic);
            prop_assert_eq!(clocks.cycle(), dynamic.cycle());
            let n = trace.tasks.len();
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    let (ta, tb) = (TaskId(a), TaskId(b));
                    prop_assert_eq!(
                        clocks.happens_before(ta, tb),
                        dynamic.happens_before(ta, tb),
                        "{:?}: disagree on {} -> {}", mode, a, b
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Planted corruptions: each kind must flip a race verdict.
// ---------------------------------------------------------------------

/// The uncorrupted race report for a preset, computed through the
/// clocks baseline (the oracle the corrupted engine is judged against).
fn baseline_report(trace: &Trace, cfg: &Config) -> String {
    analyze_races_with(trace, cfg, 1_000_000, HbEngine::Clocks).expect("acyclic").to_json()
}

/// Runs the real race scan over a deliberately corrupted dynamic
/// index; returns its report JSON when the corruption applied.
fn corrupted_report(trace: &Trace, cfg: &Config, c: HbCorruption) -> Option<String> {
    let ix = trace.index();
    let mut hb = HbIndex::build_with_engine(trace, &ix, causal_mode(cfg), HbEngine::Dynamic);
    if !hb.corrupt_for_tests(c) {
        return None;
    }
    Some(analyze_races_with_index(trace, cfg, 1_000_000, &hb).expect("acyclic").to_json())
}

/// Finds a preset (and corruption site, when parameterized) where the
/// corruption both applies and flips the race report against the
/// clocks baseline — the differential oracle must be able to catch
/// every corruption kind, not shrug it off.
fn assert_corruption_caught(kind: &str, sites: impl Fn(&Trace) -> Vec<HbCorruption>) {
    for (name, trace, cfg) in presets() {
        let baseline = baseline_report(&trace, &cfg);
        for c in sites(&trace) {
            if let Some(report) = corrupted_report(&trace, &cfg, c) {
                if report != baseline {
                    println!("{kind}: caught on {name} via {c:?}");
                    return;
                }
            }
        }
    }
    panic!("{kind}: no preset/site where the corruption flips a race verdict");
}

/// Every task as a corruption site, in id order.
fn every_task(trace: &Trace, site: impl Fn(TaskId) -> HbCorruption) -> Vec<HbCorruption> {
    (0..trace.tasks.len() as u32).map(|t| site(TaskId(t))).collect()
}

/// A dropped cross-lane edge (lost on insertion, so the pruned search
/// cannot walk it) changes a concurrency verdict the race scan depends
/// on.
#[test]
fn dropped_cross_lane_edge_flips_a_race_verdict() {
    assert_corruption_caught("drop-cross-edge", |trace| {
        every_task(trace, HbCorruption::DropCrossEdge)
    });
}

/// Swapped reachability labels change an answer the race scan depends
/// on.
#[test]
fn swapped_labels_flip_a_race_verdict() {
    assert_corruption_caught("swap-label", |trace| {
        let n = trace.tasks.len() as u32;
        // Candidate label swaps: a window of task pairs spanning the
        // whole id range (every preset's streams cross it).
        (0..n.saturating_sub(1))
            .flat_map(|a| {
                [
                    HbCorruption::SwapLabel(TaskId(a), TaskId(a + 1)),
                    HbCorruption::SwapLabel(TaskId(a), TaskId((a + n / 2) % n)),
                ]
            })
            .collect()
    });
}

/// A stale reach bound (successors' reach never folded in) prunes a
/// true path and changes a reachability answer the race scan depends
/// on.
#[test]
fn stale_reach_bound_flips_a_race_verdict() {
    assert_corruption_caught("stale-bound", |trace| every_task(trace, HbCorruption::StaleBound));
}

//! Differential suite for the happened-before index: `HbIndex` and a
//! reference closure must be two engines that agree. The reference
//! builds each mode's generating edges straight from the trace
//! (`support::hb_edges`) and closes them with one DFS per task
//! (`support::dfs_closure`); it shares neither edge construction,
//! topological order nor labels with the index. The two must agree on
//! every reachability query and every cycle verdict — on every
//! generator preset, on adversarial tape-generated traces, and across a
//! seeded `lsr-fuzz` scenario sweep — and the race scan built on the
//! index must report exactly the stream pairs the closure leaves
//! unordered. The planted-corruption tests close the loop: each index
//! corruption kind must be *caught*, flipping a race verdict.

mod support;

use lsr_core::Config;
use lsr_lint::{
    analyze_races, analyze_races_with_index, causal_mode, HbCorruption, HbIndex, HbMode,
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

/// Exhaustive agreement on one trace and mode: the index must find a
/// cycle exactly when the closure does, with a witness made of
/// reference edges, and otherwise give the closure's answer for
/// *every* ordered task pair — not a sampled workload. Returns how many
/// of those queries the index answered through its pruned search.
fn assert_matches_closure(name: &str, trace: &Trace, mode: HbMode) -> u64 {
    let ix = trace.index();
    let hb = HbIndex::build_with_mode(trace, &ix, mode);
    let edges = support::hb_edges(trace, &ix, mode);
    let closure = support::dfs_closure(&edges);
    if !closure.is_acyclic() {
        let cyc = hb.cycle();
        assert!(!cyc.is_empty(), "{name} {mode:?}: the closure has a cycle, the index none");
        for (i, a) in cyc.iter().enumerate() {
            let b = cyc[(i + 1) % cyc.len()];
            assert!(edges[a.index()].contains(&b.0), "{name} {mode:?}: witness {cyc:?}");
        }
        return 0;
    }
    assert!(hb.cycle().is_empty(), "{name} {mode:?}: spurious cycle {:?}", hb.cycle());
    let n = trace.tasks.len() as u32;
    for a in 0..n {
        for b in 0..n {
            assert_eq!(
                hb.happens_before(TaskId(a), TaskId(b)),
                closure.reaches(a, b),
                "{name} {mode:?}: index and closure disagree on {a} -> {b}"
            );
        }
    }
    hb.stats().searches
}

/// The race scan checked against the closure: the pairs
/// `analyze_races` reports (races and untraced pairs) must be exactly
/// the schedule-adjacent pairs of each serial stream — each
/// application chare, and each PE's runtime tasks — that the causal
/// closure leaves unordered.
fn assert_race_pairs_match_closure(name: &str, trace: &Trace, cfg: &Config) {
    let report =
        analyze_races(trace, cfg, usize::MAX).unwrap_or_else(|c| panic!("{name}: cyclic: {c:?}"));
    let ix = trace.index();
    let closure = support::dfs_closure(&support::hb_edges(trace, &ix, causal_mode(cfg)));
    let runtime = |t: &TaskId| trace.task_is_runtime(*t);
    let chares = ix.tasks_by_chare.iter().filter(|l| !l.first().is_some_and(runtime)).cloned();
    let pes = ix.tasks_by_pe.iter().map(|l| l.iter().copied().filter(runtime).collect::<Vec<_>>());
    let (mut scanned, mut expected) = (0, Vec::new());
    for stream in chares.chain(pes) {
        for w in stream.windows(2) {
            scanned += 1;
            if !closure.reaches(w[0].0, w[1].0) && !closure.reaches(w[1].0, w[0].0) {
                expected.push((w[0], w[1]));
            }
        }
    }
    let mut reported: Vec<(TaskId, TaskId)> =
        report.races.iter().map(|r| (r.first, r.second)).collect();
    reported.extend(report.untraced.iter().map(|u| (u.first, u.second)));
    reported.sort_unstable();
    expected.sort_unstable();
    assert_eq!(report.scanned_pairs, scanned, "{name}: scanned pairs");
    assert_eq!(reported, expected, "{name}: reported pairs differ from the closure's");
}

/// The index and the closure agree on every task pair of every preset,
/// in both the schedule and the causal relation — including queries
/// only the index's pruned search can settle.
#[test]
fn engines_agree_on_all_pairs_of_every_preset() {
    let mut searches = 0;
    for (name, trace, cfg) in presets() {
        for mode in modes(&cfg) {
            searches += assert_matches_closure(name, &trace, mode);
        }
    }
    assert!(searches > 0, "the presets must exercise the pruned search");
}

/// On every preset, `analyze_races` reports exactly the stream pairs
/// the closure leaves concurrent.
#[test]
fn race_reports_are_identical_across_engines_on_every_preset() {
    for (name, trace, cfg) in presets() {
        assert_race_pairs_match_closure(name, &trace, &cfg);
    }
}

/// A 64-scenario `lsr-fuzz` sweep through both simulator backends:
/// closure agreement and race-pair identity must hold on
/// machine-generated program shapes, not just the curated presets.
#[test]
fn engines_agree_across_fuzz_scenario_sweep() {
    use lsr_fuzz::{emit, Backend, Motif, Scenario};
    for id in 0..64u32 {
        let sc = Scenario::generate(0xD1FF_E4E7_0001, id, &Motif::ALL);
        for backend in Backend::ALL {
            let trace = emit(&sc, backend);
            let cfg = backend.config();
            let name = format!("scenario{id}/{backend}");
            for mode in modes(&cfg) {
                assert_matches_closure(&name, &trace, mode);
            }
            assert_race_pairs_match_closure(&name, &trace, &cfg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Closure agreement on arbitrary tape-generated traces, across the
    /// schedule relation and every causal variant the configurations
    /// reach.
    #[test]
    fn engines_agree_on_arbitrary_traces(
        pes in 1u32..4,
        chares in 1u32..6,
        tape in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let trace = support::trace_from_tape(pes, chares, &tape);
        for mode in [
            HbMode::Schedule,
            HbMode::Causal { chare_order: true, sdag_order: false },
            HbMode::Causal { chare_order: false, sdag_order: true },
            HbMode::Causal { chare_order: false, sdag_order: false },
        ] {
            assert_matches_closure("tape", &trace, mode);
        }
    }
}

// ---------------------------------------------------------------------
// Planted corruptions: each kind must flip a race verdict.
// ---------------------------------------------------------------------

/// The uncorrupted race report for a preset (the closure tests above
/// vouch for its verdicts).
fn baseline_report(trace: &Trace, cfg: &Config) -> String {
    analyze_races(trace, cfg, 1_000_000).expect("acyclic").to_json()
}

/// Runs the real race scan over a deliberately corrupted index;
/// returns its report JSON when the corruption applied.
fn corrupted_report(trace: &Trace, cfg: &Config, c: HbCorruption) -> Option<String> {
    let ix = trace.index();
    let mut hb = HbIndex::build_with_mode(trace, &ix, causal_mode(cfg));
    if !hb.corrupt_for_tests(c) {
        return None;
    }
    Some(analyze_races_with_index(trace, cfg, 1_000_000, &hb).expect("acyclic").to_json())
}

/// Finds a preset (and corruption site, when parameterized) where the
/// corruption both applies and flips the race report against the
/// uncorrupted one — the suite must be able to catch every corruption
/// kind, not shrug it off.
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

/// Dropped cross edges — a task's successors outside its forest
/// subtree, lost on insertion so the pruned search cannot walk them —
/// change a concurrency verdict the race scan depends on.
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

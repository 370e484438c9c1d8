//! Cross-crate integration tests: every proxy application's trace runs
//! through the full pipeline (simulate → validate → extract → verify →
//! metrics → render) under every configuration.

mod support;

use lsr_apps::*;
use lsr_core::{extract, Config};
use lsr_metrics::{
    attributes_whole_task, idle_experienced, sub_block_durations, DifferentialDuration, Imbalance,
};
use lsr_trace::{Dur, PeId, Trace};

fn all_app_traces() -> Vec<(&'static str, Trace, Config)> {
    let mut small_jacobi = JacobiParams::fig15();
    small_jacobi.iters = 2;
    let mut lassen = LassenParams::chares8();
    lassen.iters = 2;
    let mut lassen64 = LassenParams::chares64();
    lassen64.iters = 2;
    vec![
        ("jacobi", jacobi2d(&small_jacobi), Config::charm()),
        ("lulesh-charm", lulesh_charm(&LuleshParams::fig16_charm()), Config::charm()),
        ("lulesh-mpi", lulesh_mpi(&LuleshParams::fig16_mpi()), Config::mpi()),
        ("lassen-charm-8", lassen_charm(&lassen), Config::charm()),
        ("lassen-charm-64", lassen_charm(&lassen64), Config::charm()),
        ("lassen-mpi", lassen_mpi(&LassenParams::mpi(4, 2)), Config::mpi()),
        ("pdes", pdes_charm(&PdesParams::fig24()), Config::charm()),
        (
            "mergetree",
            mergetree_mpi(&MergeTreeParams::small()),
            Config::mpi().with_process_order(false),
        ),
        ("bt", bt_mpi(&BtParams::fig1()), Config::mpi()),
    ]
}

#[test]
fn every_app_trace_is_valid_and_extracts() {
    for (name, trace, cfg) in all_app_traces() {
        lsr_trace::validate(&trace).unwrap_or_else(|e| panic!("{name}: invalid trace: {e:?}"));
        let ls = extract(&trace, &cfg);
        ls.verify(&trace).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(ls.num_phases() > 0, "{name}: no phases");
    }
}

#[test]
fn metrics_hold_invariants_on_all_apps() {
    for (name, trace, cfg) in all_app_traces() {
        let ls = extract(&trace, &cfg);
        // Sub-blocks partition every task exactly.
        let subs = sub_block_durations(&trace);
        assert!(attributes_whole_task(&trace, &subs), "{name}: sub-block accounting");
        // Differential duration: non-negative with a zero witness at
        // every (phase, step) that has events.
        let dd = DifferentialDuration::compute(&trace, &ls);
        let mut by_key: std::collections::HashMap<(u32, u64), Dur> =
            std::collections::HashMap::new();
        for e in trace.event_ids() {
            let key = (ls.phase_of(e), ls.global_step(e));
            let d = dd.per_event[e.index()];
            by_key.entry(key).and_modify(|m| *m = (*m).min(d)).or_insert(d);
        }
        assert!(
            by_key.values().all(|&m| m == Dur::ZERO),
            "{name}: every step needs a zero-differential witness"
        );
        // Idle experienced never exceeds the total idle on the task's PE.
        let idle = idle_experienced(&trace);
        let mut per_pe_idle = vec![Dur::ZERO; trace.pe_count as usize];
        for i in &trace.idles {
            per_pe_idle[i.pe.index()] += i.end - i.begin;
        }
        for t in &trace.tasks {
            assert!(
                idle[t.id.index()] <= per_pe_idle[t.pe.index()],
                "{name}: task idle-experienced exceeds its PE's idle"
            );
        }
        // Imbalance: spreads are consistent with per-phase extremes.
        let imb = Imbalance::compute(&trace, &ls);
        let pes = || (0..trace.pe_count).map(PeId);
        let mut all_loads = Dur::ZERO;
        for p in 0..ls.num_phases() as u32 {
            let max_spread = pes().map(|pe| imb.spread(p, pe)).max().unwrap_or(Dur::ZERO);
            assert_eq!(max_spread, imb.per_phase[p as usize], "{name}: phase {p} spread mismatch");
            all_loads += pes().map(|pe| imb.load(p, pe)).sum::<Dur>();
        }
        assert!(imb.overall() <= all_loads);
    }
}

#[test]
fn renders_work_for_all_apps() {
    for (name, trace, cfg) in all_app_traces() {
        let ls = extract(&trace, &cfg);
        let a = lsr_render::logical_by_phase(&trace, &ls);
        assert!(a.lines().count() > 2, "{name}: logical ascii");
        let p = lsr_render::physical_by_phase(&trace, &ls);
        assert!(p.lines().count() > 2, "{name}: physical ascii");
        let svg = lsr_render::logical_svg(&trace, &ls, &lsr_render::Coloring::Phase);
        assert!(svg.contains("</svg>"), "{name}: svg well-formed");
        let dd = DifferentialDuration::compute(&trace, &ls);
        let vals: Vec<f64> = dd.per_event.iter().map(|d| d.nanos() as f64).collect();
        let m = lsr_render::logical_by_metric(&trace, &ls, &vals);
        assert!(!m.is_empty(), "{name}: metric view");
    }
}

#[test]
fn structure_is_stable_across_scheduling_noise() {
    // Phase structure is (approximately) a property of the program, not
    // the schedule: counts may differ by a boundary remnant or two when
    // iterations bleed into each other, but not more.
    let mut base_params = JacobiParams::fig8();
    base_params.iters = 2;
    let base =
        extract(&jacobi2d(&JacobiParams { seed: 77, ..base_params.clone() }), &Config::charm());
    for seed in [1u64, 2, 3] {
        let p = JacobiParams { seed, ..base_params.clone() };
        let tr = jacobi2d(&p);
        let ls = extract(&tr, &Config::charm());
        ls.verify(&tr).unwrap();
        let d_phases = (ls.num_phases() as i64 - base.num_phases() as i64).abs();
        let d_app = (ls.app_phase_count() as i64 - base.app_phase_count() as i64).abs();
        assert!(d_phases <= 2, "seed {seed}: phase count drifted by {d_phases}");
        assert!(d_app <= 2, "seed {seed}: app phase count drifted by {d_app}");
        // The per-iteration halo phases (all 64 chares) always appear.
        let full = ls.phases.iter().filter(|ph| !ph.is_runtime && ph.chares.len() >= 64).count();
        assert!(full >= 2, "seed {seed}: both halo phases must be recovered, got {full}");
    }
}

#[test]
fn quality_report_ranks_apps_sensibly() {
    let jacobi = jacobi2d(&JacobiParams::fig8());
    let pdes = pdes_charm(&PdesParams::fig24());
    let q_jacobi = lsr_trace::QualityReport::analyze(&jacobi);
    let q_pdes = lsr_trace::QualityReport::analyze(&pdes);
    assert!(
        q_jacobi.score() > q_pdes.score(),
        "the PDES trace hides dependencies and must score lower ({} vs {})",
        q_jacobi.score(),
        q_pdes.score()
    );
}

#[test]
fn tape_generator_produces_valid_traces() {
    let tape: Vec<u8> = (0..200u32).map(|i| (i * 37 % 251) as u8).collect();
    let tr = support::trace_from_tape(3, 5, &tape);
    assert!(lsr_trace::validate(&tr).is_ok());
    assert!(!tr.tasks.is_empty());
    for (name, cfg) in support::all_configs() {
        let ls = extract(&tr, &cfg);
        ls.verify(&tr).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

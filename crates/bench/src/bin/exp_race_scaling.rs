//! Race-analysis scaling on the merge tree, engine vs engine: the
//! dynamic partial-order engine (`HbEngine::Dynamic`) must beat the
//! epoch-clock baseline (`HbEngine::Clocks`) on the query side of
//! `lsr races` while answering every query identically, and its memory
//! must stay O(tasks) instead of tracking the clock pool's
//! O(tasks · depth) entry count. One LULESH row closes the sweep: the
//! densest causal relation of the generators, where the dynamic store
//! must keep the same bounded bytes per task and edge.
//!
//! Attribution. Both engines share an engine-independent front half —
//! edge generation, topological order, chain decomposition
//! (`HbBase`) — which is timed once per scale and reported as
//! `base_s`. The *query side* of one engine is what remains:
//!
//! ```text
//! races_s = (full index build − base) + adjacent-pair concurrency scan
//! ```
//!
//! i.e. the engine's own store construction plus the scan
//! `analyze_races` actually replays. A seeded random-pair reachability
//! sweep (8 per task) is also run and timed apart: both engines must
//! return the same counts on the same pair sequence, and its time
//! (`probe_ns`, excluded from `races_s`) is the cost of a single
//! arbitrary query. Random cross-lane pairs are the dynamic engine's
//! worst case — the ones its labels leave open run the pruned search —
//! so the probe is reported for both engines at every rung and on the
//! LULESH row.
//!
//! Artifacts: `exp_race_scaling.csv` (per-scale series with *measured*
//! `size_bytes()` per engine — no extrapolated dense column) and the
//! schema-versioned `bench_out/BENCH_races.json`. With
//! `LSR_BENCH_RACES=1` the run becomes a regression gate in the
//! `LSR_OBS_GATE` style: it panics without a committed artifact, and
//! fails if the top-rung speedup falls below the 5x acceptance line
//! (or half the committed figure), if dynamic memory regresses, or if
//! the dynamic engine's probe time relative to the clock engine's grows
//! past 1.5x the committed ratio.

use lsr_apps::{lulesh_charm, mergetree_mpi, LuleshParams, MergeTreeParams};
use lsr_bench::{banner, loglog_slope, secs, timed, write_artifact};
use lsr_core::Config;
use lsr_lint::{analyze_races_with, causal_mode, HbBase, HbEngine, HbIndex, HbStats};
use lsr_trace::{Dur, TaskId, Trace, TraceIndex};
use std::time::Duration;

fn params(ranks: u32) -> MergeTreeParams {
    MergeTreeParams { ranks, seed: 0x10, base: Dur::from_micros(100), skew: 3.0 }
}

/// Best-of-N timing: the workload is deterministic, so the minimum is
/// the least-noisy estimate of the cost.
fn best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut dur) = timed(&mut f);
    for _ in 1..reps {
        let (o, d) = timed(&mut f);
        if d < dur {
            out = o;
            dur = d;
        }
    }
    (out, dur)
}

/// The scan `analyze_races` replays: adjacent-pair concurrency over
/// every chare stream. Returns the concurrent-pair count so the
/// engines' answers can be compared at full scale, not just timed.
fn scan_workload(hb: &HbIndex, ix: &TraceIndex) -> usize {
    let mut concurrent = 0usize;
    for list in &ix.tasks_by_chare {
        for w in list.windows(2) {
            if hb.concurrent(w[0], w[1]) {
                concurrent += 1;
            }
        }
    }
    concurrent
}

/// A seeded random-pair sequence (8 per task — the cross-lane mix an
/// online consumer would issue), generated once per scale so both
/// engines answer the *same* pairs.
fn probe_pairs(n: usize, seed: u64) -> Vec<(TaskId, TaskId)> {
    let mut state = seed | 1;
    let mut rand = move || {
        // xorshift64: deterministic, engine-independent pair sequence.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..8 * n)
        .map(|_| (TaskId((rand() % n as u64) as u32), TaskId((rand() % n as u64) as u32)))
        .collect()
}

fn probe_workload(hb: &HbIndex, pairs: &[(TaskId, TaskId)]) -> usize {
    pairs.iter().filter(|&&(a, b)| hb.happens_before(a, b)).count()
}

struct EngineRun {
    engine: HbEngine,
    build: Duration,
    store: Duration,
    scan: Duration,
    probe: Duration,
    stats: HbStats,
    answers: (usize, usize),
}

/// `races_s` for one engine: the query side of `lsr races` — the
/// engine's own store construction (full build minus the shared base)
/// plus the concurrency scan the detector replays.
fn races_secs(r: &EngineRun) -> f64 {
    (r.store + r.scan).as_secs_f64()
}

/// Mean tasks the dynamic engine's pruned search expands per search
/// (0 when no query needed one): the search's cost, independent of how
/// many reps ran.
fn visits_per_search(s: &HbStats) -> f64 {
    s.search_visits as f64 / s.searches.max(1) as f64
}

fn run_engine(
    trace: &Trace,
    ix: &TraceIndex,
    cfg: &Config,
    engine: HbEngine,
    reps: usize,
    base: Duration,
    pairs: &[(TaskId, TaskId)],
) -> EngineRun {
    let mode = causal_mode(cfg);
    let (hb, build) = best(reps, || HbIndex::build_with_engine(trace, ix, mode, engine));
    assert!(hb.cycle().is_empty(), "the causal relation is acyclic");
    let (concurrent, scan) = best(reps, || scan_workload(&hb, ix));
    let (ordered, probe) = best(reps, || probe_workload(&hb, pairs));
    EngineRun {
        engine,
        build,
        store: build.saturating_sub(base),
        scan,
        probe,
        stats: hb.stats(),
        answers: (concurrent, ordered),
    }
}

/// Dynamic-engine probe time as a multiple of the clock engine's on
/// the same pairs: host speed cancels out of the ratio.
fn probe_ratio(clocks: &EngineRun, dynamic: &EngineRun) -> f64 {
    dynamic.probe.as_secs_f64() / clocks.probe.as_secs_f64().max(1e-12)
}

/// Reads the committed artifact's top-rung figures:
/// `(speedup, dynamic_bytes, probe_ratio)`.
fn committed_top(path: &std::path::Path) -> Option<(f64, u64, f64)> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde::Value = serde_json::from_str(&text).ok()?;
    let top = v.get("top")?;
    let float = |key: &str| match top.get(key)? {
        serde::Value::F64(x) => Some(*x),
        serde::Value::U64(n) => Some(*n as f64),
        _ => None,
    };
    let serde::Value::U64(bytes) = top.get("dynamic_bytes")? else { return None };
    Some((float("speedup")?, *bytes, float("probe_ratio")?))
}

fn main() {
    banner("exp_race_scaling", "dynamic partial-order engine vs epoch clocks on the merge tree");
    // The paper's 1,024-rank configuration and the 4,096-rank gate
    // rung are always part of the sweep: the complexity and speedup
    // claims must hold at scale, not just on toy sizes.
    let sweep: &[u32] = if lsr_bench::full_scale() {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    } else {
        &[64, 256, 1024, 4096]
    };
    let reps = if lsr_bench::full_scale() { 15 } else { 7 };
    let cfg = Config::mpi().with_process_order(false);
    let out_dir = lsr_bench::out_dir();
    let races_path = out_dir.join("BENCH_races.json");
    let committed = committed_top(&races_path);

    let mut csv = String::from(
        "ranks,tasks,edges,lanes,clock_entries,visits_per_search,clocks_bytes,dynamic_bytes,\
         base_s,clocks_build_s,dynamic_build_s,clocks_races_s,dynamic_races_s,speedup\n",
    );
    let mut scale_json = Vec::new();
    let mut entry_points = Vec::new();
    let mut dyn_points = Vec::new();
    let mut top = None;
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "ranks",
        "tasks",
        "edges",
        "clk.ent",
        "clk.B",
        "dyn.B",
        "base",
        "clk.races",
        "dyn.races",
        "speedup"
    );
    for &ranks in sweep {
        let trace = mergetree_mpi(&params(ranks));
        let ix = trace.index();
        let mode = causal_mode(&cfg);
        let n = trace.tasks.len();
        let pairs = probe_pairs(n, 0x9E37_79B9_7F4A_7C15 ^ ranks as u64);
        // The shared front half, timed once: both engines pay it
        // verbatim inside their builds, so subtracting it isolates
        // each engine's own store construction.
        let (_, base) = best(reps, || HbBase::build(&trace, &ix, mode));
        let clocks = run_engine(&trace, &ix, &cfg, HbEngine::Clocks, reps, base, &pairs);
        let dynamic = run_engine(&trace, &ix, &cfg, HbEngine::Dynamic, reps, base, &pairs);
        let (cs, ds) = (&clocks.stats, &dynamic.stats);

        // Differential identity at every scale: the engines must agree
        // on the replayed scan and the random probe, and produce
        // byte-identical race reports through the real analysis.
        assert_eq!(
            clocks.answers, dynamic.answers,
            "{ranks} ranks: engines disagree on the query workload"
        );
        let rep_c = analyze_races_with(&trace, &cfg, 1_000_000, HbEngine::Clocks).expect("acyclic");
        let rep_d =
            analyze_races_with(&trace, &cfg, 1_000_000, HbEngine::Dynamic).expect("acyclic");
        assert_eq!(rep_c.to_json(), rep_d.to_json(), "{ranks} ranks: reports must be identical");

        // The deterministic per-rank MPI program admits no delivery
        // races at any scale.
        assert!(
            rep_d.races.is_empty() && rep_d.untraced.is_empty(),
            "merge tree at {ranks} ranks must be race-free: {rep_d}"
        );

        // Clock-pool complexity (the baseline's best case): entries are
        // O(tasks + edges) up to the tree's log-depth factor.
        assert!(
            cs.clock_entries <= 4 * (cs.tasks + cs.edges),
            "clock entries {} must be ≤ 4 × (tasks {} + edges {}) at {ranks} ranks",
            cs.clock_entries,
            cs.tasks,
            cs.edges
        );

        // Dynamic-engine memory claim: no longer proportional to
        // clock_entries. The reachability core is five labels per task
        // plus the successor lists its pruned search walks, so the
        // store is a bounded number of words per task, measured, at
        // every scale — while the clock pool carries the tree's
        // log-depth entry blowup.
        println!(
            "    [{}r] visits/search={:.1} clock_entries={} dyn_bytes/task={:.1}",
            ranks,
            visits_per_search(ds),
            cs.clock_entries,
            ds.bytes as f64 / ds.tasks as f64
        );
        assert!(
            ds.bytes <= 48 * ds.tasks + 1024,
            "dynamic store {} B must stay O(tasks) at {ranks} ranks ({} tasks)",
            ds.bytes,
            ds.tasks
        );
        // The separation grows with scale (the clock pool's per-entry
        // cost tracks tree depth): never larger, and ≥2× smaller from
        // the paper's 1,024-rank configuration up.
        assert!(
            ds.bytes <= cs.bytes,
            "dynamic store {} B must not exceed the clock store {} B at {ranks} ranks",
            ds.bytes,
            cs.bytes
        );
        assert!(
            ranks < 1024 || 2 * ds.bytes <= cs.bytes,
            "dynamic store {} B must be ≥2× below the clock store {} B at {ranks} ranks",
            ds.bytes,
            cs.bytes
        );

        let speedup = races_secs(&clocks) / races_secs(&dynamic).max(1e-12);
        println!(
            "{:>6} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>7.1}x",
            ranks,
            cs.tasks,
            cs.edges,
            cs.clock_entries,
            cs.bytes,
            ds.bytes,
            secs(base),
            secs(clocks.store + clocks.scan),
            secs(dynamic.store + dynamic.scan),
            speedup
        );
        csv.push_str(&format!(
            "{ranks},{},{},{},{},{:.2},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.2}\n",
            cs.tasks,
            cs.edges,
            cs.lanes,
            cs.clock_entries,
            visits_per_search(ds),
            cs.bytes,
            ds.bytes,
            base.as_secs_f64(),
            clocks.build.as_secs_f64(),
            dynamic.build.as_secs_f64(),
            races_secs(&clocks),
            races_secs(&dynamic),
            speedup
        ));
        let engines = [&clocks, &dynamic]
            .iter()
            .map(|r| {
                format!(
                    "        {{\"name\": \"{}\", \"build_ns\": {}, \"store_ns\": {}, \
                     \"scan_ns\": {}, \"probe_ns\": {}, \"races_ns\": {}, \"bytes\": {}, \
                     \"clock_entries\": {}, \"visits_per_search\": {:.2}}}",
                    r.engine.name(),
                    r.build.as_nanos(),
                    r.store.as_nanos(),
                    r.scan.as_nanos(),
                    r.probe.as_nanos(),
                    (r.store + r.scan).as_nanos(),
                    r.stats.bytes,
                    r.stats.clock_entries,
                    visits_per_search(&r.stats)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        scale_json.push(format!(
            "    {{\n      \"ranks\": {ranks},\n      \"tasks\": {},\n      \"edges\": {},\n      \
             \"base_ns\": {},\n      \"engines\": [\n{engines}\n      ],\n      \
             \"speedup\": {speedup:.2}\n    }}",
            cs.tasks,
            cs.edges,
            base.as_nanos()
        ));
        entry_points.push(((cs.tasks + cs.edges) as f64, cs.clock_entries as f64));
        dyn_points.push((ds.tasks as f64, ds.bytes as f64));
        top = Some((ranks, speedup, cs.bytes as u64, ds.bytes as u64, clocks, dynamic));
    }

    // Scaling exponents across the sweep: the clock pool picks up the
    // merge tree's log-depth factor over tasks + edges (slope near 1,
    // decisively below the dense matrix's 2), while the dynamic store
    // is exactly linear in tasks.
    let slope = loglog_slope(&entry_points);
    println!("clock-entry scaling exponent vs tasks+edges: {slope:.3}");
    assert!(
        (0.8..=1.35).contains(&slope),
        "clock store must scale near-linearly in tasks + edges (slope {slope:.3})"
    );
    let dyn_slope = loglog_slope(&dyn_points);
    println!("dynamic-store byte scaling exponent vs tasks: {dyn_slope:.3}");
    assert!(
        (0.9..=1.1).contains(&dyn_slope),
        "dynamic store must scale linearly in tasks (slope {dyn_slope:.3})"
    );

    // The dense end: LULESH, whose 3-D halo gives the densest causal
    // relation of the generators (the shape on which a store of
    // per-task exception intervals grows to hundreds of bytes per
    // task). The reachability core's footprint does not depend on the
    // shape: the same bounded words per task, plus one per edge.
    let dense = lulesh_charm(&LuleshParams::scaling(4, 8));
    let dense_cfg = Config::charm();
    let dense_ix = dense.index();
    let dense_pairs = probe_pairs(dense.tasks.len(), 0x9E37_79B9_7F4A_7C15);
    let (_, dense_base) = best(reps, || HbBase::build(&dense, &dense_ix, causal_mode(&dense_cfg)));
    let run =
        |engine| run_engine(&dense, &dense_ix, &dense_cfg, engine, reps, dense_base, &dense_pairs);
    let (dense_clocks, dense_dyn) = (run(HbEngine::Clocks), run(HbEngine::Dynamic));
    assert_eq!(
        dense_clocks.answers, dense_dyn.answers,
        "lulesh: engines disagree on the query workload"
    );
    let ds = &dense_dyn.stats;
    assert!(
        ds.bytes <= 48 * ds.tasks + 4 * ds.edges + 1024,
        "dynamic store {} B must stay O(tasks + edges) on lulesh ({} tasks, {} edges)",
        ds.bytes,
        ds.tasks,
        ds.edges
    );
    let dense_speedup = races_secs(&dense_clocks) / races_secs(&dense_dyn).max(1e-12);
    let dense_probe_ratio = probe_ratio(&dense_clocks, &dense_dyn);
    println!(
        "lulesh 4x4x4: {} tasks, {} edges, clocks {} B, dynamic {} B ({:.1} B/task), \
         {:.1} visits/search, query side {dense_speedup:.1}x faster, random probe \
         {dense_probe_ratio:.2}x the clocks time",
        ds.tasks,
        ds.edges,
        dense_clocks.stats.bytes,
        ds.bytes,
        ds.bytes as f64 / ds.tasks as f64,
        visits_per_search(ds)
    );

    let (top_ranks, top_speedup, top_clocks_bytes, top_dyn_bytes, top_clocks, top_dyn) =
        top.expect("non-empty sweep");
    let top_probe_ratio = probe_ratio(&top_clocks, &top_dyn);
    println!(
        "{top_ranks}-rank random probe: clocks {}, dynamic {} ({top_probe_ratio:.2}x)",
        secs(top_clocks.probe),
        secs(top_dyn.probe)
    );
    // Opt-in regression gate (`LSR_BENCH_RACES=1`), timing-based like
    // `LSR_BENCH_SCALING`: the top rung must hold the 5x acceptance
    // line (or at least half the committed figure, so a noisy host
    // cannot silently halve the win), dynamic memory must not regress
    // past 1.5x the committed bytes, and a single query must not slow
    // down: the probe-time ratio to the clock engine stays within 1.5x
    // the committed ratio.
    if std::env::var("LSR_BENCH_RACES").map(|v| v == "1").unwrap_or(false) {
        let Some((committed_speedup, committed_bytes, committed_ratio)) = committed else {
            panic!("LSR_BENCH_RACES=1 but no committed {} to gate against", races_path.display())
        };
        let floor = 5.0_f64.max(committed_speedup / 2.0);
        assert!(
            top_speedup >= floor,
            "{top_ranks}-rank query-side speedup {top_speedup:.2}x below the gate floor \
             {floor:.2}x (committed: {committed_speedup:.2}x)"
        );
        assert!(
            top_dyn_bytes as f64 <= committed_bytes as f64 * 1.5,
            "{top_ranks}-rank dynamic store {top_dyn_bytes} B regressed past 1.5x the \
             committed {committed_bytes} B"
        );
        assert!(
            top_probe_ratio <= committed_ratio * 1.5,
            "{top_ranks}-rank random probe at {top_probe_ratio:.2}x the clocks time, past \
             1.5x the committed {committed_ratio:.2}x"
        );
        println!(
            "  races gate: {top_ranks}-rank speedup {top_speedup:.2}x >= {floor:.2}x, \
             memory and probe time within bounds"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"race_scaling\",\n  \"schema\": \"lsr-bench-races/2\",\n  \
         \"scales\": [\n{}\n  ],\n  \"dense\": {{\n    \"workload\": \"lulesh 4x4x4\",\n    \
         \"tasks\": {},\n    \"edges\": {},\n    \"speedup\": {dense_speedup:.2},\n    \
         \"clocks_bytes\": {},\n    \"dynamic_bytes\": {},\n    \
         \"clocks_probe_ns\": {},\n    \"dynamic_probe_ns\": {},\n    \
         \"probe_ratio\": {dense_probe_ratio:.2},\n    \
         \"visits_per_search\": {:.2}\n  }},\n  \
         \"top\": {{\n    \"ranks\": {top_ranks},\n    \
         \"speedup\": {top_speedup:.2},\n    \"clocks_bytes\": {top_clocks_bytes},\n    \
         \"dynamic_bytes\": {top_dyn_bytes},\n    \"clocks_probe_ns\": {},\n    \
         \"dynamic_probe_ns\": {},\n    \"probe_ratio\": {top_probe_ratio:.2}\n  }}\n}}\n",
        scale_json.join(",\n"),
        ds.tasks,
        ds.edges,
        dense_clocks.stats.bytes,
        ds.bytes,
        dense_clocks.probe.as_nanos(),
        dense_dyn.probe.as_nanos(),
        visits_per_search(ds),
        top_clocks.probe.as_nanos(),
        top_dyn.probe.as_nanos()
    );
    write_artifact("BENCH_races.json", &json);
    write_artifact("exp_race_scaling.csv", &csv);
    println!(
        "=> the dynamic engine answers identically, {top_speedup:.1}x faster on the query side \
         at {top_ranks} ranks, in O(tasks) memory"
    );
}

//! Race-analysis scaling on the merge tree: the query side of `lsr
//! races` — the causal happened-before index build plus the
//! adjacent-pair concurrency scan `analyze_races` replays — must stay
//! O(tasks) in memory and linear in time, and the merge tree must stay
//! race-free at every scale. One LULESH row closes the sweep: the
//! densest causal relation of the generators, where the index must keep
//! the same bounded bytes per task and edge.
//!
//! ```text
//! races_s = index build + adjacent-pair concurrency scan
//! ```
//!
//! A seeded random-pair reachability sweep (8 per task) is run and
//! timed apart: its time (`probe_ns`, excluded from `races_s`) is the
//! cost of a single arbitrary query, and `visits_per_search` — tasks the
//! pruned search expands per query the labels leave open — is its
//! hardware-independent cost. Random pairs are the index's worst case,
//! so the probe is reported at every rung and on the LULESH row.
//!
//! Artifact: `exp_race_scaling.csv` (per-scale series with *measured*
//! `size_bytes()`). Bytes and search visits are deterministic, so the
//! run fails if the 4,096-rank index grows past [`TOP_BYTES`], or if the
//! 4,096-rank or LULESH `visits_per_search` passes 1.5× [`TOP_VISITS`]
//! or [`DENSE_VISITS`].

use lsr_apps::{lulesh_charm, mergetree_mpi, LuleshParams, MergeTreeParams};
use lsr_bench::{banner, best, loglog_slope, secs, write_artifact};
use lsr_core::Config;
use lsr_lint::{analyze_races, causal_mode, HbIndex, HbStats};
use lsr_trace::{Dur, TaskId, Trace, TraceIndex};
use std::time::Duration;

/// Index bytes of the 4,096-rank merge tree.
const TOP_BYTES: usize = 229_320;
/// `visits_per_search` of the 4,096-rank merge tree's random probe.
const TOP_VISITS: f64 = 2.58;
/// `visits_per_search` of the LULESH 4×4×4 random probe.
const DENSE_VISITS: f64 = 67.31;

fn params(ranks: u32) -> MergeTreeParams {
    MergeTreeParams { ranks, seed: 0x10, base: Dur::from_micros(100), skew: 3.0 }
}

/// The scan `analyze_races` replays: adjacent-pair concurrency over
/// every chare stream.
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

/// A seeded random-pair sequence (8 per task — the mix an online
/// consumer would issue).
fn probe_pairs(n: usize, seed: u64) -> Vec<(TaskId, TaskId)> {
    let mut state = seed | 1;
    let mut rand = move || {
        // xorshift64: a deterministic pair sequence.
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

struct Run {
    build: Duration,
    scan: Duration,
    probe: Duration,
    stats: HbStats,
}

impl Run {
    /// The query side of `lsr races`: index build plus the scan.
    fn races(&self) -> Duration {
        self.build + self.scan
    }

    /// Mean tasks the pruned search expands per search (0 when no
    /// query needed one): the search's cost, independent of the host
    /// and of how many reps ran.
    fn visits_per_search(&self) -> f64 {
        self.stats.search_visits as f64 / self.stats.searches.max(1) as f64
    }
}

fn run(trace: &Trace, cfg: &Config, reps: usize, pairs: &[(TaskId, TaskId)]) -> Run {
    let ix = trace.index();
    let mode = causal_mode(cfg);
    let (hb, build) = best(reps, || HbIndex::build_with_mode(trace, &ix, mode));
    assert!(hb.cycle().is_empty(), "the causal relation is acyclic");
    let (_, scan) = best(reps, || scan_workload(&hb, &ix));
    let (_, probe) = best(reps, || probe_workload(&hb, pairs));
    Run { build, scan, probe, stats: hb.stats() }
}

fn main() {
    banner("exp_race_scaling", "causal happened-before index on the merge tree");
    // The paper's 1,024-rank configuration and the 4,096-rank gate
    // rung are always part of the sweep: the complexity claims must
    // hold at scale, not just on toy sizes.
    let sweep: &[u32] = if lsr_bench::full_scale() {
        &[64, 128, 256, 512, 1024, 2048, 4096]
    } else {
        &[64, 256, 1024, 4096]
    };
    let reps = if lsr_bench::full_scale() { 15 } else { 7 };
    let cfg = Config::mpi().with_process_order(false);

    let mut csv =
        String::from("ranks,tasks,edges,bytes,visits_per_search,build_s,scan_s,races_s,probe_s\n");
    let mut byte_points = Vec::new();
    let mut top = None;
    println!(
        "{:>6} {:>8} {:>8} {:>10} {:>8} {:>10} {:>10} {:>10}",
        "ranks", "tasks", "edges", "bytes", "visits", "build", "races", "probe"
    );
    for &ranks in sweep {
        let trace = mergetree_mpi(&params(ranks));
        let pairs = probe_pairs(trace.tasks.len(), 0x9E37_79B9_7F4A_7C15 ^ ranks as u64);
        let r = run(&trace, &cfg, reps, &pairs);
        let s = &r.stats;

        // The deterministic per-rank MPI program admits no delivery
        // races at any scale.
        let report = analyze_races(&trace, &cfg, 1_000_000).expect("acyclic");
        assert!(
            report.races.is_empty() && report.untraced.is_empty(),
            "merge tree at {ranks} ranks must be race-free: {report}"
        );

        // Memory claim: the reachability core is five labels per task
        // plus the successor lists its pruned search walks, so the
        // index is a bounded number of words per task, measured, at
        // every scale.
        assert!(
            s.bytes <= 48 * s.tasks + 1024,
            "index {} B must stay O(tasks) at {ranks} ranks ({} tasks)",
            s.bytes,
            s.tasks
        );

        println!(
            "{:>6} {:>8} {:>8} {:>10} {:>8.1} {:>10} {:>10} {:>10}",
            ranks,
            s.tasks,
            s.edges,
            s.bytes,
            r.visits_per_search(),
            secs(r.build),
            secs(r.races()),
            secs(r.probe)
        );
        csv.push_str(&format!(
            "{ranks},{},{},{},{:.2},{:.6},{:.6},{:.6},{:.6}\n",
            s.tasks,
            s.edges,
            s.bytes,
            r.visits_per_search(),
            r.build.as_secs_f64(),
            r.scan.as_secs_f64(),
            r.races().as_secs_f64(),
            r.probe.as_secs_f64()
        ));
        byte_points.push((s.tasks as f64, s.bytes as f64));
        top = Some((ranks, r));
    }

    // The index is exactly linear in tasks across the sweep.
    let slope = loglog_slope(&byte_points);
    println!("index byte scaling exponent vs tasks: {slope:.3}");
    assert!((0.9..=1.1).contains(&slope), "index must scale linearly in tasks (slope {slope:.3})");

    // The dense end: LULESH, whose 3-D halo gives the densest causal
    // relation of the generators. The reachability core's footprint
    // does not depend on the shape: the same bounded words per task,
    // plus one per edge.
    let dense_trace = lulesh_charm(&LuleshParams::scaling(4, 8));
    let dense_pairs = probe_pairs(dense_trace.tasks.len(), 0x9E37_79B9_7F4A_7C15);
    let dense = run(&dense_trace, &Config::charm(), reps, &dense_pairs);
    let ds = &dense.stats;
    assert!(
        ds.bytes <= 48 * ds.tasks + 4 * ds.edges + 1024,
        "index {} B must stay O(tasks + edges) on lulesh ({} tasks, {} edges)",
        ds.bytes,
        ds.tasks,
        ds.edges
    );
    println!(
        "lulesh 4x4x4: {} tasks, {} edges, {} B ({:.1} B/task), query side {}, random probe \
         {} at {:.1} visits/search",
        ds.tasks,
        ds.edges,
        ds.bytes,
        ds.bytes as f64 / ds.tasks as f64,
        secs(dense.races()),
        secs(dense.probe),
        dense.visits_per_search()
    );

    let (top_ranks, top) = top.expect("non-empty sweep");
    assert_eq!(top_ranks, 4096, "the sweep ends at the 4,096-rank gate rung");
    assert!(
        top.stats.bytes <= TOP_BYTES,
        "{top_ranks}-rank index {} B grew past {TOP_BYTES} B",
        top.stats.bytes
    );
    for (row, now, then) in [
        ("top rung", top.visits_per_search(), TOP_VISITS),
        ("lulesh", dense.visits_per_search(), DENSE_VISITS),
    ] {
        assert!(now <= then * 1.5, "{row}: {now:.2} visits/search, past 1.5x {then:.2}");
    }
    write_artifact("exp_race_scaling.csv", &csv);
    println!(
        "=> {top_ranks} ranks: race-free, query side {} in O(tasks) memory ({:.1} B/task)",
        secs(top.races()),
        top.stats.bytes as f64 / top.stats.tasks as f64
    );
}

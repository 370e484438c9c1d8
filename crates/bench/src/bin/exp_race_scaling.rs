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
//! Artifacts: `exp_race_scaling.csv` (per-scale series with *measured*
//! `size_bytes()`) and the schema-versioned `bench_out/BENCH_races.json`.
//! With `LSR_BENCH_RACES=1` the run becomes a regression gate in the
//! `LSR_OBS_GATE` style: it panics without a committed artifact, and
//! fails if top-rung bytes grow past the committed figure, top-rung
//! `races_ns` past 2× the committed figure, or the top-rung or LULESH
//! `visits_per_search` past 1.5× the committed figure.

use lsr_apps::{lulesh_charm, mergetree_mpi, LuleshParams, MergeTreeParams};
use lsr_bench::{banner, loglog_slope, secs, timed, write_artifact};
use lsr_core::Config;
use lsr_lint::{analyze_races, causal_mode, HbIndex, HbStats};
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

    /// The artifact fields shared by every row.
    fn json_fields(&self) -> String {
        format!(
            "\"tasks\": {}, \"edges\": {}, \"build_ns\": {}, \"scan_ns\": {}, \
             \"races_ns\": {}, \"probe_ns\": {}, \"bytes\": {}, \"visits_per_search\": {:.2}",
            self.stats.tasks,
            self.stats.edges,
            self.build.as_nanos(),
            self.scan.as_nanos(),
            self.races().as_nanos(),
            self.probe.as_nanos(),
            self.stats.bytes,
            self.visits_per_search()
        )
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

/// The committed artifact's gated figures: top-rung bytes, `races_ns`
/// and `visits_per_search`, and the LULESH row's `visits_per_search`.
struct Committed {
    bytes: u64,
    races_ns: u64,
    top_visits: f64,
    dense_visits: f64,
}

fn committed(path: &std::path::Path) -> Option<Committed> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: serde::Value = serde_json::from_str(&text).ok()?;
    if !matches!(v.get("schema")?, serde::Value::Str(s) if s == "lsr-bench-races/3") {
        return None;
    }
    let num = |row: &str, key: &str| match v.get(row)?.get(key)? {
        serde::Value::F64(x) => Some(*x),
        serde::Value::U64(n) => Some(*n as f64),
        _ => None,
    };
    Some(Committed {
        bytes: num("top", "bytes")? as u64,
        races_ns: num("top", "races_ns")? as u64,
        top_visits: num("top", "visits_per_search")?,
        dense_visits: num("dense", "visits_per_search")?,
    })
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
    let races_path = lsr_bench::out_dir().join("BENCH_races.json");
    let committed = committed(&races_path);

    let mut csv =
        String::from("ranks,tasks,edges,bytes,visits_per_search,build_s,scan_s,races_s,probe_s\n");
    let mut scale_json = Vec::new();
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
        scale_json.push(format!("    {{\"ranks\": {ranks}, {}}}", r.json_fields()));
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
    // Opt-in regression gate (`LSR_BENCH_RACES=1`). Bytes and search
    // visits are deterministic, so they are gated tightly; the query
    // time is host-dependent, so it only fails past 2x.
    if std::env::var("LSR_BENCH_RACES").map(|v| v == "1").unwrap_or(false) {
        let Some(c) = committed else {
            panic!(
                "LSR_BENCH_RACES=1 but no committed lsr-bench-races/3 {} to gate against",
                races_path.display()
            )
        };
        let bytes = top.stats.bytes as u64;
        assert!(
            bytes <= c.bytes,
            "{top_ranks}-rank index {bytes} B grew past the committed {} B",
            c.bytes
        );
        let races_ns = top.races().as_nanos() as u64;
        assert!(
            races_ns <= 2 * c.races_ns,
            "{top_ranks}-rank query side {races_ns} ns regressed past 2x the committed {} ns",
            c.races_ns
        );
        for (row, now, then) in [
            ("top rung", top.visits_per_search(), c.top_visits),
            ("lulesh", dense.visits_per_search(), c.dense_visits),
        ] {
            assert!(
                now <= then * 1.5,
                "{row}: {now:.2} visits/search, past 1.5x the committed {then:.2}"
            );
        }
        println!("  races gate: bytes, query time and search visits within bounds");
    }

    let json = format!(
        "{{\n  \"bench\": \"race_scaling\",\n  \"schema\": \"lsr-bench-races/3\",\n  \
         \"scales\": [\n{}\n  ],\n  \
         \"dense\": {{\"workload\": \"lulesh 4x4x4\", {}}},\n  \
         \"top\": {{\"ranks\": {top_ranks}, {}}}\n}}\n",
        scale_json.join(",\n"),
        dense.json_fields(),
        top.json_fields()
    );
    write_artifact("BENCH_races.json", &json);
    write_artifact("exp_race_scaling.csv", &csv);
    println!(
        "=> {top_ranks} ranks: race-free, query side {} in O(tasks) memory ({:.1} B/task)",
        secs(top.races()),
        top.stats.bytes as f64 / top.stats.tasks as f64
    );
}

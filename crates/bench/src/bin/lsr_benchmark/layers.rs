//! The traced run's arithmetic: span self times, and the per-layer
//! metrics read off the traced runs of the eight commands.

use crate::command::Command;
use lsr::obs::Profile;
use std::collections::BTreeMap;

/// Inclusive and self nanoseconds of each span path (`parent/child`
/// names from the root), summed over every span with that path.
pub type SpanTimes = BTreeMap<String, [u64; 2]>;

/// Every span's inclusive time and self time (its duration minus its
/// children's), keyed by path. Parents precede children in a profile,
/// so one pass builds the paths; a second attributes child time.
pub fn span_times(p: &Profile) -> SpanTimes {
    let mut paths: Vec<String> = Vec::with_capacity(p.spans.len());
    let mut child_ns = vec![0u64; p.spans.len()];
    for s in &p.spans {
        let path = match s.parent {
            Some(q) => {
                child_ns[q] += s.dur_ns.unwrap_or(0);
                format!("{}/{}", paths[q], s.name)
            }
            None => s.name.clone(),
        };
        paths.push(path);
    }
    let mut out = SpanTimes::new();
    for (i, s) in p.spans.iter().enumerate() {
        let dur = s.dur_ns.unwrap_or(0);
        let e = out.entry(paths[i].clone()).or_insert([0, 0]);
        e[0] += dur;
        e[1] += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Time the spans cover: the sum of every self time, which equals the
/// sum of the root spans' durations.
pub fn covered_ns(times: &SpanTimes) -> u64 {
    times.values().map(|t| t[1]).sum()
}

/// One command's run over a whole workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Wall time of the timed sections.
    pub wall_s: f64,
    /// Span times summed over the workload's files.
    pub spans: SpanTimes,
    /// Counter totals over the workload's files.
    pub counters: BTreeMap<String, u64>,
    /// Tasks, events, races and output bytes over the workload's files.
    pub tasks: u64,
    /// See [`Totals::tasks`].
    pub events: u64,
    /// See [`Totals::tasks`].
    pub races: u64,
    /// See [`Totals::tasks`].
    pub output_bytes: u64,
}

impl Totals {
    fn total_s(&self, path: &str) -> f64 {
        self.spans.get(path).map_or(0.0, |t| t[0] as f64 * 1e-9)
    }

    fn self_s(&self, path: &str) -> f64 {
        self.spans.get(path).map_or(0.0, |t| t[1] as f64 * 1e-9)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Share of the wall time the spans account for.
    pub fn coverage(&self) -> f64 {
        ratio(covered_ns(&self.spans) as f64 * 1e-9, self.wall_s)
    }
}

/// Extraction stages, in pipeline order (`lsr_core::EXTRACT_STAGE_SPANS`
/// plus the three conditional ones).
pub const STAGES: [&str; 9] = [
    "atoms",
    "dependency_merge",
    "collective_merge",
    "repair",
    "neighbor_serial",
    "infer",
    "leap_resolution",
    "enforce",
    "ordering",
];

/// A per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
/// `traced` holds one traced run per command; `rss_mb` the untraced
/// peak memory per command; `untraced_extract_s` the untraced `extract`
/// time the tracing overhead is measured against.
pub fn layer_metrics(
    traced: &BTreeMap<&'static str, Totals>,
    rss_mb: &BTreeMap<&'static str, f64>,
    untraced_extract_s: f64,
) -> Vec<Metric> {
    let empty = Totals::default();
    let t = |c: Command| traced.get(c.name()).unwrap_or(&empty);
    let (ex, t2, races, lint) =
        (t(Command::Extract), t(Command::ExtractT2), t(Command::Races), t(Command::Lint));
    let (analyze, model, audit, report) =
        (t(Command::Analyze), t(Command::Model), t(Command::Audit), t(Command::Report));
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_owned(), value, unit));

    let ingest_s = ex.total_s("trace.ingest");
    put("trace.ingest_s", ingest_s, "s");
    put("trace.ingest_mb_per_s", ratio(ex.counter("ingest.bytes") * 1e-6, ingest_s), "MB/s");

    let extract_s = ex.total_s("core.extract");
    put("core.extract_s", extract_s, "s");
    for stage in STAGES {
        put(&format!("core.{stage}_s"), ex.total_s(&format!("core.extract/extract/{stage}")), "s");
    }
    put("core.verify_s", ex.total_s("core.verify"), "s");
    put("core.ns_per_event", ratio(extract_s * 1e9, ex.events as f64), "ns");
    put("core.phases", ex.counter("core.phases"), "count");
    put("core.atoms", ex.counter("core.atoms"), "count");

    put("core.extract_t2_s", t2.total_s("core.extract"), "s");
    put("core.ordering_t2_s", t2.total_s("core.extract/extract/ordering"), "s");
    put("core.parallel.ordering", t2.counter("core.parallel.ordering"), "count");

    put("lint.hb_build_s", races.total_s("lint.hb_build"), "s");
    put("lint.hb.bytes", races.counter("lint.hb.bytes"), "B");
    put("lint.hb.bytes_per_task", ratio(races.counter("lint.hb.bytes"), races.tasks as f64), "B");
    put("lint.hb.interval_entries", races.counter("lint.hb.interval_entries"), "count");
    // The scan's self time leaves out the reference extraction nested in
    // it, which is reported on its own.
    put("lint.races_scan_s", races.self_s("lint.races_scan"), "s");
    put("lint.races_extract_s", races.total_s("lint.races_scan/extract"), "s");
    put("lint.races.scanned_pairs", races.counter("lint.races.scanned_pairs"), "count");
    put("lint.races.found", races.races as f64, "count");
    put("lint.passes_s", lint.self_s("lint.passes"), "s");

    put("flow.analyze_s", analyze.total_s("flow.analyze"), "s");
    put("flow.oracle_s", analyze.total_s("flow.analyze/analyze/oracle"), "s");
    put("flow.solver.iterations", analyze.counter("flow.solver.iterations"), "count");

    put("model.build_s", model.total_s("model.build"), "s");
    put("model.check_s", model.total_s("model.check"), "s");
    put("model.shapes", model.counter("model.shapes"), "count");

    put("audit.extract_s", audit.total_s("audit.extract/extract"), "s");
    put("audit.check_s", audit.total_s("audit.extract/audit"), "s");
    put("audit.records", audit.counter("audit.records"), "count");

    put("render.html_s", report.total_s("render.html"), "s");
    put("render.html_mb", report.output_bytes as f64 * 1e-6, "MB");

    for c in Command::ALL {
        put(&format!("rss.{}_mb", c.name()), rss_mb.get(c.name()).copied().unwrap_or(0.0), "MB");
    }
    put("obs.overhead", ratio(ex.wall_s, untraced_extract_s) - 1.0, "ratio");
    m
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr::obs::ProfileSpan;

    fn span(name: &str, parent: Option<usize>, start_ns: u64, dur: u64) -> ProfileSpan {
        ProfileSpan { name: name.to_owned(), parent, start_ns, dur_ns: Some(dur) }
    }

    /// A traced `races` run over two files: the reference extraction
    /// nests under the scan, and its stages under it.
    fn races_profile() -> Profile {
        let spans = vec![
            span("trace.ingest", None, 0, 100),
            span("lint.hb_build", None, 100, 300),
            span("lint.races_scan", None, 400, 500),
            span("extract", Some(2), 450, 200),
            span("atoms", Some(3), 450, 50),
            span("ordering", Some(3), 500, 120),
            span("output", None, 900, 10),
            span("trace.ingest", None, 1000, 60),
            span("lint.hb_build", None, 1060, 40),
            span("lint.races_scan", None, 1100, 90),
            span("extract", Some(9), 1110, 30),
        ];
        Profile {
            schema: lsr::obs::PROFILE_SCHEMA.to_owned(),
            command: "races".to_owned(),
            total_ns: 1200,
            spans,
            counters: Vec::new(),
            counter_events: Vec::new(),
            anomalies: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_repeats() {
        let p = races_profile();
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        let t = span_times(&p);
        assert_eq!(t["trace.ingest"], [160, 160]);
        assert_eq!(t["lint.hb_build"], [340, 340]);
        assert_eq!(t["lint.races_scan"], [590, 590 - 230]);
        assert_eq!(t["lint.races_scan/extract"], [230, 230 - 170]);
        assert_eq!(t["lint.races_scan/extract/ordering"], [120, 120]);
        assert_eq!(t["output"], [10, 10]);
        // Self times partition the root spans' time.
        assert_eq!(covered_ns(&t), 160 + 340 + 590 + 10);
    }

    #[test]
    fn layer_metrics_read_the_right_spans() {
        let traced_races = Totals {
            wall_s: 1.2e-6,
            spans: span_times(&races_profile()),
            counters: [("lint.hb.bytes".to_owned(), 800)].into_iter().collect(),
            tasks: 4,
            races: 3,
            ..Totals::default()
        };
        let traced_extract = Totals { wall_s: 3.0, ..Totals::default() };
        let traced: BTreeMap<&'static str, Totals> =
            [("races", traced_races), ("extract", traced_extract)].into_iter().collect();
        let rss: BTreeMap<&'static str, f64> = [("races", 104.0)].into_iter().collect();
        let m = layer_metrics(&traced, &rss, 2.0);
        let get = |n: &str| m.iter().find(|x| x.0 == n).unwrap_or_else(|| panic!("{n}")).1;
        assert_eq!(m.len(), 48);
        assert!((get("lint.hb_build_s") - 340e-9).abs() < 1e-15);
        assert!((get("lint.races_scan_s") - 360e-9).abs() < 1e-15);
        assert!((get("lint.races_extract_s") - 230e-9).abs() < 1e-15);
        assert_eq!(get("lint.hb.bytes_per_task"), 200.0);
        assert_eq!(get("lint.races.found"), 3.0);
        assert_eq!(get("rss.races_mb"), 104.0);
        assert_eq!(get("rss.lint_mb"), 0.0);
        assert!((get("obs.overhead") - 0.5).abs() < 1e-12);
        let mut names: Vec<&str> = m.iter().map(|x| x.0.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 48, "metric names are unique");
    }
}

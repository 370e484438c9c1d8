//! Cost of the D-family dataflow pass relative to extraction itself,
//! on the paper's merge-tree workload from 64 to 1,024 ranks: building
//! the reachability oracle and running every analysis (dominators both
//! ways, transitive-reduction scan, offset recomputation, critical-path
//! check) must stay within 20% of the extraction time it inspects at
//! the 1,024-rank scale — cheap enough to run after every extraction.

use lsr_apps::{mergetree_mpi, MergeTreeParams};
use lsr_bench::{banner, secs, timed, write_artifact};
use lsr_core::{extract, Config};
use lsr_flow::{analyze, AnalyzeOptions};
use lsr_obs::Recorder;
use lsr_trace::Dur;
use std::time::Duration;

/// Best-of-N timing: both pipelines are deterministic on a fixed
/// input, so the minimum is the least-noisy estimate of the cost.
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

fn main() {
    banner("exp_flow_overhead", "D-family dataflow pass vs extraction on the merge tree");
    let cfg = Config::mpi().with_process_order(false);
    let rec = Recorder::disabled();
    let opts = AnalyzeOptions::default();
    let reps = if lsr_bench::full_scale() { 10 } else { 5 };
    let mut rows = String::new();
    let mut ratio_at_top = 0.0;

    for ranks in [64u32, 256, 1024] {
        let trace = mergetree_mpi(&MergeTreeParams {
            ranks,
            seed: 0x10,
            base: Dur::from_micros(100),
            skew: 3.0,
        });
        let (ls, t_extract) = best(reps, || extract(&trace, &cfg));
        let (report, t_flow) =
            best(reps, || analyze(&trace, &ls, &rec, &opts).expect("phase graph is a DAG"));
        assert!(
            report.findings.is_empty() && !report.truncated,
            "{ranks} ranks: the merge tree must analyze clean, got {:?}",
            report.findings
        );
        let ratio = t_flow.as_secs_f64() / t_extract.as_secs_f64();
        ratio_at_top = ratio;
        println!(
            "{ranks:>5} ranks: extract {}  analyze {}  ({:.1}% of extraction; {} phases, \
             {} edges, {} oracle searches, {} solver iterations)",
            secs(t_extract),
            secs(t_flow),
            ratio * 100.0,
            report.phases,
            report.edges,
            report.oracle.search_count(),
            report.solver_iterations
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        rows.push_str(&format!(
            "    {{\"ranks\": {ranks}, \"extract_s\": {:.6}, \"analyze_s\": {:.6}, \
             \"ratio\": {ratio:.4}, \"phases\": {}, \"edges\": {}, \"searches\": {}, \
             \"solver_iterations\": {}}}",
            t_extract.as_secs_f64(),
            t_flow.as_secs_f64(),
            report.phases,
            report.edges,
            report.oracle.search_count(),
            report.solver_iterations
        ));
    }

    assert!(
        ratio_at_top <= 0.20,
        "D-family pass must cost ≤20% of extraction at 1,024 ranks, got {:.1}%",
        ratio_at_top * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"flow_overhead\",\n  \"gate_ratio\": 0.20,\n  \
         \"ratio_at_1024\": {ratio_at_top:.4},\n  \"scales\": [\n{rows}\n  ]\n}}\n"
    );
    write_artifact("BENCH_flow.json", &json);
    println!("=> the full D-family pass clears the 20%-of-extraction bar at paper scale");
}

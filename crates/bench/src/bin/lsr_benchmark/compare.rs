//! `lsr_benchmark compare A.json B.json`: both medians, both spreads and
//! a verdict for every workload and end-to-end metric of two `run`
//! result files, judged against the bounds in `BENCHMARK.json`.

use crate::stats::{verdict, Summary, Verdict};
use crate::worker::{num, string};
use serde::Value;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn entries(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Obj(e)) => e,
        _ => &[],
    }
}

/// The bound of each end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark: &Value) -> Result<Vec<(String, f64)>, String> {
    let Some(Value::Arr(metrics)) = benchmark.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    metrics
        .iter()
        .map(|m| {
            let name = string(m.get("name")).ok_or("end_to_end entry without a name")?;
            let bound = num(m.get("bound")).ok_or_else(|| format!("{name} has no bound"))?;
            Ok((name, bound))
        })
        .collect()
}

fn summary(metric: &Value) -> Option<Summary> {
    let Some(Value::Arr(samples)) = metric.get("samples") else { return None };
    let samples: Vec<f64> = samples.iter().filter_map(|s| num(Some(s))).collect();
    (!samples.is_empty()).then(|| Summary::of(&samples))
}

/// Prints the comparison and returns whether it passes: no metric
/// worse, no failed operation added, and (for runs of the same seed)
/// every report digest unchanged.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(&load("BENCHMARK.json")?)?;
    let same_seed = num(a.get("seed")) == num(b.get("seed"));
    let mut ok = true;
    println!(
        "{:<10} {:<14} {:>12} {:>7} {:>12} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "bound"
    );
    for (w, wa) in entries(a.get("workloads")) {
        let Some(wb) = b.get("workloads").and_then(|x| x.get(w)) else {
            println!("{w:<10} missing from {b_path}");
            ok = false;
            continue;
        };
        for (name, bound) in &bounds {
            let pair = (
                wa.get("end_to_end").and_then(|m| m.get(name)),
                wb.get("end_to_end").and_then(|m| m.get(name)),
            );
            let (Some(ma), Some(mb)) = (pair.0.and_then(summary), pair.1.and_then(summary)) else {
                println!("{w:<10} {name:<14} missing");
                ok = false;
                continue;
            };
            let v = verdict(&ma, &mb, *bound);
            ok &= v != Verdict::Worse;
            println!(
                "{w:<10} {name:<14} {:>12.4} {:>6.1}% {:>12.4} {:>6.1}% {:>6.1}%  {}",
                ma.median,
                ma.spread() * 100.0,
                mb.median,
                mb.spread() * 100.0,
                bound * 100.0,
                v.name()
            );
        }
        // The error rate's bound is +0: any new failure is a regression.
        let rate = |x: &Value| num(x.get("error_rate")).unwrap_or(1.0);
        let (ra, rb) = (rate(wa), rate(wb));
        let v = if rb > ra { "worse" } else { "within bound" };
        ok &= rb <= ra;
        println!(
            "{w:<10} {:<14} {ra:>12.4} {:>7} {rb:>12.4} {:>7} {:>7}  {v}",
            "error_rate", "", "", "+0"
        );
        if same_seed {
            for (cmd, da) in entries(wa.get("digests")) {
                let db = wb.get("digests").and_then(|d| d.get(cmd));
                if db != Some(da) {
                    println!("{w:<10} digest of {cmd} changed");
                    ok = false;
                }
            }
        }
    }
    if !same_seed {
        println!("(different seeds: report digests not compared)");
    }
    Ok(ok)
}

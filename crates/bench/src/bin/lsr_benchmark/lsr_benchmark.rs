//! `lsr_benchmark` — one end-to-end benchmark of the `lsr` commands over
//! four workloads, with a traced per-layer breakdown. See README.md.
//!
//! ```text
//! lsr_benchmark --workload W --seed N --seconds S --trace 0|1
//!     one workload; the last stdout line is a JSON object with the
//!     end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1)
//! lsr_benchmark run --seed N --out FILE
//!     all four workloads, both kinds of metric, written to FILE
//! lsr_benchmark compare A.json B.json
//!     verdict per workload and metric against BENCHMARK.json's bounds
//! lsr_benchmark worker --workload W --command C --traced 0|1 --dir D
//!     one operation (spawned by the modes above)
//! ```

mod command;
mod compare;
mod harness;
mod layers;
mod stats;
mod worker;
mod workload;

use command::Command;
use harness::{measure, Measurement, Plan};
use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;
use workload::Workload;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Untraced timed rounds a `--trace 0` run makes at least.
const MIN_ROUNDS: usize = 3;

/// The `run` subcommand's fixed plan: 5 timed rounds after the warm-up,
/// then one traced round.
const RUN_PLAN: Plan =
    Plan { setups: SETUPS, rounds: 5, seconds: 0.0, traced_rounds: 1, traced_seconds: 0.0 };

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => cmd_worker(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => match &args[1..] {
            [a, b] => {
                compare::compare(a, b)
                    .map(|ok| if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
            }
            _ => Err("compare wants two result files".into()),
        },
        _ => cmd_single(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("lsr_benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Parses `--name value` pairs, rejecting anything else.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut out = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                out.insert(&k[2..], v.as_str());
            }
            _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
        }
    }
    Ok(out)
}

fn flag<'a>(f: &BTreeMap<&str, &'a str>, name: &str) -> Result<&'a str, String> {
    f.get(name).copied().ok_or_else(|| format!("missing --{name}"))
}

fn parse_num<T: std::str::FromStr>(f: &BTreeMap<&str, &str>, name: &str) -> Result<T, String> {
    let v = flag(f, name)?;
    v.parse().map_err(|_| format!("--{name} wants a number, got {v:?}"))
}

fn parse_workload(f: &BTreeMap<&str, &str>) -> Result<Workload, String> {
    let w = flag(f, "workload")?;
    Workload::parse(w).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {w:?} (one of {})", names.join(", "))
    })
}

fn cmd_worker(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let w = parse_workload(&f)?;
    let c = flag(&f, "command")?;
    let cmd = Command::parse(c).ok_or_else(|| format!("unknown command {c:?}"))?;
    let traced = flag(&f, "traced")? == "1";
    let out = worker::worker_main(w, std::path::Path::new(flag(&f, "dir")?), cmd, traced)?;
    println!("{}", serde_json::to_string(&out).expect("value rendering is infallible"));
    Ok(ExitCode::SUCCESS)
}

/// The single-workload protocol: `--workload --seed --seconds --trace`.
fn cmd_single(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let w = parse_workload(&f)?;
    let seed: u64 = parse_num(&f, "seed")?;
    let seconds: f64 = parse_num(&f, "seconds")?;
    let traced = match flag(&f, "trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace wants 0 or 1, got {t:?}")),
    };
    // A traced run still makes one untraced round: the per-command peak
    // memory and the untraced `extract` time tracing overhead is
    // measured against come from it.
    let plan = if traced {
        Plan { setups: SETUPS, rounds: 1, seconds: 0.0, traced_rounds: 1, traced_seconds: seconds }
    } else {
        Plan { setups: SETUPS, rounds: MIN_ROUNDS, seconds, traced_rounds: 0, traced_seconds: 0.0 }
    };
    let m = measure(w, seed, plan)?;
    print_table(w, &m);
    let metrics: Vec<(String, Value)> = if traced {
        m.per_layer().into_iter().map(|(n, v, u)| (n, value_unit(v, u))).collect()
    } else {
        m.end_to_end().into_iter().map(|(n, s, u)| (n, value_unit(s.median, u))).collect()
    };
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(m.failed == 0)),
        ("attempted".into(), Value::U64(m.attempted)),
        ("failed".into(), Value::U64(m.failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).expect("value rendering is infallible"));
    Ok(ExitCode::SUCCESS)
}

fn value_unit(value: f64, unit: &str) -> Value {
    Value::Obj(vec![("value".into(), Value::F64(value)), ("unit".into(), Value::Str(unit.into()))])
}

/// All four workloads under [`RUN_PLAN`], written as one result file.
fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let f = flags(args)?;
    let seed: u64 = parse_num(&f, "seed")?;
    let out = flag(&f, "out")?;
    let mut workloads = Vec::new();
    let mut correct = true;
    for w in Workload::ALL {
        let m = measure(w, seed, RUN_PLAN)?;
        print_table(w, &m);
        correct &= m.failed == 0;
        workloads.push((w.name().to_owned(), workload_json(&m)));
    }
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let doc = Value::Obj(vec![
        ("schema".into(), Value::Str("lsr-benchmark/1".into())),
        ("seed".into(), Value::U64(seed)),
        ("cores".into(), Value::U64(cores)),
        ("workloads".into(), Value::Obj(workloads)),
    ]);
    let text = serde_json::to_string_pretty(&doc).expect("value rendering is infallible");
    std::fs::write(out, text + "\n").map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn workload_json(m: &Measurement) -> Value {
    let end_to_end = m
        .end_to_end()
        .into_iter()
        .map(|(name, s, unit)| {
            let samples = s.samples.iter().map(|&x| Value::F64(x)).collect();
            let v = Value::Obj(vec![
                ("unit".into(), Value::Str(unit.into())),
                ("median".into(), Value::F64(s.median)),
                ("q1".into(), Value::F64(s.q1)),
                ("q3".into(), Value::F64(s.q3)),
                ("n".into(), Value::U64(s.samples.len() as u64)),
                ("samples".into(), Value::Arr(samples)),
            ]);
            (name, v)
        })
        .collect();
    let per_layer = m.per_layer().into_iter().map(|(n, v, u)| (n, value_unit(v, u))).collect();
    let coverage = m.coverage().into_iter().map(|(c, v)| (c.to_owned(), Value::F64(v))).collect();
    let digests = m.digests().into_iter().map(|(c, d)| (c.to_owned(), Value::Str(d))).collect();
    let mut codes = Vec::new();
    let mut exits = Vec::new();
    let histogram = |h: harness::Histogram| {
        Value::Obj(h.into_iter().map(|(k, n)| (k, Value::U64(n))).collect())
    };
    for (cmd, c, e) in m.diagnostics() {
        codes.push((cmd.to_owned(), histogram(c)));
        exits.push((cmd.to_owned(), histogram(e)));
    }
    Value::Obj(vec![
        ("attempted".into(), Value::U64(m.attempted)),
        ("failed".into(), Value::U64(m.failed)),
        ("error_rate".into(), Value::F64(m.failed as f64 / m.attempted.max(1) as f64)),
        ("failures".into(), Value::Arr(m.failures.iter().map(|s| Value::Str(s.clone())).collect())),
        ("end_to_end".into(), Value::Obj(end_to_end)),
        ("per_layer".into(), Value::Obj(per_layer)),
        ("coverage".into(), Value::Obj(coverage)),
        ("digests".into(), Value::Obj(digests)),
        ("codes".into(), Value::Obj(codes)),
        ("exits".into(), Value::Obj(exits)),
    ])
}

/// A human-readable summary on stderr, so stdout stays one JSON line
/// for the single-workload protocol.
fn print_table(w: Workload, m: &Measurement) {
    eprintln!("== {} ({} ops, {} failed)", w.name(), m.attempted, m.failed);
    for (name, s, unit) in m.end_to_end() {
        eprintln!(
            "  {name:<16} {:>10.4} {unit:<3} iqr {:>5.1}%  n={} {:?}",
            s.median,
            s.spread() * 100.0,
            s.samples.len(),
            s.samples
        );
    }
    for (cmd, share) in m.coverage() {
        eprintln!("  spans cover {:>5.1}% of traced {cmd}", share * 100.0);
    }
    for f in &m.failures {
        eprintln!("  FAIL {f}");
    }
}

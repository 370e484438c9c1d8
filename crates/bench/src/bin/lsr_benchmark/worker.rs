//! The worker process: one (workload, command, rep) operation. The parent
//! re-executes its own binary as `lsr_benchmark worker ...` for every
//! operation, so each one starts from a fresh heap and its `VmHWM` is the
//! peak of that command alone. The worker prints one JSON line; the
//! parent waits for it to exit and parses that line.

use crate::command::{run_file, structure_digest, Command};
use crate::layers::{span_times, Totals};
use crate::workload::{trace_files, Workload};
use lsr::obs::Recorder;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One file's outcome as the parent sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct FileResult {
    /// Hex FNV-1a-64 of the report (empty on error).
    pub digest: String,
    /// Hex digest of the recovered structure (`extract`, `extract_t2`).
    pub structure: Option<String>,
    /// Why the operation failed, if it did.
    pub error: Option<String>,
    /// Diagnostic codes in the report.
    pub codes: Vec<String>,
    /// The exit status the CLI would give.
    pub exit: u64,
}

/// A worker's report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRun {
    /// Peak resident set (`VmHWM`) of the worker, in kB.
    pub vmhwm_kb: u64,
    /// One entry per trace file, in file-name order.
    pub files: Vec<FileResult>,
    /// Wall time, output sizes and (traced runs only) spans and counters.
    pub totals: Totals,
}

/// Runs `cmd` over every trace file of the workload in `dir` and returns
/// the JSON line to print. The clock runs only around the command itself;
/// digesting a recovered structure for the threads check is untimed.
pub fn worker_main(
    workload: Workload,
    dir: &Path,
    cmd: Command,
    traced: bool,
) -> Result<Value, String> {
    let files = trace_files(dir)?;
    let rec = if traced { Recorder::enabled() } else { Recorder::disabled() };
    let mut wall = Duration::ZERO;
    let mut totals = Totals::default();
    let mut out = Vec::with_capacity(files.len());
    for path in &files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        let cfg = workload.config(name).with_recorder(rec.clone());
        let start = Instant::now();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_file(cmd, path, &cfg)));
        wall += start.elapsed();
        let mut entry = vec![];
        match result {
            Ok(Ok((run, ls))) => {
                totals.tasks += run.tasks;
                totals.events += run.events;
                totals.races += run.races;
                totals.output_bytes += run.output_bytes;
                entry.push(("digest".into(), Value::Str(format!("{:016x}", run.digest))));
                if let Some(ls) = ls {
                    let h = structure_digest(&ls);
                    entry.push(("structure".into(), Value::Str(format!("{h:016x}"))));
                }
                let codes = run.codes.iter().map(|c| Value::Str((*c).to_owned())).collect();
                entry.push(("codes".into(), Value::Arr(codes)));
                entry.push(("exit".into(), Value::U64(u64::from(run.exit))));
            }
            Ok(Err(e)) => entry.push(("error".into(), Value::Str(e))),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default();
                entry.push(("error".into(), Value::Str(format!("panic: {msg}"))));
            }
        }
        out.push(Value::Obj(entry));
    }
    let vmhwm_kb = vmhwm_kb()?;
    let mut fields = vec![
        ("wall_s".into(), Value::F64(wall.as_secs_f64())),
        ("vmhwm_kb".into(), Value::U64(vmhwm_kb)),
        ("tasks".into(), Value::U64(totals.tasks)),
        ("events".into(), Value::U64(totals.events)),
        ("races".into(), Value::U64(totals.races)),
        ("output_bytes".into(), Value::U64(totals.output_bytes)),
        ("files".into(), Value::Arr(out)),
    ];
    if let Some(p) = rec.profile(cmd.name()) {
        let errs = p.validate();
        if let Some(e) = errs.first() {
            return Err(format!("invalid profile: {e}"));
        }
        let spans = span_times(&p)
            .into_iter()
            .map(|(k, [total, own])| (k, Value::Arr(vec![Value::U64(total), Value::U64(own)])))
            .collect();
        let counters = p.counters.iter().map(|c| (c.name.clone(), Value::U64(c.total))).collect();
        fields.push(("spans".into(), Value::Obj(spans)));
        fields.push(("counters".into(), Value::Obj(counters)));
    }
    Ok(Value::Obj(fields))
}

/// This process's peak resident set in kB, from `/proc/self/status`.
fn vmhwm_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Runs one operation in a child process and waits for it.
pub fn spawn(
    workload: Workload,
    dir: &Path,
    cmd: Command,
    traced: bool,
) -> Result<WorkerRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("worker")
        .args(["--workload", workload.name(), "--command", cmd.name()])
        .args(["--traced", if traced { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .output()
        .map_err(|e| format!("cannot start worker: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail = stderr.lines().rev().take(3).collect::<Vec<_>>().join(" | ");
        return Err(format!("{} worker {}: {tail}", cmd.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    parse_run(line).map_err(|e| format!("{} worker printed {line:?}: {e}", cmd.name()))
}

fn parse_run(line: &str) -> Result<WorkerRun, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let u = |key: &str| match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        _ => Err(format!("missing {key}")),
    };
    let wall_s = num(v.get("wall_s")).ok_or("missing wall_s")?;
    let Some(Value::Arr(files)) = v.get("files") else { return Err("missing files".into()) };
    let files = files
        .iter()
        .map(|f| FileResult {
            digest: string(f.get("digest")).unwrap_or_default(),
            structure: string(f.get("structure")),
            error: string(f.get("error")),
            codes: match f.get("codes") {
                Some(Value::Arr(c)) => c.iter().filter_map(|c| string(Some(c))).collect(),
                _ => Vec::new(),
            },
            exit: match f.get("exit") {
                Some(Value::U64(n)) => *n,
                _ => 0,
            },
        })
        .collect();
    let mut totals = Totals {
        wall_s,
        tasks: u("tasks")?,
        events: u("events")?,
        races: u("races")?,
        output_bytes: u("output_bytes")?,
        ..Totals::default()
    };
    if let Some(Value::Obj(spans)) = v.get("spans") {
        for (k, t) in spans {
            if let Value::Arr(t) = t {
                if let [Value::U64(total), Value::U64(own)] = t.as_slice() {
                    totals.spans.insert(k.clone(), [*total, *own]);
                }
            }
        }
    }
    if let Some(Value::Obj(counters)) = v.get("counters") {
        totals.counters = counters
            .iter()
            .filter_map(|(k, c)| match c {
                Value::U64(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect::<BTreeMap<_, _>>();
    }
    Ok(WorkerRun { vmhwm_kb: u("vmhwm_kb")?, files, totals })
}

/// A JSON string's contents.
pub fn string(v: Option<&Value>) -> Option<String> {
    match v? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// A JSON number as `f64` (the parser keeps integers as integers).
pub fn num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::serialize;
    use lsr::apps::{lulesh_charm, mergetree_mpi, LuleshParams, MergeTreeParams};

    /// Every command's worker path, untraced and traced, on tiny inputs
    /// of each configuration kind: no failures, the same report digests
    /// in both runs, and the threads-2 structure equal to the serial one.
    #[test]
    fn every_command_runs_clean_with_stable_digests_on_tiny_inputs() {
        let root = std::env::temp_dir().join(format!("lsr-benchmark-smoke-{}", std::process::id()));
        let sc = lsr::fuzz::Scenario::generate(7, 3, &lsr::fuzz::Motif::ALL);
        let cases = [
            (
                Workload::Lulesh,
                vec![("lulesh.lsrtrace", lulesh_charm(&LuleshParams::scaling(2, 2)))],
            ),
            (
                Workload::Mergetree,
                vec![(
                    "mergetree.lsrtrace",
                    mergetree_mpi(&MergeTreeParams { ranks: 64, ..MergeTreeParams::small() }),
                )],
            ),
            (
                Workload::Fuzz,
                vec![
                    ("fuzz-7-0003.charm.lsrtrace", lsr::fuzz::emit(&sc, lsr::fuzz::Backend::Charm)),
                    ("fuzz-7-0003.mpi.lsrtrace", lsr::fuzz::emit(&sc, lsr::fuzz::Backend::Mpi)),
                ],
            ),
        ];
        for (w, traces) in cases {
            let dir = root.join(w.name());
            std::fs::create_dir_all(&dir).unwrap();
            for (name, trace) in &traces {
                std::fs::write(dir.join(name), serialize(trace)).unwrap();
            }
            let mut serial = None;
            for cmd in Command::ALL {
                let runs: Vec<WorkerRun> = [false, true]
                    .into_iter()
                    .map(|traced| {
                        let v = worker_main(w, &dir, cmd, traced).unwrap();
                        parse_run(&serde_json::to_string(&v).unwrap()).unwrap()
                    })
                    .collect();
                let (plain, traced) = (&runs[0], &runs[1]);
                assert_eq!(plain.files.len(), traces.len());
                for (a, b) in plain.files.iter().zip(&traced.files) {
                    assert_eq!(a.error, None, "{} {}", w.name(), cmd.name());
                    assert_eq!(a.digest.len(), 16);
                    assert_eq!((&a.digest, &a.codes, a.exit), (&b.digest, &b.codes, b.exit));
                }
                assert!(plain.totals.spans.is_empty());
                assert!(!traced.totals.spans.is_empty());
                assert!(plain.vmhwm_kb > 0 && plain.totals.wall_s > 0.0);
                let structures: Vec<_> = plain.files.iter().map(|f| f.structure.clone()).collect();
                match cmd {
                    Command::Extract => serial = Some(structures),
                    Command::ExtractT2 => assert_eq!(Some(structures), serial),
                    _ => assert!(structures.iter().all(Option::is_none)),
                }
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

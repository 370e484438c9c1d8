//! `lsr` — command-line front end for logical-structure recovery.
//!
//! ```text
//! lsr gen <preset> --out trace.lsrtrace     generate a proxy-app trace
//! lsr stats <trace>                          table sizes, utilization
//! lsr quality <trace>                        §7.1 trace-quality report
//! lsr extract <trace> [flags]                phases + steps summary
//! lsr render <trace> [flags]                 ASCII/SVG views
//! lsr metrics <trace> [flags]                idle/differential/imbalance
//! lsr lint <trace> [flags]                   diagnostic passes (lsr-lint)
//! lsr analyze <trace> [flags]                dataflow analyses over the structure (D passes)
//! lsr model <trace> [flags]                  conformance against the static skeleton (M passes)
//! lsr races <trace> [flags]                  message-race analysis (R passes)
//! lsr audit <trace> [flags]                  certificate-check the extraction (A codes)
//! lsr shrink <trace> --code CODE             minimize a diagnostic reproducer (ddmin)
//! lsr critical-path <trace>                  longest dependent chain
//! ```
//!
//! Extraction flags: `--mpi` (message-passing model), `--physical`
//! (no reordering), `--no-infer`, `--no-split`, `--no-sdag`,
//! `--no-process-order`, `--verify` (re-check the DESIGN §7 invariants
//! after extraction; panics on violation).
//! Render flags: `--view logical|physical`, `--format ascii|svg`,
//! `--metric phase|diff|idle|imbalance`, `--out FILE`.
//!
//! Every subcommand also accepts `--profile` (ASCII span/counter
//! report on stderr) and `--profile-json FILE` (schema-versioned JSON
//! profile, `-` for stdout) — see `docs/observability.md`.

use lsr::core::{try_extract, Config, LogicalStructure, OrderingPolicy};
use lsr::metrics::{
    idle_experienced, per_pe_totals, CriticalPath, DifferentialDuration, Imbalance,
};
use lsr::trace::{
    logfmt, multifile, IngestReport, Mode, QualityReport, ReadOptions, Trace, TraceStats,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    // A CLI is routinely piped into `head`/`less`; restore the default
    // SIGPIPE disposition so a closed pipe ends the process quietly
    // instead of panicking mid-print.
    #[cfg(unix)]
    unsafe {
        libc::signal(libc::SIGPIPE, libc::SIG_DFL);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `lsr help` for usage");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        print_help();
        return Ok(ExitCode::SUCCESS);
    };
    let rest = &args[1..];
    let done = |r: Result<(), String>| r.map(|()| ExitCode::SUCCESS);
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            print_help();
            Ok(ExitCode::SUCCESS)
        }
        "gen" => done(cmd_gen(rest)),
        "fuzz" => cmd_fuzz(rest),
        "stats" => done(cmd_stats(rest)),
        "quality" => done(cmd_quality(rest)),
        "extract" => done(cmd_extract(rest)),
        "render" => done(cmd_render(rest)),
        "metrics" => done(cmd_metrics(rest)),
        "report" => done(cmd_report(rest)),
        "diff" => done(cmd_diff(rest)),
        "lint" => cmd_lint(rest),
        "analyze" => cmd_analyze(rest),
        "model" => cmd_model(rest),
        "races" => cmd_races(rest),
        "audit" => cmd_audit(rest),
        "shrink" => done(cmd_shrink(rest)),
        "critical-path" => done(cmd_critical_path(rest)),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn print_help() {
    println!(
        "lsr — logical structure recovery for task-based runtime traces\n\
         (reproduction of Isaacs et al., SC'15)\n\n\
         USAGE: lsr <command> [args]\n\n\
         COMMANDS\n\
         \u{20}  gen <preset> [--out FILE]   generate a proxy-app trace\n\
         \u{20}      presets: jacobi-fig8 jacobi-fig15 lulesh-charm lulesh-mpi\n\
         \u{20}               lassen8 lassen64 lassen-mpi pdes mergetree\n\
         \u{20}               mergetree1024 bt divcon\n\
         \u{20}  fuzz [flags]                seeded motif-composition fuzzing with a\n\
         \u{20}                              differential oracle per generated trace\n\
         \u{20}  stats <trace>               table sizes, span, utilization\n\
         \u{20}  quality <trace>             trace-quality report (paper §7.1)\n\
         \u{20}  extract <trace> [flags]     recover phases + logical steps\n\
         \u{20}  render <trace> [flags]      ASCII/SVG views of the structure\n\
         \u{20}  metrics <trace> [flags]     idle / differential duration / imbalance\n\
         \u{20}  report <trace> [flags]      self-contained HTML analysis report\n\
         \u{20}  diff <a> <b> [flags]        compare two runs' structures\n\
         \u{20}  lint <trace> [flags]        diagnostic passes over trace + structure\n\
         \u{20}  analyze <trace> [flags]     dataflow analyses over the recovered structure\n\
         \u{20}  model <trace> [flags]       check structure against the static skeleton model\n\
         \u{20}  races <trace> [flags]       message races under causal happened-before\n\
         \u{20}  audit <trace> [flags]       replay the merge log as a certificate (A codes)\n\
         \u{20}  shrink <trace> --code C     ddmin-minimize a diagnostic reproducer\n\
         \u{20}  critical-path <trace>       longest dependent chain\n\n\
         EXTRACTION FLAGS (extract/render/metrics/lint/analyze/model/races)\n\
         \u{20}  --mpi --physical --no-infer --no-split --no-sdag\n\
         \u{20}  --no-process-order --verify\n\n\
         LINT FLAGS\n\
         \u{20}  --json                   machine-readable report\n\
         \u{20}  --deny-warnings          exit nonzero on warnings too\n\
         \u{20}  --limit N                cap findings per pass family (default 64)\n\
         \u{20}  --no-structure           skip extraction; trace-level passes only\n\n\
         ANALYZE FLAGS (plus the extraction flags above)\n\
         \u{20}  --json                   machine-readable report\n\
         \u{20}  --deny CODES             comma-separated D codes (or `warnings`) that\n\
         \u{20}                           make the exit status failing (e.g. D002,D004)\n\
         \u{20}  --bottleneck-share X     D001 gated-work threshold in [0,1] (default 0.5)\n\
         \u{20}  --limit N                cap findings (default 64)\n\n\
         MODEL FLAGS (plus the extraction flags above)\n\
         \u{20}  --json                   machine-readable report (model + M diagnostics)\n\
         \u{20}  --deny CODES             comma-separated M codes (or `warnings`) that\n\
         \u{20}                           make the exit status failing (e.g. M004)\n\
         \u{20}  --limit N                cap findings (default 64)\n\n\
         RACES FLAGS\n\
         \u{20}  --json                       machine-readable report\n\
         \u{20}  --deny-structure-affecting   exit nonzero when a race can change\n\
         \u{20}                               the recovered structure (R002)\n\
         \u{20}  --limit N                    cap reported races (default 64)\n\n\
         AUDIT FLAGS (plus the extraction flags above)\n\
         \u{20}  --json                   machine-readable report\n\
         \u{20}  --limit N                cap findings (default 64); exits nonzero\n\
         \u{20}                           on any error-severity A code\n\n\
         FUZZ FLAGS\n\
         \u{20}  --seed S                 master seed (default 0)\n\
         \u{20}  --count N                scenarios to generate (default 16)\n\
         \u{20}  --motifs LIST            comma-separated motif pool (default all):\n\
         \u{20}                           halo wavefront tree alltoall steal migration\n\
         \u{20}  --backend charm|mpi      restrict to one backend (default both)\n\
         \u{20}  --export DIR             write every generated trace into DIR\n\
         \u{20}                           (failures are always written, plus a ddmin\n\
         \u{20}                           reproducer when a diagnostic code fired)\n\n\
         SHRINK FLAGS (plus the extraction flags, which shape the oracle)\n\
         \u{20}  --code CODE              diagnostic to preserve (I/T/H/S/P/A/M/R code)\n\
         \u{20}  --out FILE               reproducer path (default <trace>.min.lsrtrace)\n\
         \u{20}  --max-probes N           oracle probe budget (default 4096)\n\n\
         INGESTION (any command that reads a trace)\n\
         \u{20}  --salvage                skip malformed records instead of aborting;\n\
         \u{20}                           findings print to stderr (I codes, see\n\
         \u{20}                           docs/lints.md); `lsr lint --salvage` merges\n\
         \u{20}                           them into the report\n\n\
         WINDOWING (extract/render/metrics/report)\n\
         \u{20}  --from NS --to NS        analyze only tasks inside [from, to]\n\n\
         OBSERVABILITY (every command; docs/observability.md)\n\
         \u{20}  --profile                span/counter report on stderr\n\
         \u{20}  --profile-json FILE      JSON profile (schema lsr-obs-profile/2,\n\
         \u{20}                           `-` for stdout)\n\n\
         RENDER FLAGS\n\
         \u{20}  --view logical|physical|migration   --format ascii|svg|dot\n\
         \u{20}  --metric phase|diff|idle|imbalance   --out FILE"
    );
}

/// Splits positional arguments from `--flag [value]` options.
/// Unknown flags are an error, not a silent no-op.
fn parse_opts(
    args: &[String],
) -> Result<(Vec<&str>, std::collections::HashMap<String, String>), String> {
    const VALUE_FLAGS: &[&str] = &[
        "out",
        "view",
        "format",
        "metric",
        "from",
        "to",
        "limit",
        "profile-json",
        "code",
        "max-probes",
        "deny",
        "bottleneck-share",
        "seed",
        "count",
        "motifs",
        "backend",
        "export",
    ];
    const BOOL_FLAGS: &[&str] = &[
        "profile",
        "mpi",
        "physical",
        "no-infer",
        "no-split",
        "no-sdag",
        "no-process-order",
        "verify",
        "json",
        "deny-warnings",
        "deny-structure-affecting",
        "no-structure",
        "salvage",
    ];
    let mut pos = Vec::new();
    let mut opts = std::collections::HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            if VALUE_FLAGS.contains(&name) {
                let value = args.get(i + 1).ok_or_else(|| format!("--{name} requires a value"))?;
                opts.insert(name.to_owned(), value.clone());
                i += 2;
            } else if BOOL_FLAGS.contains(&name) {
                opts.insert(name.to_owned(), String::new());
                i += 1;
            } else {
                return Err(format!("unknown flag --{name} (run `lsr help`)"));
            }
        } else {
            pos.push(a.as_str());
            i += 1;
        }
    }
    Ok((pos, opts))
}

/// One command's observability session (DESIGN §7.8): the recorder
/// threaded through ingestion and the pipeline, plus the report
/// destinations picked on the command line. `--profile` prints the
/// ASCII span tree to stderr so stdout stays parseable;
/// `--profile-json FILE` writes the schema-versioned JSON profile
/// (`-` selects stdout). Without either flag the recorder is disabled
/// and every instrumentation site reduces to one branch.
struct Obs {
    rec: lsr::obs::Recorder,
    ascii: bool,
    json: Option<String>,
}

impl Obs {
    fn from_opts(opts: &std::collections::HashMap<String, String>) -> Obs {
        let ascii = opts.contains_key("profile");
        let json = opts.get("profile-json").cloned();
        let rec = if ascii || json.is_some() {
            lsr::obs::Recorder::enabled()
        } else {
            lsr::obs::Recorder::disabled()
        };
        Obs { rec, ascii, json }
    }

    /// Emits the requested profile reports. A disabled recorder has no
    /// profile, so unprofiled runs emit nothing and are unchanged.
    fn finish(&self, command: &str) -> Result<(), String> {
        let Some(p) = self.rec.profile(command) else { return Ok(()) };
        if self.ascii {
            eprint!("{}", lsr::render::profile_report(&p));
        }
        if let Some(path) = &self.json {
            let json = p.to_json();
            if path == "-" {
                println!("{json}");
            } else {
                std::fs::write(path, json.as_bytes())
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
            }
        }
        Ok(())
    }
}

fn config_from(opts: &std::collections::HashMap<String, String>, obs: &Obs) -> Config {
    let mut cfg = if opts.contains_key("mpi") { Config::mpi() } else { Config::charm() };
    if opts.contains_key("physical") {
        cfg = cfg.with_ordering(OrderingPolicy::PhysicalTime);
    }
    if opts.contains_key("no-infer") {
        cfg = cfg.with_inference(false);
    }
    if opts.contains_key("no-split") {
        cfg = cfg.with_split(false);
    }
    if opts.contains_key("no-sdag") {
        cfg = cfg.with_sdag(false);
    }
    if opts.contains_key("no-process-order") {
        cfg = cfg.with_process_order(false);
    }
    if opts.contains_key("verify") {
        cfg = cfg.with_verify(true);
    }
    cfg.with_recorder(obs.rec.clone())
}

/// Reads a trace in either layout (`<base>.sts` selects the multi-file
/// per-PE layout). In [`Mode::Salvage`] malformed records are skipped
/// instead of aborting and the ingestion findings come back in the
/// report for the caller to surface; in the other modes it is clean.
fn load_report(
    path: &str,
    mode: Mode,
    rec: &lsr::obs::Recorder,
) -> Result<(Trace, IngestReport), String> {
    let _sp = rec.span("ingest");
    let read = ReadOptions { mode, recorder: rec.clone() };
    if let Some(base) = path.strip_suffix(".sts") {
        let p = std::path::Path::new(base);
        let dir =
            p.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(std::path::Path::new("."));
        let stem = p.file_name().and_then(|f| f.to_str()).ok_or("bad sts path")?;
        if !std::path::Path::new(path).exists() {
            return Err(format!("cannot open {path}: not found"));
        }
        return multifile::read_split(dir, stem, &read)
            .map_err(|e| format!("cannot parse split trace {path}: {e}"));
    }
    let f = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    logfmt::read_log(std::io::BufReader::new(f), &read)
        .map_err(|e| format!("cannot parse {path}: {e}"))
}

fn load(
    path: &str,
    opts: &std::collections::HashMap<String, String>,
    rec: &lsr::obs::Recorder,
) -> Result<Trace, String> {
    let mode = if opts.contains_key("salvage") { Mode::Salvage } else { Mode::Checked };
    let (trace, rep) = load_report(path, mode, rec)?;
    // Salvage findings go to stderr so stdout stays parseable.
    for d in &rep.diagnostics {
        eprintln!("{d}");
    }
    if rep.suppressed > 0 {
        eprintln!("({} more finding(s) suppressed)", rep.suppressed);
    }
    if !rep.is_clean() {
        eprintln!("salvage: {}", rep.summary());
    }
    Ok(trace)
}

/// Loads a trace and applies an optional `--from`/`--to` time window
/// (nanoseconds since run start).
fn load_windowed(
    path: &str,
    opts: &std::collections::HashMap<String, String>,
    rec: &lsr::obs::Recorder,
) -> Result<Trace, String> {
    let trace = load(path, opts, rec)?;
    apply_window(trace, opts)
}

/// Applies the `--from`/`--to` window flags to an already-loaded trace.
fn apply_window(
    trace: Trace,
    opts: &std::collections::HashMap<String, String>,
) -> Result<Trace, String> {
    let parse = |key: &str, default: u64| -> Result<u64, String> {
        match opts.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants nanoseconds, got {v:?}")),
        }
    };
    let from = parse("from", 0)?;
    let to = parse("to", u64::MAX)?;
    if from == 0 && to == u64::MAX {
        return Ok(trace);
    }
    if from > to {
        return Err(format!("--from {from} exceeds --to {to}"));
    }
    Ok(lsr::trace::window(&trace, lsr::trace::Time(from), lsr::trace::Time(to)))
}

/// Unified `--deny` exit policy for the diagnostic commands (the table
/// lives in docs/lints.md §"Exit codes"). The denied set is the
/// comma-separated `--deny` value plus the aliases `--deny-warnings`
/// (the token `warnings`) and `--deny-structure-affecting` (`R002`).
/// A run fails when any reported diagnostic carries a denied code, when
/// `warnings` is denied and any warning was reported — or, for the
/// commands where errors are hard failures (`errors_fail`: lint,
/// analyze, model — not races, whose R family is opt-in by design),
/// when any error-severity diagnostic was reported.
fn exit_status(
    opts: &std::collections::HashMap<String, String>,
    diagnostics: &[lsr::lint::Diagnostic],
    errors_fail: bool,
) -> ExitCode {
    let mut denied: Vec<&str> =
        opts.get("deny").map(|v| v.split(',').map(str::trim).collect()).unwrap_or_default();
    if opts.contains_key("deny-warnings") {
        denied.push("warnings");
    }
    if opts.contains_key("deny-structure-affecting") {
        denied.push("R002");
    }
    let failing = diagnostics.iter().any(|d| {
        (errors_fail && d.severity == lsr::lint::Severity::Error)
            || denied.contains(&d.code)
            || (denied.contains(&"warnings") && d.severity == lsr::lint::Severity::Warning)
    });
    if failing {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn extract_from(args: &[String]) -> Result<(Trace, LogicalStructure, Obs), String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    let trace = load_windowed(path, &opts, &obs.rec)?;
    let cfg = config_from(&opts, &obs);
    let ls = try_extract(&trace, &cfg).map_err(|e| format!("cannot extract structure: {e}"))?;
    {
        let _sp = obs.rec.span("verify");
        ls.verify(&trace).map_err(|e| format!("internal invariant violated: {e}"))?;
    }
    Ok((trace, ls, obs))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    use lsr::apps::*;
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let preset = *pos.first().ok_or("missing preset name")?;
    let sp_gen = obs.rec.span("generate");
    let trace = match preset {
        "jacobi-fig8" => jacobi2d(&JacobiParams::fig8()),
        "jacobi-fig15" => jacobi2d(&JacobiParams::fig15()),
        "lulesh-charm" => lulesh_charm(&LuleshParams::fig16_charm()),
        "lulesh-mpi" => lulesh_mpi(&LuleshParams::fig16_mpi()),
        "lassen8" => lassen_charm(&LassenParams::chares8()),
        "lassen64" => lassen_charm(&LassenParams::chares64()),
        "lassen-mpi" => lassen_mpi(&LassenParams::mpi(4, 2)),
        "pdes" => pdes_charm(&PdesParams::fig24()),
        "mergetree" => mergetree_mpi(&MergeTreeParams::small()),
        "mergetree1024" => mergetree_mpi(&MergeTreeParams::fig10()),
        "bt" => bt_mpi(&BtParams::fig1()),
        "divcon" => divcon_charm(&DivConParams::small()),
        other => return Err(format!("unknown preset {other:?} (run `lsr help`)")),
    };
    drop(sp_gen);
    obs.rec.add("gen.tasks", trace.tasks.len() as u64);
    obs.rec.add("gen.events", trace.events.len() as u64);
    obs.rec.add("gen.messages", trace.msgs.len() as u64);
    let sp_write = obs.rec.span("write");
    let default = format!("{preset}.lsrtrace");
    let out = opts.get("out").map(String::as_str).unwrap_or(&default);
    if let Some(base) = out.strip_suffix(".sts") {
        // Multi-file per-PE layout (Projections-style).
        let p = std::path::Path::new(base);
        let dir =
            p.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(std::path::Path::new("."));
        let stem = p.file_name().and_then(|f| f.to_str()).ok_or("bad sts path")?;
        let files = lsr::trace::multifile::write_split(&trace, dir, stem)
            .map_err(|e| format!("cannot write {out}: {e}"))?;
        println!(
            "wrote {files} files ({out} + per-PE logs): {} tasks, {} events, {} messages on {} PEs",
            trace.tasks.len(),
            trace.events.len(),
            trace.msgs.len(),
            trace.pe_count
        );
        drop(sp_write);
        return obs.finish("gen");
    }
    let f = std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    logfmt::write_log(&trace, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} tasks, {} events, {} messages on {} PEs",
        trace.tasks.len(),
        trace.events.len(),
        trace.msgs.len(),
        trace.pe_count
    );
    drop(sp_write);
    obs.finish("gen")
}

fn cmd_fuzz(args: &[String]) -> Result<ExitCode, String> {
    use lsr::fuzz::{emit, run_fuzz, Backend, FuzzParams, Motif, Scenario};
    let (pos, opts) = parse_opts(args)?;
    if let Some(p) = pos.first() {
        return Err(format!("fuzz takes no positional arguments, got {p:?}"));
    }
    let obs = Obs::from_opts(&opts);
    let mut params = FuzzParams::default();
    if let Some(v) = opts.get("seed") {
        params.seed =
            v.parse().map_err(|_| format!("--seed wants a non-negative integer, got {v:?}"))?;
    }
    if let Some(v) = opts.get("count") {
        params.count = v.parse().map_err(|_| format!("--count wants a number, got {v:?}"))?;
        if params.count == 0 {
            return Err("--count must be at least 1".into());
        }
    }
    if let Some(v) = opts.get("motifs") {
        let mut motifs: Vec<Motif> = Vec::new();
        for tok in v.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let m = Motif::parse(tok).ok_or_else(|| {
                format!(
                    "unknown motif {tok:?} (catalog: halo wavefront tree alltoall steal migration)"
                )
            })?;
            if !motifs.contains(&m) {
                motifs.push(m);
            }
        }
        if motifs.is_empty() {
            return Err("--motifs needs at least one motif".into());
        }
        params.motifs = motifs;
    }
    if let Some(v) = opts.get("backend") {
        let b = Backend::parse(v)
            .ok_or_else(|| format!("unknown backend {v:?} (expected charm or mpi)"))?;
        params.backends = vec![b];
    }
    let export = opts.get("export").map(std::path::PathBuf::from);
    if let Some(dir) = &export {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    let sp = obs.rec.span("fuzz");
    let outcomes = run_fuzz(&params, &obs.rec);
    drop(sp);

    // A failing scenario is always written out (reproducers must
    // outlive the run); passing scenarios only under --export.
    let write_trace = |sc: &Scenario, backend: Backend| -> Result<String, String> {
        let name = format!("fuzz-{}-{:04}.{backend}.lsrtrace", params.seed, sc.id);
        let path =
            export.as_deref().map(|d| d.join(&name).to_string_lossy().into_owned()).unwrap_or(name);
        let trace = emit(sc, backend);
        let f = std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
        logfmt::write_log(&trace, std::io::BufWriter::new(f)).map_err(|e| e.to_string())?;
        obs.rec.add("fuzz.exported", 1);
        Ok(path)
    };

    let mut failures = 0usize;
    for o in &outcomes {
        match &o.failure {
            None => {
                if export.is_some() {
                    write_trace(&o.scenario, o.backend)?;
                }
            }
            Some(f) => {
                failures += 1;
                let path = write_trace(&o.scenario, o.backend)?;
                print!("FAIL scenario {} ({}): {f} — wrote {path}", o.scenario.id, o.backend);
                if let Some(code) = f.shrink_code() {
                    let log = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
                    let shrink_opts = lsr::audit::ShrinkOptions {
                        config: o.backend.config(),
                        ..Default::default()
                    };
                    match lsr::audit::shrink_log(&log, code, &shrink_opts) {
                        Ok(r) => {
                            let min = format!("{path}.min.lsrtrace");
                            std::fs::write(&min, r.log.as_bytes())
                                .map_err(|e| format!("cannot write {min}: {e}"))?;
                            obs.rec.add("fuzz.shrunk", 1);
                            print!(
                                " (+ {min}: {} -> {} records, {code} still fires)",
                                r.original_records, r.final_records
                            );
                        }
                        Err(e) => print!(" (shrink failed: {e})"),
                    }
                }
                println!();
            }
        }
    }

    println!(
        "fuzzed {} scenario(s) x {} backend(s) from seed {}: {} trace(s), {} failure(s)",
        params.count,
        params.backends.len(),
        params.seed,
        outcomes.len(),
        failures
    );
    obs.finish("fuzz")?;
    Ok(if failures == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let trace = load(pos.first().ok_or("missing trace file argument")?, &opts, &obs.rec)?;
    {
        let _sp = obs.rec.span("stats");
        println!("{}", TraceStats::compute(&trace));
    }
    obs.finish("stats")
}

fn cmd_quality(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let trace = load(pos.first().ok_or("missing trace file argument")?, &opts, &obs.rec)?;
    {
        let _sp = obs.rec.span("quality");
        println!("{}", QualityReport::analyze(&trace));
    }
    obs.finish("quality")
}

fn cmd_extract(args: &[String]) -> Result<(), String> {
    let (trace, ls, obs) = extract_from(args)?;
    println!("{}", ls.summary(&trace));
    obs.finish("extract")
}

fn cmd_render(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    let trace = load_windowed(path, &opts, &obs.rec)?;
    let cfg = config_from(&opts, &obs);
    let ls = try_extract(&trace, &cfg).map_err(|e| format!("cannot extract structure: {e}"))?;
    {
        let _sp = obs.rec.span("verify");
        ls.verify(&trace).map_err(|e| format!("internal invariant violated: {e}"))?;
    }

    let view = opts.get("view").map(String::as_str).unwrap_or("logical");
    let format = opts.get("format").map(String::as_str).unwrap_or("ascii");
    let metric = opts.get("metric").map(String::as_str).unwrap_or("phase");

    let sp_metrics = obs.rec.span("metrics");
    let metric_values: Option<Vec<f64>> = match metric {
        "phase" => None,
        "diff" => Some(
            DifferentialDuration::compute(&trace, &ls)
                .per_event
                .iter()
                .map(|d| d.nanos() as f64)
                .collect(),
        ),
        "idle" => {
            let idle = idle_experienced(&trace);
            Some(
                trace
                    .event_ids()
                    .map(|e| idle[trace.event(e).task.index()].nanos() as f64)
                    .collect(),
            )
        }
        "imbalance" => {
            let imb = Imbalance::compute(&trace, &ls);
            Some(
                trace.event_ids().map(|e| imb.event_value(&trace, &ls, e).nanos() as f64).collect(),
            )
        }
        other => return Err(format!("unknown metric {other:?}")),
    };
    drop(sp_metrics);

    let sp_render = obs.rec.span("render");
    let output = match (format, view) {
        ("ascii", "logical") => match &metric_values {
            None => lsr::render::logical_by_phase(&trace, &ls),
            Some(v) => lsr::render::logical_by_metric(&trace, &ls, v),
        },
        ("ascii", "physical") => lsr::render::physical_by_phase(&trace, &ls),
        ("dot", _) => lsr::render::phase_dag_dot(&trace, &ls),
        (_, "migration") => lsr::render::migration_svg(&trace),
        ("svg", view) => {
            let coloring = match metric_values {
                None => lsr::render::Coloring::Phase,
                Some(v) => lsr::render::Coloring::Metric(v),
            };
            match view {
                "logical" => lsr::render::logical_svg(&trace, &ls, &coloring),
                "physical" => lsr::render::physical_svg(&trace, &ls, &coloring),
                other => return Err(format!("unknown view {other:?}")),
            }
        }
        (f, v) => return Err(format!("unsupported format/view {f:?}/{v:?}")),
    };
    drop(sp_render);
    match opts.get("out") {
        Some(out) => {
            std::fs::write(out, output).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("wrote {out}");
        }
        None => print!("{output}"),
    }
    obs.finish("render")
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let (trace, ls, obs) = extract_from(args)?;
    let sp_metrics = obs.rec.span("metrics");
    let idle = idle_experienced(&trace);
    println!("== idle experienced per PE ==");
    for (pe, d) in per_pe_totals(&trace, &idle).iter().enumerate() {
        println!("  pe{pe}: {d}");
    }
    let dd = DifferentialDuration::compute(&trace, &ls);
    println!("\n== differential duration: top events ==");
    for (e, d) in dd.outliers(lsr::trace::Dur(1)).into_iter().take(10) {
        let c = trace.chare(trace.event_chare(e));
        println!(
            "  {e} step {:>5} {}[{}]: {d}",
            ls.global_step(e),
            trace.array(c.array).name,
            c.index
        );
    }
    println!("\n== per-phase profile ==");
    let imb = Imbalance::compute(&trace, &ls);
    print!("{}", lsr::metrics::profile_table(&trace, &ls, &imb));
    println!("\n== imbalance ==");
    println!("  per-phase sum: {}", imb.total());
    println!("  overall (max PE − min PE): {}", imb.overall());
    println!("  mean relative per phase: {:.1}%", imb.mean_relative() * 100.0);
    drop(sp_metrics);
    obs.finish("metrics")
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    let trace = load_windowed(path, &opts, &obs.rec)?;
    let cfg = config_from(&opts, &obs);
    let ls = try_extract(&trace, &cfg).map_err(|e| format!("cannot extract structure: {e}"))?;
    {
        let _sp = obs.rec.span("verify");
        ls.verify(&trace).map_err(|e| format!("internal invariant violated: {e}"))?;
    }
    let default = format!("{path}.html");
    let out = opts.get("out").map(String::as_str).unwrap_or(&default);
    let stream = || -> std::io::Result<()> {
        let file = std::fs::File::create(out)?;
        let mut sink = IoSink { inner: std::io::BufWriter::new(file), error: None };
        let _sp = obs.rec.span("render");
        let written = lsr::render::write_html_report(&mut sink, path, &trace, &ls);
        sink.finish(written)
    };
    stream().map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    obs.finish("report")
}

/// Streams a `fmt::Write` renderer into an `io::Write`. `fmt::Error`
/// carries no cause, so the sink keeps the first I/O error for
/// [`IoSink::finish`] to return.
struct IoSink<W: std::io::Write> {
    inner: W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> IoSink<W> {
    /// The renderer's outcome as an I/O result, after a final flush.
    fn finish(mut self, written: std::fmt::Result) -> std::io::Result<()> {
        match (written, self.error) {
            (Ok(()), _) => self.inner.flush(),
            (Err(_), Some(e)) => Err(e),
            (Err(_), None) => Err(std::io::Error::other("formatter error")),
        }
    }
}

impl<W: std::io::Write> std::fmt::Write for IoSink<W> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error.get_or_insert(e);
            std::fmt::Error
        })
    }
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let (pa, pb) = match pos.as_slice() {
        [a, b] => (*a, *b),
        _ => return Err("diff wants exactly two trace files".into()),
    };
    let cfg = config_from(&opts, &obs);
    let (ta, tb) = (load(pa, &opts, &obs.rec)?, load(pb, &opts, &obs.rec)?);
    let la = try_extract(&ta, &cfg).map_err(|e| format!("{pa}: cannot extract structure: {e}"))?;
    la.verify(&ta).map_err(|e| format!("{pa}: {e}"))?;
    let lb = try_extract(&tb, &cfg).map_err(|e| format!("{pb}: cannot extract structure: {e}"))?;
    lb.verify(&tb).map_err(|e| format!("{pb}: {e}"))?;
    let d = {
        let _sp = obs.rec.span("diff");
        lsr::metrics::StructureDiff::compute(&ta, &la, &tb, &lb)
    };
    print!("{d}");
    if d.same_structure() {
        println!("=> structurally identical runs");
    } else {
        println!("=> structures diverge; inspect the ! rows above");
    }
    obs.finish("diff")
}

fn cmd_lint(args: &[String]) -> Result<ExitCode, String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    // Lint wants to diagnose broken files, so traces of either layout
    // load without the reader's validation pass (the T lints re-run it
    // with coded findings). Windowing rewrites the trace on load, so a
    // windowed lint keeps the strict reader. With `--salvage` the
    // ingestion findings are merged into the report (I codes) instead
    // of being printed to stderr.
    let windowed = opts.contains_key("from") || opts.contains_key("to");
    let mode = if opts.contains_key("salvage") {
        Mode::Salvage
    } else if windowed {
        Mode::Checked
    } else {
        Mode::Unchecked
    };
    let (trace, ingest) = load_report(path, mode, &obs.rec)?;
    let trace = apply_window(trace, &opts)?;
    let mut lint_opts = lsr::lint::LintOptions::with_config(config_from(&opts, &obs));
    if let Some(v) = opts.get("limit") {
        lint_opts.limit = v.parse().map_err(|_| format!("--limit wants a number, got {v:?}"))?;
    }
    if opts.contains_key("no-structure") {
        lint_opts.check_structure = false;
    }
    let sp_lint = obs.rec.span("lint");
    let mut report = lsr::lint::lint_trace(&trace, &lint_opts);
    drop(sp_lint);
    let mut merged = lsr::lint::ingest_diagnostics(&ingest);
    merged.append(&mut report.diagnostics);
    report.diagnostics = merged;
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "{path}: {} error(s), {} warning(s){}",
            report.error_count(),
            report.warning_count(),
            if report.structure_checked { "" } else { " (structure passes skipped)" }
        );
    }
    obs.finish("lint")?;
    Ok(exit_status(&opts, &report.diagnostics, true))
}

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    let trace = load_windowed(path, &opts, &obs.rec)?;
    let cfg = config_from(&opts, &obs);
    let ls = try_extract(&trace, &cfg).map_err(|e| format!("cannot extract structure: {e}"))?;

    let mut aopts = lsr::flow::AnalyzeOptions::default();
    if let Some(v) = opts.get("limit") {
        aopts.limit = v.parse().map_err(|_| format!("--limit wants a number, got {v:?}"))?;
    }
    if let Some(v) = opts.get("bottleneck-share") {
        aopts.bottleneck_share = v
            .parse::<f64>()
            .ok()
            .filter(|s| (0.0..=1.0).contains(s))
            .ok_or_else(|| format!("--bottleneck-share wants a number in [0,1], got {v:?}"))?;
    }
    let report = lsr::lint::analyze_structure(&trace, &ls, &obs.rec, &aopts);
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "{path}: {} error(s), {} warning(s) over {} phase(s)",
            report.error_count(),
            report.warning_count(),
            ls.num_phases()
        );
    }
    obs.finish("analyze")?;
    Ok(exit_status(&opts, &report.diagnostics, true))
}

fn cmd_model(args: &[String]) -> Result<ExitCode, String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    let trace = load_windowed(path, &opts, &obs.rec)?;
    let cfg = config_from(&opts, &obs);
    let ls = try_extract(&trace, &cfg).map_err(|e| format!("cannot extract structure: {e}"))?;
    let limit = match opts.get("limit") {
        None => lsr::lint::DEFAULT_DIAG_LIMIT,
        Some(v) => v.parse().map_err(|_| format!("--limit wants a number, got {v:?}"))?,
    };
    // The skeleton is built from the declaration layer only; the trace
    // and the recovered structure appear only on the observed side of
    // the conformance check.
    let model = lsr::model::build_with(&trace.declarations(), &obs.rec);
    let report = lsr::model::check_with(&model, &trace, &ls, &obs.rec);
    let diags = lsr::lint::model_diagnostics(&report, limit);
    if opts.contains_key("json") {
        println!("{}", lsr::lint::model_report_json(&model, &diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        let errors = diags.iter().filter(|d| d.severity == lsr::lint::Severity::Error).count();
        println!(
            "{path}: {} error(s), {} warning(s); skeleton: {} family(ies), \
             {} signature(s), {} tree shape(s){}",
            errors,
            diags.len() - errors,
            model.families.len(),
            model.sigs.len(),
            model.shapes.len(),
            if model.degraded { " (degraded)" } else { "" }
        );
    }
    obs.finish("model")?;
    Ok(exit_status(&opts, &diags, true))
}

fn cmd_races(args: &[String]) -> Result<ExitCode, String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    let trace = load_windowed(path, &opts, &obs.rec)?;
    let cfg = config_from(&opts, &obs);
    let limit = match opts.get("limit") {
        None => lsr::lint::DEFAULT_DIAG_LIMIT,
        Some(v) => v.parse().map_err(|_| format!("--limit wants a number, got {v:?}"))?,
    };
    let sp_races = obs.rec.span("races");
    let report = lsr::lint::analyze_races(&trace, &cfg, limit).map_err(|cyc| {
        let shown: Vec<String> = cyc.iter().take(8).map(|t| t.to_string()).collect();
        format!(
            "causal happened-before cycle through {} task(s): {} — run `lsr lint` first",
            cyc.len(),
            shown.join(" -> ")
        )
    })?;
    drop(sp_races);
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "{path}: {} race(s): {} benign, {} structure-affecting ({} pair(s) scanned{})",
            report.races.len(),
            report.benign_count(),
            report.structure_affecting_count(),
            report.scanned_pairs,
            if report.truncated { ", truncated" } else { "" }
        );
    }
    obs.finish("races")?;
    Ok(exit_status(&opts, &report.diagnostics, false))
}

fn cmd_audit(args: &[String]) -> Result<ExitCode, String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    let trace = load_windowed(path, &opts, &obs.rec)?;
    let cfg = config_from(&opts, &obs);
    let mut audit_opts = lsr::audit::AuditOptions::default();
    if let Some(v) = opts.get("limit") {
        audit_opts.limit = v.parse().map_err(|_| format!("--limit wants a number, got {v:?}"))?;
    }
    let (ls, report) = lsr::audit::audit_extract(&trace, &cfg, audit_opts)
        .map_err(|e| format!("cannot extract structure: {e}"))?;
    if opts.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
        println!(
            "{path}: certificate {}: {} error(s), {} warning(s); {} record(s) replayed, \
             {} check(s) over {} phase(s)",
            if report.is_certified() { "OK" } else { "REJECTED" },
            report.error_count(),
            report.warning_count(),
            report.records_replayed,
            report.checks,
            ls.num_phases(),
        );
    }
    obs.finish("audit")?;
    Ok(if report.is_certified() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_shrink(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let path = pos.first().ok_or("missing trace file argument")?;
    if path.ends_with(".sts") {
        return Err("shrink works on single-file logs, not the .sts split layout".into());
    }
    let code = opts.get("code").ok_or("--code CODE is required (e.g. --code T005)")?;
    let log = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut shrink_opts =
        lsr::audit::ShrinkOptions { config: config_from(&opts, &obs), ..Default::default() };
    if let Some(v) = opts.get("max-probes") {
        shrink_opts.max_probes =
            v.parse().map_err(|_| format!("--max-probes wants a number, got {v:?}"))?;
    }
    let result = lsr::audit::shrink_log(&log, code, &shrink_opts).map_err(|e| e.to_string())?;
    let default = format!("{path}.min.lsrtrace");
    let out = opts.get("out").map(String::as_str).unwrap_or(&default);
    std::fs::write(out, result.log.as_bytes()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} -> {} record line(s) ({:.1}% removed) in {} probe(s); {code} still fires",
        result.original_records,
        result.final_records,
        result.reduction() * 100.0,
        result.probes
    );
    obs.finish("shrink")
}

fn cmd_critical_path(args: &[String]) -> Result<(), String> {
    let (pos, opts) = parse_opts(args)?;
    let obs = Obs::from_opts(&opts);
    let trace = load(pos.first().ok_or("missing trace file argument")?, &opts, &obs.rec)?;
    let sp_cp = obs.rec.span("critical-path");
    let cp = CriticalPath::compute(&trace);
    println!(
        "critical path: {} tasks, {} work over {} makespan (ratio {:.2})",
        cp.tasks.len(),
        cp.work,
        lsr::trace::Dur(cp.makespan.nanos()),
        cp.work_ratio()
    );
    println!("PE shares of path work:");
    for (pe, share) in cp.pe_shares(&trace).iter().enumerate() {
        if *share > 0.0 {
            println!("  pe{pe}: {:.1}%", share * 100.0);
        }
    }
    println!("last 10 tasks on the path:");
    let tail: Vec<_> = cp.tasks.iter().rev().take(10).copied().collect();
    for &t in tail.iter().rev() {
        let rec = trace.task(t);
        let c = trace.chare(rec.chare);
        println!(
            "  {t} {}[{}] {} on {} [{} .. {}]",
            trace.array(c.array).name,
            c.index,
            trace.entry(rec.entry).name,
            rec.pe,
            rec.begin,
            rec.end
        );
    }
    drop(sp_cp);
    obs.finish("critical-path")
}

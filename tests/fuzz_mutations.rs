//! Planted-mutation tests over fuzzer-generated traces: one structural
//! corruption per motif family, each tripping a specific existing
//! diagnostic that the clean emission provably does not raise, and each
//! reproducer ddmin-minimized by at least 80% with the code still
//! firing.
//!
//! Family coverage (backend chosen where the corruption is expressible):
//! halo → M001 (zeroed neighbor radius), tree → M002 (understated
//! collective arity), all-to-all → M003 (zeroed declared volumes),
//! migration → M004 (appended unexercised signature), wavefront → M005
//! (swapped SDAG serials), work stealing → R004 (unmatched steal
//! request under causal concurrency).

use lsr_audit::{shrink_log, ShrinkOptions};
use lsr_core::{try_extract, Config};
use lsr_fuzz::{emit, Backend, Motif, Scenario};
use lsr_lint::{analyze_races, model_diagnostics};
use lsr_model::SkeletonModel;
use lsr_trace::logfmt::{read_log, to_log_string};
use lsr_trace::Mode;

fn scenario(seed: u64, x: u32, y: u32, rounds: u32, motifs: Vec<Motif>) -> Scenario {
    Scenario { id: 0, seed, x, y, pes: 3, rounds, motifs }
}

fn log_of(sc: &Scenario, backend: Backend) -> String {
    to_log_string(&emit(sc, backend))
}

/// All `M` codes (any severity) the skeleton model raises on `log`.
fn model_codes(log: &str, cfg: &Config) -> Vec<String> {
    let (tr, _) = read_log(log.as_bytes(), &Mode::Salvage.into()).expect("log parses");
    let cfg = cfg.clone().with_verify(false);
    let ls = try_extract(&tr, &cfg).expect("log extracts");
    let model = SkeletonModel::build(&tr.declarations());
    let report = lsr_model::check(&model, &tr, &ls);
    model_diagnostics(&report, 256).iter().map(|d| d.code.to_string()).collect()
}

/// All `R` codes the race analysis raises on `log`.
fn race_codes(log: &str, cfg: &Config) -> Vec<String> {
    let (tr, _) = read_log(log.as_bytes(), &Mode::Salvage.into()).expect("log parses");
    let cfg = cfg.clone().with_verify(false);
    let report = analyze_races(&tr, &cfg, 256).expect("acyclic");
    report.diagnostics.iter().map(|d| d.code.to_string()).collect()
}

/// Rewrites each record line's whitespace-split fields through `f`
/// (the header passes through untouched).
fn map_lines(log: &str, mut f: impl FnMut(&mut Vec<String>)) -> String {
    let out: Vec<String> = log
        .lines()
        .map(|l| {
            let mut fields: Vec<String> = l.split_whitespace().map(str::to_owned).collect();
            if fields.first().map(String::as_str) != Some("LSRTRACE") {
                f(&mut fields);
            }
            fields.join(" ")
        })
        .collect();
    out.join("\n") + "\n"
}

/// The entry id declared under `name`, read off the ENTRY records.
fn entry_id(log: &str, name: &str) -> String {
    log.lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.first() == Some(&"ENTRY") && f.get(4) == Some(&name)).then(|| f[1].to_owned())
        })
        .next()
        .unwrap_or_else(|| panic!("no ENTRY named {name}"))
}

/// The planted-mutation contract: the baseline is clean of `code`, the
/// mutation trips it, and the shrunk reproducer both reduces >= 80%
/// and still fires (re-checked through the same oracle, not the
/// shrinker's probe).
fn assert_mutation(
    baseline: &str,
    mutated: &str,
    code: &str,
    cfg: &Config,
    codes_of: fn(&str, &Config) -> Vec<String>,
) {
    assert_ne!(baseline, mutated, "{code}: the mutation must change the log");
    assert!(
        !codes_of(baseline, cfg).iter().any(|c| c == code),
        "{code} already fires on the clean emission"
    );
    assert!(
        codes_of(mutated, cfg).iter().any(|c| c == code),
        "the planted corruption must trip {code}"
    );
    let opts = ShrinkOptions { config: cfg.clone(), ..ShrinkOptions::default() };
    let r = shrink_log(mutated, code, &opts).unwrap_or_else(|e| panic!("{code} must shrink: {e}"));
    assert!(
        r.reduction() >= 0.8,
        "{code}: expected >= 80% reduction, got {:.1}% ({} -> {} records)",
        r.reduction() * 100.0,
        r.original_records,
        r.final_records
    );
    assert!(
        codes_of(&r.log, cfg).iter().any(|c| c == code),
        "{code} must still fire on the reproducer:\n{}",
        r.log
    );
}

/// Halo family: zeroing the declared neighbor radius unadmits every
/// exchange message (pattern misfit ⇒ M001 UnadmittedMessage).
#[test]
fn halo_radius_mutation_trips_m001() {
    let log = log_of(&scenario(11, 3, 2, 1, vec![Motif::Halo]), Backend::Charm);
    let mut done = false;
    let mutated = map_lines(&log, |f| {
        if !done && f[0] == "SIG" && f[6].starts_with("near:") && f[6] != "near:0" {
            f[6] = "near:0".into();
            done = true;
        }
    });
    assert!(done, "halo emission must declare a near signature");
    assert_mutation(&log, &mutated, "M001", &Config::charm(), model_codes);
}

/// Tree family: understating the declared collective arity makes the
/// observed reduction fan-in exceed the shape bound (M002). Needs
/// enough ranks that some rank has two children *and* a parent.
#[test]
fn tree_arity_mutation_trips_m002() {
    let log = log_of(&scenario(4, 3, 2, 1, vec![Motif::Tree]), Backend::Mpi);
    let mut done = false;
    let mutated = map_lines(&log, |f| {
        if f[0] == "SIG" && f[6] == "tree:2" {
            f[6] = "tree:1".into();
            done = true;
        }
    });
    assert!(done, "tree emission must declare a tree:2 signature");
    assert_mutation(&log, &mutated, "M002", &Config::mpi(), model_codes);
}

/// All-to-all family: zeroing every declared volume collapses the
/// phase-budget interval to [0, 0], so any traffic overruns it (M003).
#[test]
fn alltoall_volume_mutation_trips_m003() {
    let log = log_of(&scenario(11, 2, 2, 1, vec![Motif::AllToAll]), Backend::Charm);
    let mutated = map_lines(&log, |f| {
        if f[0] == "SIG" {
            let last = f.len() - 1;
            f[last] = "0".into();
        }
    });
    assert_mutation(&log, &mutated, "M003", &Config::charm(), model_codes);
}

/// Migration family: appending a well-formed signature over a path the
/// program never exercises (advance → boot) leaves it with zero
/// matched messages (M004 UnobservedPath).
#[test]
fn migration_phantom_sig_mutation_trips_m004() {
    let log = log_of(&scenario(11, 2, 2, 1, vec![Motif::Migration]), Backend::Charm);
    let nsigs = log.lines().filter(|l| l.starts_with("SIG ")).count();
    // The application array id, read off the declared migration sig
    // (runtime-derived tree sigs live on the runtime array).
    let app = log
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.first() == Some(&"SIG") && f[6].starts_with("near:")).then(|| f[2].to_owned())
        })
        .next()
        .expect("migration declares a near signature");
    let advance = entry_id(&log, "advance");
    let boot = entry_id(&log, "boot");
    let mutated = format!("{log}SIG {nsigs} {app} {advance} {app} {boot} any 5\n");
    assert_mutation(&log, &mutated, "M004", &Config::charm(), model_codes);
}

/// Wavefront family: swapping the SDAG serials of two recurring sweep
/// entries makes the per-chare serial cycle wrap to two different
/// targets (M005 PeriodicityMismatch). Needs >= 3 recurring serials
/// and >= 2 rounds so the cycle is observable.
#[test]
fn wavefront_serial_swap_mutation_trips_m005() {
    let log = log_of(&scenario(11, 2, 2, 2, vec![Motif::Wavefront; 4]), Backend::Charm);
    let m1 = entry_id(&log, "m1.wf");
    let m2 = entry_id(&log, "m2.wf");
    let mutated = map_lines(&log, |f| {
        if f[0] == "ENTRY" {
            if f[1] == m1 {
                f[2] = "4".into();
            } else if f[1] == m2 {
                f[2] = "3".into();
            }
        }
    });
    assert_mutation(&log, &mutated, "M005", &Config::charm(), model_codes);
}

/// Work-stealing family: erasing the match of one steal request leaves
/// its grant causally concurrent with an untriggered receive in the
/// same chare stream (R004 UntracedUnordered). Only expressible on the
/// charm backend — MPI rank streams are totally ordered by program
/// order, so the pair would never be concurrent there.
#[test]
fn steal_unmatched_request_mutation_trips_r004() {
    let log = log_of(&scenario(11, 2, 2, 1, vec![Motif::Steal]), Backend::Charm);
    let req = entry_id(&log, "m0.req");
    // First pass: find the first steal-request message and its id.
    let msg_id = log
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f.first() == Some(&"MSG") && f[4] == req).then(|| f[1].to_owned())
        })
        .next()
        .expect("steal emission sends request messages");
    // Second pass: blank the match on both sides (message and event).
    let mutated = map_lines(&log, |f| {
        if f[0] == "MSG" && f[1] == msg_id {
            f[6] = "-".into();
            f[7] = "-".into();
        } else if f[0] == "RECV" && f[4] == msg_id {
            f[4] = "-".into();
        }
    });
    assert_mutation(&log, &mutated, "R004", &Config::charm(), race_codes);
}

//! The differential oracle stack and the fuzz driver.

use crate::charm_emit::emit_charm;
use crate::motif::Motif;
use crate::mpi_emit::emit_mpi;
use crate::scenario::Scenario;
use lsr_audit::{audit_extract, AuditOptions};
use lsr_core::{try_extract, Config};
use lsr_lint::{model_diagnostics, Severity};
use lsr_model::SkeletonModel;
use lsr_obs::Recorder;
use lsr_trace::Trace;
use std::fmt;

/// Which simulator renders a scenario into a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The Charm++-like chare-array runtime (`lsr-charm`).
    Charm,
    /// The two-sided message-passing runtime (`lsr-mpi`).
    Mpi,
}

impl Backend {
    /// Both backends, in sweep order.
    pub const ALL: [Backend; 2] = [Backend::Charm, Backend::Mpi];

    /// The `--backend` token.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Charm => "charm",
            Backend::Mpi => "mpi",
        }
    }

    /// Parses a `--backend` token.
    pub fn parse(s: &str) -> Option<Backend> {
        Backend::ALL.into_iter().find(|b| b.name() == s)
    }

    /// The extraction configuration matched to this backend's traces.
    pub fn config(self) -> Config {
        match self {
            Backend::Charm => Config::charm(),
            Backend::Mpi => Config::mpi(),
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Emits a scenario through one backend.
pub fn emit(sc: &Scenario, backend: Backend) -> Trace {
    match backend {
        Backend::Charm => emit_charm(sc),
        Backend::Mpi => emit_mpi(sc),
    }
}

/// How a scenario failed the oracle stack (first failing rung only:
/// later rungs would report artifacts of the earlier failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// Extraction refused the trace.
    Extract(String),
    /// The recovered structure violates the declared skeleton model.
    NonConformant {
        /// Error-severity `M` codes, deduplicated, in check order.
        codes: Vec<String>,
    },
    /// The extraction certificate did not replay clean.
    AuditFailed {
        /// Error-severity `A` codes, deduplicated, in replay order.
        codes: Vec<String>,
    },
}

impl Failure {
    /// The diagnostic code `lsr shrink` can minimize against, when one
    /// exists (extraction failures have no per-record oracle).
    pub fn shrink_code(&self) -> Option<&str> {
        match self {
            Failure::NonConformant { codes } | Failure::AuditFailed { codes } => {
                codes.first().map(String::as_str)
            }
            Failure::Extract(_) => None,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Extract(e) => write!(f, "extraction failed: {e}"),
            Failure::NonConformant { codes } => {
                write!(f, "model violation: {}", codes.join(","))
            }
            Failure::AuditFailed { codes } => {
                write!(f, "certificate violation: {}", codes.join(","))
            }
        }
    }
}

/// Runs the full oracle stack over one trace. `cfg` is the
/// backend-matched base configuration.
pub fn check_trace(trace: &Trace, cfg: &Config) -> Option<Failure> {
    let ls = match try_extract(trace, cfg) {
        Ok(ls) => ls,
        Err(e) => return Some(Failure::Extract(e.to_string())),
    };

    let model = SkeletonModel::build(&trace.declarations());
    let report = lsr_model::check(&model, trace, &ls);
    if report.error_count() > 0 {
        let mut codes: Vec<String> = Vec::new();
        for d in model_diagnostics(&report, 256) {
            if d.severity >= Severity::Error && !codes.iter().any(|c| c == d.code) {
                codes.push(d.code.to_string());
            }
        }
        return Some(Failure::NonConformant { codes });
    }

    match audit_extract(trace, cfg, AuditOptions::default()) {
        Ok((_, audit)) if audit.is_certified() => None,
        Ok((_, audit)) => {
            let mut codes: Vec<String> = Vec::new();
            for d in &audit.diagnostics {
                if d.severity >= Severity::Error && !codes.iter().any(|c| c == d.code) {
                    codes.push(d.code.to_string());
                }
            }
            Some(Failure::AuditFailed { codes })
        }
        Err(e) => Some(Failure::Extract(e.to_string())),
    }
}

/// One scenario × backend run: the trace dimensions and the verdict.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The generated shape.
    pub scenario: Scenario,
    /// The backend that rendered it.
    pub backend: Backend,
    /// Tasks in the emitted trace.
    pub tasks: usize,
    /// Events in the emitted trace.
    pub events: usize,
    /// Messages in the emitted trace.
    pub msgs: usize,
    /// `None` when every oracle rung passed.
    pub failure: Option<Failure>,
}

/// Sweep parameters (the CLI's `--seed/--count/--motifs`).
#[derive(Debug, Clone)]
pub struct FuzzParams {
    /// Master seed for the sweep.
    pub seed: u64,
    /// Scenarios to generate.
    pub count: u32,
    /// Motif pool scenarios draw from.
    pub motifs: Vec<Motif>,
    /// Backends to render through.
    pub backends: Vec<Backend>,
}

impl Default for FuzzParams {
    fn default() -> FuzzParams {
        FuzzParams {
            seed: 0,
            count: 16,
            motifs: Motif::ALL.to_vec(),
            backends: Backend::ALL.to_vec(),
        }
    }
}

/// Emits and checks one scenario through one backend.
pub fn fuzz_scenario(sc: &Scenario, backend: Backend) -> FuzzOutcome {
    let trace = emit(sc, backend);
    let failure = check_trace(&trace, &backend.config());
    FuzzOutcome {
        scenario: sc.clone(),
        backend,
        tasks: trace.tasks.len(),
        events: trace.events.len(),
        msgs: trace.msgs.len(),
        failure,
    }
}

/// Runs the whole sweep, flushing `fuzz.*` counters onto `rec`.
/// Outcomes come back in (scenario, backend) order — deterministic.
pub fn run_fuzz(params: &FuzzParams, rec: &Recorder) -> Vec<FuzzOutcome> {
    let mut out = Vec::with_capacity(params.count as usize * params.backends.len());
    for id in 0..params.count {
        let sc = Scenario::generate(params.seed, id, &params.motifs);
        rec.add("fuzz.scenarios", 1);
        rec.add("fuzz.motifs", sc.motifs.len() as u64);
        for &b in &params.backends {
            let o = fuzz_scenario(&sc, b);
            rec.add("fuzz.traces", 1);
            rec.add("fuzz.tasks", o.tasks as u64);
            rec.add("fuzz.msgs", o.msgs as u64);
            if o.failure.is_some() {
                rec.add("fuzz.failures", 1);
            }
            out.push(o);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_motif_scenarios_pass_the_stack_on_both_backends() {
        for m in Motif::ALL {
            let sc = Scenario { id: 0, seed: 9, x: 2, y: 2, pes: 3, rounds: 2, motifs: vec![m] };
            for b in Backend::ALL {
                let o = fuzz_scenario(&sc, b);
                assert!(o.failure.is_none(), "{m} on {b}: {:?}", o.failure);
            }
        }
    }

    #[test]
    fn small_sweep_is_clean_and_counted() {
        let rec = Recorder::enabled();
        let params = FuzzParams { count: 4, ..FuzzParams::default() };
        let out = run_fuzz(&params, &rec);
        assert_eq!(out.len(), 8);
        for o in &out {
            assert!(
                o.failure.is_none(),
                "scenario {} on {}: {:?}",
                o.scenario.id,
                o.backend,
                o.failure
            );
        }
        let counters = rec.counters();
        let get = |n: &str| counters.iter().find(|(k, _)| k == n).map(|(_, v)| *v).unwrap_or(0);
        assert_eq!(get("fuzz.scenarios"), 4);
        assert_eq!(get("fuzz.traces"), 8);
        assert_eq!(get("fuzz.failures"), 0);
    }
}

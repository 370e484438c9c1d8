//! The four workloads: their generator parameters, their set-up (generate
//! and write to disk), and the extraction configuration each of their
//! trace files is read with. Every generator takes the benchmark seed;
//! every other parameter is fixed here and listed in the README.

use lsr::apps::{
    lassen_charm, lulesh_charm, mergetree_mpi, LassenParams, LuleshParams, MergeTreeParams,
};
use lsr::core::Config;
use lsr::fuzz::{emit, Backend, Motif, Scenario};
use lsr::trace::{logfmt, Dur, Trace};
use std::path::{Path, PathBuf};

/// Scenarios the `fuzz` workload keeps; each is written through both
/// backends, so the workload holds twice as many traces.
pub const FUZZ_COUNT: u64 = 256;

/// Tasks the `fuzz` workload's traces add up to (within about 2%).
pub const FUZZ_TASKS: u64 = 64_000;

/// One benchmark input set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1,000-chare LULESH on 8 PEs: the densest happens-before relation.
    Lulesh,
    /// 32,768-rank merge tree: one huge phase, a tree-shaped HB.
    Mergetree,
    /// 32×32 LASSEN wavefront: hundreds of phases and real races.
    Lassen,
    /// 512 small fuzz traces: per-trace fixed costs.
    Fuzz,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] =
        [Workload::Lulesh, Workload::Mergetree, Workload::Lassen, Workload::Fuzz];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lulesh => "lulesh",
            Workload::Mergetree => "mergetree",
            Workload::Lassen => "lassen",
            Workload::Fuzz => "fuzz",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Generates the workload from `seed`: its trace files, named and
    /// serialized in the text log format. This is the timed set-up.
    pub fn generate(self, seed: u64) -> Vec<(String, Vec<u8>)> {
        match self {
            Workload::Lulesh => {
                vec![("lulesh.lsrtrace".into(), serialize(&lulesh_charm(&lulesh_params(seed))))]
            }
            Workload::Mergetree => vec![(
                "mergetree.lsrtrace".into(),
                serialize(&mergetree_mpi(&mergetree_params(seed))),
            )],
            Workload::Lassen => {
                vec![("lassen.lsrtrace".into(), serialize(&lassen_charm(&lassen_params(seed))))]
            }
            // A subset of the files `lsr fuzz --seed S --count N --export
            // DIR` writes (without its oracle stack). Scenario sizes are
            // heavy-tailed: 256 scenarios in a row differ in total size
            // by ±10% from seed to seed. Skipping every scenario that
            // would put the corpus ahead of an even pace toward
            // FUZZ_TASKS makes every seed's corpus the same size.
            Workload::Fuzz => {
                let mut files = Vec::new();
                let (mut kept, mut tasks) = (0, 0);
                for id in 0u32.. {
                    if kept == FUZZ_COUNT {
                        break;
                    }
                    let sc = Scenario::generate(seed, id, &Motif::ALL);
                    let traces = Backend::ALL.map(|b| (b, emit(&sc, b)));
                    let n: u64 = traces.iter().map(|(_, t)| t.tasks.len() as u64).sum();
                    if tasks + n > FUZZ_TASKS * (kept + 1) / FUZZ_COUNT {
                        continue;
                    }
                    for (b, trace) in &traces {
                        files.push((format!("fuzz-{seed}-{id:04}.{b}.lsrtrace"), serialize(trace)));
                    }
                    (kept, tasks) = (kept + 1, tasks + n);
                }
                files
            }
        }
    }

    /// The extraction configuration the CLI invocation of this workload
    /// uses for the file `name`.
    pub fn config(self, name: &str) -> Config {
        match self {
            Workload::Lulesh | Workload::Lassen => Config::charm(),
            // `--mpi --no-process-order`, as for the paper's Fig. 10.
            Workload::Mergetree => Config::mpi().with_process_order(false),
            Workload::Fuzz => backend_config(name),
        }
    }
}

/// `Config::mpi()` for a `.mpi.` trace, `Config::charm()` otherwise (the
/// fuzz exporter names every file after the backend that rendered it).
pub fn backend_config(name: &str) -> Config {
    if name.contains(".mpi.") {
        Config::mpi()
    } else {
        Config::charm()
    }
}

/// Fig. 19 scale: 10×10×10 chares on 8 PEs, 8 iterations.
fn lulesh_params(seed: u64) -> LuleshParams {
    LuleshParams { seed, ..LuleshParams::scaling(10, 8) }
}

/// Fig. 10 at 32× the paper's rank count.
fn mergetree_params(seed: u64) -> MergeTreeParams {
    MergeTreeParams { ranks: 32_768, seed, base: Dur::from_micros(100), skew: 3.0 }
}

/// The 64-chare LASSEN set-up on a 32×32 grid for 8 iterations.
fn lassen_params(seed: u64) -> LassenParams {
    LassenParams { gx: 32, gy: 32, iters: 8, seed, ..LassenParams::chares64() }
}

/// `trace` in the text log format.
pub fn serialize(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    logfmt::write_log(trace, &mut out).expect("writing to memory cannot fail");
    out
}

/// The trace files of a generated workload, sorted by name so every
/// worker visits them in the same order.
pub fn trace_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?.path();
        if path.extension().is_some_and(|x| x == "lsrtrace") {
            files.push(path);
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("no .lsrtrace files in {}", dir.display()));
    }
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr::core::TraceModel;

    #[test]
    fn backend_suffix_selects_the_config() {
        assert_eq!(backend_config("fuzz-3-0007.mpi.lsrtrace").model, TraceModel::MessagePassing);
        assert_eq!(backend_config("fuzz-3-0007.charm.lsrtrace").model, TraceModel::TaskBased);
        assert_eq!(Workload::Fuzz.config("x.mpi.lsrtrace").model, TraceModel::MessagePassing);
        let mt = Workload::Mergetree.config("mergetree.lsrtrace");
        assert_eq!(mt.model, TraceModel::MessagePassing);
        assert!(!mt.mp_process_order);
        assert_eq!(Workload::Lulesh.config("lulesh.lsrtrace").model, TraceModel::TaskBased);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }
}

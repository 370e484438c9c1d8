//! The closed loop: set up a workload, then run every command over it in
//! worker processes, one at a time, and check each result against the
//! first round's.

use crate::command::{fnv1a, Command};
use crate::layers::{layer_metrics, Metric, Totals};
use crate::stats::Summary;
use crate::worker::{spawn, WorkerRun};
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How much to run. After the set-up and one untimed warm-up round come
/// the untraced rounds, then the traced rounds. Each kind repeats at
/// least its round count and keeps going while fewer than its seconds
/// have passed since the warm-up started.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Times the set-up runs; `setup_s` is their median.
    pub setups: usize,
    /// Untraced timed rounds.
    pub rounds: usize,
    /// See [`Plan`].
    pub seconds: f64,
    /// Traced rounds.
    pub traced_rounds: usize,
    /// See [`Plan`].
    pub traced_seconds: f64,
}

/// Everything one workload's run measured.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Set-up times.
    pub setup_s: Vec<f64>,
    /// Operations run: files × commands × reps, warm-up and traced
    /// reps included.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Untraced wall time per command, one sample per timed round.
    pub wall_s: BTreeMap<&'static str, Vec<f64>>,
    /// Untraced peak memory per command, one sample per timed round.
    pub rss_mb: BTreeMap<&'static str, Vec<f64>>,
    /// One map per traced round.
    pub traced: Vec<BTreeMap<&'static str, Totals>>,
    /// The warm-up round's report per command: the reference digests,
    /// diagnostic codes and exit statuses.
    pub reference: BTreeMap<&'static str, WorkerRun>,
}

/// Occurrences per key.
pub type Histogram = BTreeMap<String, u64>;

/// Failure messages kept per workload.
const MAX_FAILURE_NOTES: usize = 16;

/// Where a workload is generated: `target/lsr-benchmark/<seed>/<name>`
/// under the current directory.
pub fn workload_dir(w: Workload, seed: u64) -> PathBuf {
    Path::new("target").join("lsr-benchmark").join(seed.to_string()).join(w.name())
}

/// Sets up `w` from `seed` and runs `plan` over it, then deletes the
/// generated files. The set-up is timed in memory and the files are
/// written afterwards: on a 2-vCPU VM with ext4, file system commits made
/// the write time vary threefold from run to run.
/// An `Err` means the files could not be written or removed; failed
/// operations are counted in the measurement instead.
pub fn measure(w: Workload, seed: u64, plan: Plan) -> Result<Measurement, String> {
    let dir = workload_dir(w, seed);
    let mut m = Measurement::default();
    let mut generated = Vec::new();
    for _ in 0..plan.setups.max(1) {
        drop(std::mem::take(&mut generated));
        let start = Instant::now();
        generated = w.generate(seed);
        m.setup_s.push(start.elapsed().as_secs_f64());
    }
    clear(&dir)?;
    let err = |e: std::io::Error| format!("cannot write {}: {e}", dir.display());
    std::fs::create_dir_all(&dir).map_err(err)?;
    for (name, bytes) in &generated {
        std::fs::write(dir.join(name), bytes).map_err(err)?;
    }
    let files = generated.len() as u64;
    drop(generated);

    let start = Instant::now();
    let running = |n: usize, rounds: usize, seconds: f64| {
        n < rounds || (rounds > 0 && start.elapsed().as_secs_f64() < seconds)
    };
    m.round(w, &dir, files, false);
    let mut n = 0;
    while running(n, plan.rounds, plan.seconds) {
        for (cmd, run) in m.round(w, &dir, files, false) {
            m.wall_s.entry(cmd).or_default().push(run.totals.wall_s);
            m.rss_mb.entry(cmd).or_default().push(run.vmhwm_kb as f64 / 1024.0);
        }
        n += 1;
    }
    let mut n = 0;
    while running(n, plan.traced_rounds, plan.traced_seconds) {
        let round = m.round(w, &dir, files, true);
        m.traced.push(round.into_iter().map(|(cmd, run)| (cmd, run.totals)).collect());
        n += 1;
    }
    clear(&dir)?;
    // The seed directory goes too, unless another workload still uses it.
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    Ok(m)
}

/// Deletes `dir` if it exists and waits until the file system has
/// committed the deletion (an `fsync` of the parent directory), so the
/// commit does not land in the next run's timed rounds.
fn clear(dir: &Path) -> Result<(), String> {
    if !dir.exists() {
        return Ok(());
    }
    let err = |e: std::io::Error| format!("cannot remove {}: {e}", dir.display());
    std::fs::remove_dir_all(dir).map_err(err)?;
    let parent = dir.parent().expect("a workload directory has a parent");
    std::fs::File::open(parent).and_then(|d| d.sync_all()).map_err(err)
}

impl Measurement {
    /// Runs every command once, in order, and checks each result. Returns
    /// the runs that completed, whatever their checks said.
    fn round(
        &mut self,
        w: Workload,
        dir: &Path,
        files: u64,
        traced: bool,
    ) -> Vec<(&'static str, WorkerRun)> {
        let mut done = Vec::new();
        for cmd in Command::ALL {
            self.attempted += files;
            match spawn(w, dir, cmd, traced) {
                Ok(run) => {
                    let bad = self.check(cmd, &run, files);
                    self.failed += bad;
                    done.push((cmd.name(), run));
                }
                Err(e) => {
                    self.failed += files;
                    self.note(e);
                }
            }
        }
        done
    }

    /// Counts the files of `run` that fail a check: an error, a digest
    /// that differs from the first round's, or (for `extract_t2`) a
    /// structure that differs from the threads-1 extraction's.
    fn check(&mut self, cmd: Command, run: &WorkerRun, files: u64) -> u64 {
        if run.files.len() as u64 != files {
            self.note(format!("{}: {} results for {files} files", cmd.name(), run.files.len()));
            return files;
        }
        self.reference.entry(cmd.name()).or_insert_with(|| run.clone());
        let reference = &self.reference[cmd.name()];
        let serial = self.reference.get(Command::Extract.name());
        let problems: Vec<String> = run
            .files
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let problem = if let Some(e) = &f.error {
                    e.clone()
                } else if f.digest != reference.files[i].digest {
                    "report digest differs from the first round's".to_owned()
                } else if cmd == Command::ExtractT2
                    && serial.map(|s| &s.files[i].structure) != Some(&f.structure)
                {
                    "threads-2 structure differs from threads-1".to_owned()
                } else {
                    return None;
                };
                Some(format!("{} file #{i}: {problem}", cmd.name()))
            })
            .collect();
        let bad = problems.len() as u64;
        for p in problems {
            self.note(p);
        }
        bad
    }

    fn note(&mut self, msg: String) {
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(msg);
        }
    }

    /// The end-to-end metrics: `setup_s`, one `<command>_s` per command
    /// and `peak_rss_mb`, each with all its samples.
    pub fn end_to_end(&self) -> Vec<(String, Summary, &'static str)> {
        let mut out = vec![("setup_s".to_owned(), Summary::of(&self.setup_s), "s")];
        for cmd in Command::ALL {
            if let Some(s) = self.wall_s.get(cmd.name()) {
                out.push((format!("{}_s", cmd.name()), Summary::of(s), "s"));
            }
        }
        let rounds = self.rss_mb.values().map(Vec::len).min().unwrap_or(0);
        let peak: Vec<f64> =
            (0..rounds).map(|r| self.rss_mb.values().map(|v| v[r]).fold(0.0, f64::max)).collect();
        if !peak.is_empty() {
            out.push(("peak_rss_mb".to_owned(), Summary::of(&peak), "MB"));
        }
        out
    }

    /// The per-layer metrics: the median over the traced rounds of each.
    pub fn per_layer(&self) -> Vec<Metric> {
        let median = |v: Option<&Vec<f64>>| v.map_or(0.0, |v| Summary::of(v).median);
        let rss: BTreeMap<&'static str, f64> =
            Command::ALL.iter().map(|c| (c.name(), median(self.rss_mb.get(c.name())))).collect();
        let extract_s = median(self.wall_s.get(Command::Extract.name()));
        let rounds: Vec<Vec<Metric>> =
            self.traced.iter().map(|t| layer_metrics(t, &rss, extract_s)).collect();
        let Some(first) = rounds.first() else { return Vec::new() };
        first
            .iter()
            .enumerate()
            .map(|(i, (name, _, unit))| {
                let values: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
                (name.clone(), Summary::of(&values).median, *unit)
            })
            .collect()
    }

    /// Per command, the median share of its traced wall time that the
    /// layer spans cover.
    pub fn coverage(&self) -> Vec<(&'static str, f64)> {
        Command::ALL
            .iter()
            .filter_map(|c| {
                let v: Vec<f64> = self
                    .traced
                    .iter()
                    .filter_map(|t| t.get(c.name()))
                    .map(Totals::coverage)
                    .collect();
                (!v.is_empty()).then(|| (c.name(), Summary::of(&v).median))
            })
            .collect()
    }

    /// Per command, one digest over all its files' report digests.
    pub fn digests(&self) -> Vec<(&'static str, String)> {
        self.reference
            .iter()
            .map(|(cmd, run)| {
                let all: String = run.files.iter().map(|f| f.digest.as_str()).collect();
                (*cmd, format!("{:016x}", fnv1a(all.as_bytes())))
            })
            .collect()
    }

    /// Per command, how often each diagnostic code and each exit status
    /// occurs over the workload's files, in the first round.
    pub fn diagnostics(&self) -> Vec<(&'static str, Histogram, Histogram)> {
        self.reference
            .iter()
            .map(|(cmd, run)| {
                let mut codes = BTreeMap::new();
                let mut exits = BTreeMap::new();
                for f in run.files.iter().filter(|f| f.error.is_none()) {
                    for c in &f.codes {
                        *codes.entry(c.clone()).or_insert(0) += 1;
                    }
                    *exits.entry(f.exit.to_string()).or_insert(0) += 1;
                }
                (*cmd, codes, exits)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::FileResult;

    fn run(digests: &[&str], structures: &[&str]) -> WorkerRun {
        let files = digests
            .iter()
            .enumerate()
            .map(|(i, d)| FileResult {
                digest: (*d).to_owned(),
                structure: structures.get(i).map(|s| (*s).to_owned()),
                error: None,
                codes: Vec::new(),
                exit: 0,
            })
            .collect();
        WorkerRun { vmhwm_kb: 1, files, totals: Totals::default() }
    }

    #[test]
    fn changed_digests_thread_mismatches_and_errors_fail_their_files() {
        let mut m = Measurement::default();
        assert_eq!(m.check(Command::Extract, &run(&["a", "b"], &["s", "t"]), 2), 0);
        assert_eq!(m.check(Command::Extract, &run(&["a", "x"], &["s", "t"]), 2), 1);
        assert_eq!(m.check(Command::ExtractT2, &run(&["c", "d"], &["s", "u"]), 2), 1);
        assert_eq!(m.check(Command::Races, &run(&["e"], &[]), 2), 2);
        let mut errored = run(&["f", "g"], &[]);
        errored.files[0].error = Some("panic: boom".to_owned());
        assert_eq!(m.check(Command::Lint, &errored, 2), 1);
        assert_eq!(m.failures.len(), 4);
        assert!(m.failures[1].contains("threads-2 structure differs"), "{:?}", m.failures);
    }
}

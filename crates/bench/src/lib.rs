//! # lsr-bench
//!
//! Shared plumbing for the figure-regeneration binaries (`fig*`,
//! `abl_*`, `exp_*`) and the Criterion benches. Every binary prints the
//! series the corresponding paper figure reports and drops SVG/text
//! artifacts into `bench_out/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Directory the figure binaries write artifacts into (created on
/// demand): `<workspace>/bench_out`.
pub fn out_dir() -> PathBuf {
    let dir = std::env::var_os("LSR_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_out"));
    std::fs::create_dir_all(&dir).expect("create bench_out");
    dir
}

/// Writes an artifact file and prints where it went.
pub fn write_artifact(name: &str, content: &str) {
    let path = out_dir().join(name);
    std::fs::write(&path, content).expect("write artifact");
    println!("  wrote {}", path.display());
}

/// True when the full paper-scale sweeps were requested
/// (`LSR_FULL=1`); binaries default to faster, smaller sweeps.
pub fn full_scale() -> bool {
    std::env::var("LSR_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Times a closure, returning (result, wall time).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Best-of-N timing, returning the fastest run's result and time: the
/// workloads are deterministic, so the minimum is the least-noisy
/// estimate of the cost.
pub fn best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
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

/// Prints a header for a figure reproduction.
pub fn banner(fig: &str, what: &str) {
    println!("================================================================");
    println!("{fig}: {what}");
    println!("================================================================");
}

/// Formats a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// A least-squares slope of log(y) vs log(x): ~1.0 means linear
/// scaling, ~2.0 quadratic. Used by the Fig. 18/19 harnesses to report
/// the scaling exponent.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(x, y)| x > 0.0 && y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loglog_slope_detects_linear_and_quadratic() {
        let linear: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, 3.0 * i as f64)).collect();
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-9);
        let quad: Vec<(f64, f64)> = (1..10).map(|i| (i as f64, (i * i) as f64)).collect();
        assert!((loglog_slope(&quad) - 2.0).abs() < 1e-9);
        assert_eq!(loglog_slope(&[(1.0, 1.0)]), 0.0);
    }

    #[test]
    fn timed_returns_result() {
        let (v, d) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn secs_formats() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500s");
    }
}

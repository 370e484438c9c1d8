//! Fuzz corpus: generate a small seeded scenario sweep, run every
//! trace through the differential oracle stack, and print a per-motif
//! census of what the compositions exercised.
//!
//! ```sh
//! cargo run --release --example fuzz_corpus
//! ```

use lsr::fuzz::{run_fuzz, FuzzParams, Motif};
use lsr::obs::Recorder;

fn main() {
    let rec = Recorder::enabled();
    let params = FuzzParams { seed: 1, count: 12, ..FuzzParams::default() };
    let outcomes = run_fuzz(&params, &rec);

    let mut by_motif = vec![0u32; Motif::ALL.len()];
    let mut failures = 0usize;
    for o in &outcomes {
        println!(
            "scenario {:>2} [{}x{} grid, {} pe, {} round(s)] {:<24} {:>5} tasks {:>5} msgs on {:<5} -> {}",
            o.scenario.id,
            o.scenario.x,
            o.scenario.y,
            o.scenario.pes,
            o.scenario.rounds,
            o.scenario.motifs.iter().map(|m| m.name()).collect::<Vec<_>>().join("+"),
            o.tasks,
            o.msgs,
            o.backend.name(),
            match &o.failure {
                None => "ok".to_string(),
                Some(f) => f.to_string(),
            },
        );
        for m in &o.scenario.motifs {
            by_motif[Motif::ALL.iter().position(|x| x == m).unwrap()] += 1;
        }
        failures += usize::from(o.failure.is_some());
    }

    println!("\nmotif census (scenario x backend occurrences):");
    for (m, n) in Motif::ALL.iter().zip(&by_motif) {
        println!("  {:<10} {n}", m.name());
    }
    for (name, value) in rec.counters() {
        if name.starts_with("fuzz.") {
            println!("  {name} = {value}");
        }
    }
    assert_eq!(failures, 0, "the seeded corpus must pass the oracle stack");
    println!("\nall {} trace(s) passed the 3-rung differential oracle", outcomes.len());
}

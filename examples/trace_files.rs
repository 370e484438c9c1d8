//! Working with trace files: write a run to the Projections-style text
//! log, read it back, check its §7.1 quality score, and analyze it —
//! the post-mortem workflow a downstream user would follow.
//!
//! ```sh
//! cargo run --release --example trace_files
//! ```

use lsr::apps::{lulesh_charm, LuleshParams};
use lsr::core::{extract, Config};
use lsr::trace::{logfmt, QualityReport, ReadOptions, TraceStats};

fn main() {
    // 1. Produce a trace (in reality: collected from a traced run).
    let trace = lulesh_charm(&LuleshParams::fig16_charm());

    // 2. Persist it in the text log format.
    let dir = std::env::temp_dir().join("lsr_example");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("lulesh.lsrtrace");
    let file = std::fs::File::create(&path).expect("create file");
    logfmt::write_log(&trace, std::io::BufWriter::new(file)).expect("write log");
    let bytes = std::fs::metadata(&path).expect("stat").len();
    println!("wrote {} ({bytes} bytes)", path.display());

    // 3. Read it back, as an analysis tool would.
    let file = std::fs::File::open(&path).expect("open file");
    let (loaded, _) = logfmt::read_log(std::io::BufReader::new(file), &ReadOptions::default())
        .expect("parse log");
    assert_eq!(trace, loaded);
    println!("\ntrace statistics:\n{}", TraceStats::compute(&loaded));

    // 4. How complete is the recorded control flow? (§7.1 guidelines)
    let quality = QualityReport::analyze(&loaded);
    println!("\n{quality}");

    // 5. Recover and summarize the logical structure.
    let ls = extract(&loaded, &Config::charm());
    ls.verify(&loaded).expect("invariants");
    println!("\n{}", ls.summary(&loaded));

    std::fs::remove_file(&path).ok();
}

//! Self-contained HTML analysis reports: summary, both views as inline
//! SVG, and metric tables — the artifact a performance analyst would
//! pass around.

use crate::layout::Layout;
use crate::svg::{write_logical, write_physical, Coloring};
use lsr_core::LogicalStructure;
use lsr_metrics::{idle_experienced, per_pe_totals, CriticalPath, DifferentialDuration, Imbalance};
use lsr_trace::{QualityReport, Trace, TraceStats};
use std::fmt::{self, Write};

/// Escapes text for embedding into HTML.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// Builds a single-file HTML report for a trace and its recovered
/// structure. Everything (SVGs, tables) is inlined; no external assets.
pub fn html_report(title: &str, trace: &Trace, ls: &LogicalStructure) -> String {
    // Three views at 110–125 bytes per task rect: reserving them once
    // spares regrowing (and copying) a buffer of tens of megabytes.
    let mut h = String::with_capacity(3 * 128 * trace.tasks.len() + 64 * 1024);
    write_html_report(&mut h, title, trace, ls).expect("writing into a String cannot fail");
    h
}

/// [`html_report`] into a sink: the three views are written straight
/// into `h`, on one shared [`Layout`], so a caller that streams to a
/// file never holds the whole document.
pub fn write_html_report(
    h: &mut impl Write,
    title: &str,
    trace: &Trace,
    ls: &LogicalStructure,
) -> fmt::Result {
    let stats = TraceStats::compute(trace);
    let quality = QualityReport::analyze(trace);
    let idle = idle_experienced(trace);
    let idle_totals = per_pe_totals(trace, &idle);
    let dd = DifferentialDuration::compute(trace, ls);
    let imb = Imbalance::compute(trace, ls);
    let cp = CriticalPath::compute(trace);
    let dd_values: Vec<f64> = dd.per_event.iter().map(|d| d.nanos() as f64).collect();

    write!(
        h,
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>{t}</title>\n<style>\n\
         body{{font-family:system-ui,sans-serif;margin:2em auto;max-width:1060px;color:#222}}\n\
         h1{{border-bottom:2px solid #444}} h2{{margin-top:1.6em}}\n\
         table{{border-collapse:collapse;margin:0.6em 0}}\n\
         td,th{{border:1px solid #bbb;padding:0.25em 0.7em;text-align:right}}\n\
         th{{background:#eee}} td:first-child,th:first-child{{text-align:left}}\n\
         pre{{background:#f6f6f6;padding:0.8em;overflow-x:auto}}\n\
         .svgbox{{border:1px solid #ccc;overflow-x:auto;margin:0.5em 0}}\n\
         </style></head><body>\n<h1>{t}</h1>\n",
        t = esc(title)
    )?;

    // Summary.
    writeln!(
        h,
        "<h2>Trace</h2><pre>{}</pre><pre>{}</pre>",
        esc(&stats.to_string()),
        esc(&quality.to_string())
    )?;

    // Structure.
    writeln!(h, "<h2>Logical structure</h2><pre>{}</pre>", esc(&ls.summary(trace)))?;
    writeln!(
        h,
        "<h3>Per-phase profile</h3><pre>{}</pre>",
        esc(&lsr_metrics::profile_table(trace, ls, &imb))
    )?;
    let layout = Layout::new(trace);
    h.write_str("<h3>Logical time (colored by phase)</h3><div class=\"svgbox\">")?;
    write_logical(h, trace, ls, &layout, &Coloring::Phase)?;
    h.write_str("</div>\n<h3>Physical time (colored by phase)</h3><div class=\"svgbox\">")?;
    write_physical(h, trace, ls, &layout, &Coloring::Phase)?;
    h.write_str("</div>\n<h3>Logical time (differential duration)</h3><div class=\"svgbox\">")?;
    write_logical(h, trace, ls, &layout, &Coloring::Metric(dd_values))?;
    h.write_str("</div>\n")?;

    // Metrics tables.
    h.write_str(
        "<h2>Metrics</h2>\n<h3>Idle experienced per PE</h3><table>\
                <tr><th>PE</th><th>idle experienced</th></tr>\n",
    )?;
    for (pe, d) in idle_totals.iter().enumerate() {
        writeln!(h, "<tr><td>pe{pe}</td><td>{d}</td></tr>")?;
    }
    h.write_str("</table>\n")?;

    h.write_str(
        "<h3>Top differential durations</h3><table>\
         <tr><th>event</th><th>step</th><th>chare</th><th>excess</th></tr>\n",
    )?;
    for (e, d) in dd.outliers(lsr_trace::Dur(1)).into_iter().take(12) {
        let c = trace.chare(trace.event_chare(e));
        writeln!(
            h,
            "<tr><td>{e}</td><td>{}</td><td>{}[{}]</td><td>{d}</td></tr>",
            ls.global_step(e),
            esc(&trace.array(c.array).name),
            c.index
        )?;
    }
    h.write_str("</table>\n")?;

    h.write_str(
        "<h3>Imbalance per phase</h3><table>\
         <tr><th>phase</th><th>kind</th><th>leap</th><th>max − min load</th></tr>\n",
    )?;
    for &p in &ls.phases_by_offset() {
        let ph = &ls.phases[p as usize];
        writeln!(
            h,
            "<tr><td>{p}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            if ph.is_runtime { "runtime" } else { "app" },
            ph.leap,
            imb.per_phase[p as usize]
        )?;
    }
    write!(
        h,
        "</table>\n<p>overall PE imbalance: <b>{}</b>; critical path: {} tasks, \
         {} work over {} makespan (ratio {:.2}).</p>\n",
        imb.overall(),
        cp.tasks.len(),
        cp.work,
        cp.makespan,
        cp.work_ratio()
    )?;

    h.write_str("</body></html>\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_core::Config;

    #[test]
    fn report_is_self_contained_html() {
        let tr = lsr_apps::jacobi2d(&lsr_apps::JacobiParams::fig15());
        let ls = lsr_core::extract(&tr, &Config::charm());
        let html = html_report("Jacobi fig15", &tr, &ls);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.trim_end().ends_with("</html>"));
        assert!(html.matches("<svg").count() == 3, "three embedded views");
        assert!(html.contains("Idle experienced"));
        assert!(html.contains("Imbalance per phase"));
        assert!(html.contains("critical path"));
        assert!(!html.contains("src="), "no external assets");
    }

    #[test]
    fn titles_are_escaped() {
        let tr = lsr_apps::jacobi2d(&lsr_apps::JacobiParams {
            iters: 1,
            ..lsr_apps::JacobiParams::fig15()
        });
        let ls = lsr_core::extract(&tr, &Config::charm());
        let html = html_report("<script>alert(1)</script>", &tr, &ls);
        assert!(!html.contains("<script>"));
        assert!(html.contains("&lt;script&gt;"));
    }
}

//! SVG renderings: publication-style logical-structure and physical
//! timelines with per-phase or per-metric coloring.
//!
//! Every view writes into a caller's [`fmt::Write`] sink, so a report
//! holds one buffer (or streams to a file) rather than one `String` per
//! view. A task rect costs a few appends: its row is a dense [`Layout`]
//! lookup, its phase colour comes from a palette built once per view,
//! and its coordinates go through [`write_fixed`], an exact fixed-point
//! writer that is byte-identical to `{:.N}`.

use crate::layout::Layout;
use lsr_core::{LogicalStructure, NO_PHASE};
use lsr_trace::{TaskId, Trace};
use std::fmt::{self, Write};

/// How task rectangles are colored.
#[derive(Debug, Clone)]
pub enum Coloring {
    /// Hue derived from the phase id (golden-angle spacing).
    Phase,
    /// Heat color from a per-event value, normalized to the maximum.
    /// Tasks take the maximum value over their events.
    Metric(Vec<f64>),
}

const ROW_H: f64 = 12.0;
/// `ROW_H` as `{}` prints it, for the per-rect writer.
const ROW_H_TEXT: &str = "12";
const ROW_GAP: f64 = 2.0;
const WIDTH: f64 = 960.0;
const MARGIN: f64 = 4.0;
/// Width reserved for lane labels on the left.
const LABEL_W: f64 = 90.0;

fn phase_color(p: u32) -> String {
    let hue = (p as f64 * 137.508) % 360.0;
    format!("hsl({hue:.1},65%,55%)")
}

/// One colour per id in `0..n`, built once per view.
fn palette(n: usize) -> Vec<String> {
    (0..n as u32).map(phase_color).collect()
}

/// The white → orange → red ramp's green and blue channels.
fn metric_rgb(v: f64) -> (u8, u8) {
    let v = v.clamp(0.0, 1.0);
    ((220.0 - 170.0 * v) as u8, (200.0 * (1.0 - v)) as u8)
}

/// Writes `rgb(235,g,b)` for a normalized metric value.
fn write_metric_color(out: &mut impl Write, v: f64) -> fmt::Result {
    let (g, b) = metric_rgb(v);
    out.write_str("rgb(235,")?;
    write_digits(out, u64::from(g), 0)?;
    out.write_char(',')?;
    write_digits(out, u64::from(b), 0)?;
    out.write_char(')')
}

/// `2^53`: from here on not every integer is an `f64`, and the exact
/// scaled value of `v` could overflow [`write_fixed`]'s arithmetic.
const FIXED_LIMIT: f64 = 9_007_199_254_740_992.0;

/// Writes `v` with `decimals` (≤ 3) digits after the point,
/// byte-identical to `write!(out, "{v:.decimals$}")`.
///
/// Like `fmt`, it rounds the exact binary value half to even. Writing
/// `v = m · 2^e` with an integer mantissa `m < 2^53`, it computes
/// `m · 10^decimals` exactly in `u128`, shifts it right by `−e` and
/// rounds on the shifted-out remainder. Negative, non-finite and
/// `≥ 2^53` values go through `fmt`.
pub(crate) fn write_fixed(out: &mut impl Write, v: f64, decimals: u32) -> fmt::Result {
    debug_assert!(decimals <= 3, "v · 10^decimals must fit a u64");
    if v.is_sign_negative() || v.is_nan() || v >= FIXED_LIMIT {
        return write!(out, "{v:.*}", decimals as usize);
    }
    let bits = v.to_bits();
    let biased = (bits >> 52) as i32; // the sign bit is clear
    let frac = bits & ((1 << 52) - 1);
    let (mantissa, exp) = if biased == 0 { (frac, -1074) } else { (frac | 1 << 52, biased - 1075) };
    let scaled = u128::from(mantissa) * u128::from(10u64.pow(decimals));
    // `v < 2^53` with a 53-bit mantissa: `exp ≤ 0`.
    let shift = exp.unsigned_abs();
    let n = if shift == 0 {
        scaled
    } else if shift >= 128 {
        0 // `scaled < 2^63`: far below half a unit
    } else {
        let (q, r) = (scaled >> shift, scaled & ((1u128 << shift) - 1));
        let half = 1u128 << (shift - 1);
        q + u128::from(r > half || (r == half && q & 1 == 1))
    };
    write_digits(out, n as u64, decimals)
}

/// Writes `n / 10^decimals` with exactly `decimals` fraction digits.
fn write_digits(out: &mut impl Write, mut n: u64, decimals: u32) -> fmt::Result {
    let mut buf = [0u8; 24];
    let mut i = buf.len();
    for _ in 0..decimals {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    if decimals > 0 {
        i -= 1;
        buf[i] = b'.';
    }
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"))
}

/// Runs a writer into a fresh `String`.
pub(crate) fn to_string(write: impl FnOnce(&mut String) -> fmt::Result) -> String {
    let mut out = String::new();
    write(&mut out).expect("writing into a String cannot fail");
    out
}

/// Renders the logical-structure view as an SVG document.
pub fn logical_svg(trace: &Trace, ls: &LogicalStructure, coloring: &Coloring) -> String {
    to_string(|out| write_logical(out, trace, ls, &Layout::new(trace), coloring))
}

/// Renders the physical-time view as an SVG document.
pub fn physical_svg(trace: &Trace, ls: &LogicalStructure, coloring: &Coloring) -> String {
    to_string(|out| write_physical(out, trace, ls, &Layout::new(trace), coloring))
}

/// Renders the migration view the paper's §9 future work asks for:
/// chare lanes over physical time, with each task colored by the PE
/// that executed it — a migrating chare's lane visibly changes color
/// where the load balancer moved it.
pub fn migration_svg(trace: &Trace) -> String {
    to_string(|out| write_migration(out, trace, &Layout::new(trace)))
}

/// [`logical_svg`] into a sink, on a caller's layout.
pub(crate) fn write_logical(
    out: &mut impl Write,
    trace: &Trace,
    ls: &LogicalStructure,
    layout: &Layout,
    coloring: &Coloring,
) -> fmt::Result {
    let steps = ls.max_step() as f64 + 1.0;
    render(out, trace, layout, coloring, ls, |t| {
        ls.task_step_range(trace, t).map(|(lo, hi)| {
            let x0 = lo as f64 / steps * WIDTH;
            let x1 = (hi as f64 + 1.0) / steps * WIDTH;
            (x0, x1)
        })
    })
}

/// [`physical_svg`] into a sink, on a caller's layout.
pub(crate) fn write_physical(
    out: &mut impl Write,
    trace: &Trace,
    ls: &LogicalStructure,
    layout: &Layout,
    coloring: &Coloring,
) -> fmt::Result {
    let (begin, end) = trace.span();
    let span = ((end.nanos() - begin.nanos()) as f64).max(1.0);
    render(out, trace, layout, coloring, ls, |t| {
        let task = trace.task(t);
        let x0 = (task.begin.nanos() - begin.nanos()) as f64 / span * WIDTH;
        let x1 = (task.end.nanos() - begin.nanos()) as f64 / span * WIDTH;
        Some((x0, x1.max(x0 + 0.5)))
    })
}

/// [`migration_svg`] into a sink, on a caller's layout.
pub(crate) fn write_migration(out: &mut impl Write, trace: &Trace, layout: &Layout) -> fmt::Result {
    let (begin, end) = trace.span();
    let span = ((end.nanos() - begin.nanos()) as f64).max(1.0);
    header(out, layout)?;
    let pe_colors = palette(trace.pe_count as usize); // one hue per PE
    for t in &trace.tasks {
        let x0 = (t.begin.nanos() - begin.nanos()) as f64 / span * WIDTH;
        let x1 = (t.end.nanos() - begin.nanos()) as f64 / span * WIDTH;
        rect_head(out, layout.row(trace.task_lane(t.id)), x0, x1)?;
        out.write_str(&pe_colors[t.pe.index()])?;
        out.write_str(r##"" stroke="#333" stroke-width="0.3"><title>pe"##)?;
        write_digits(out, u64::from(t.pe.0), 0)?;
        out.write_str("</title></rect>\n")?;
    }
    out.write_str("</svg>\n")
}

/// The `<svg>` element, its white background and (when there are few
/// enough rows to read them) the lane labels.
fn header(out: &mut impl Write, layout: &Layout) -> fmt::Result {
    let height = layout.len() as f64 * (ROW_H + ROW_GAP) + 2.0 * MARGIN;
    let total_w = LABEL_W + WIDTH + 2.0 * MARGIN;
    writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" height="{height:.0}" viewBox="0 0 {total_w} {height:.0}">"#,
    )?;
    writeln!(out, r#"<rect width="100%" height="100%" fill="white"/>"#)?;
    if layout.len() <= 64 {
        for (row, label) in layout.labels.iter().enumerate() {
            let y = MARGIN + row as f64 * (ROW_H + ROW_GAP) + ROW_H - 2.5;
            writeln!(
                out,
                r##"<text x="{x:.1}" y="{y:.1}" font-size="9" font-family="monospace" text-anchor="end" fill="#444">{label}</text>"##,
                x = LABEL_W - 4.0,
            )?;
        }
    }
    Ok(())
}

/// A task rect up to its fill colour: `<rect x=… y=… width=… height=…
/// fill="`, for the extent `x0..x1` on display row `row`.
fn rect_head(out: &mut impl Write, row: usize, x0: f64, x1: f64) -> fmt::Result {
    out.write_str("<rect x=\"")?;
    write_fixed(out, LABEL_W + MARGIN + x0, 2)?;
    out.write_str("\" y=\"")?;
    write_fixed(out, MARGIN + row as f64 * (ROW_H + ROW_GAP), 1)?;
    out.write_str("\" width=\"")?;
    write_fixed(out, (x1 - x0).max(0.8), 2)?;
    out.write_str("\" height=\"")?;
    out.write_str(ROW_H_TEXT)?;
    out.write_str("\" fill=\"")
}

fn render(
    out: &mut impl Write,
    trace: &Trace,
    layout: &Layout,
    coloring: &Coloring,
    ls: &LogicalStructure,
    extent: impl Fn(TaskId) -> Option<(f64, f64)>,
) -> fmt::Result {
    let (phase_colors, metric_max) = match coloring {
        Coloring::Phase => (palette(ls.num_phases()), 0.0),
        Coloring::Metric(values) => (Vec::new(), values.iter().copied().fold(0.0f64, f64::max)),
    };
    header(out, layout)?;
    // A faint separator above the runtime lanes, as in the paper.
    if layout.runtime_start < layout.len() {
        let y = MARGIN + layout.runtime_start as f64 * (ROW_H + ROW_GAP) - ROW_GAP / 2.0;
        let total_w = LABEL_W + WIDTH + 2.0 * MARGIN;
        writeln!(
            out,
            r##"<line x1="0" y1="{y:.1}" x2="{total_w}" y2="{y:.1}" stroke="#888" stroke-dasharray="4 3"/>"##,
        )?;
    }
    for t in &trace.tasks {
        let Some((x0, x1)) = extent(t.id) else {
            continue;
        };
        rect_head(out, layout.row(trace.task_lane(t.id)), x0, x1)?;
        match coloring {
            Coloring::Phase => {
                let p = ls.phase_of_task(t.id);
                out.write_str(if p == NO_PHASE { "#cccccc" } else { &phase_colors[p as usize] })?;
            }
            Coloring::Metric(values) => {
                let v = t.events().map(|e| values[e.index()]).fold(0.0f64, f64::max);
                write_metric_color(out, if metric_max > 0.0 { v / metric_max } else { 0.0 })?;
            }
        }
        out.write_str("\" stroke=\"#333\" stroke-width=\"0.3\"/>\n")?;
    }
    out.write_str("</svg>\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsr_core::Config;

    fn sample() -> (Trace, LogicalStructure) {
        let tr = lsr_apps::jacobi2d(&lsr_apps::JacobiParams {
            chares_x: 2,
            chares_y: 2,
            pes: 2,
            iters: 1,
            seed: 3,
            compute: lsr_trace::Dur::from_micros(10),
            straggler: None,
        });
        let ls = lsr_core::extract(&tr, &Config::charm());
        (tr, ls)
    }

    #[test]
    fn logical_svg_is_well_formed() {
        let (tr, ls) = sample();
        let svg = logical_svg(&tr, &ls, &Coloring::Phase);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.matches("<rect").count() > tr.tasks.len() / 2);
        assert!(svg.contains("hsl("));
    }

    #[test]
    fn physical_svg_draws_every_task() {
        let (tr, ls) = sample();
        let svg = physical_svg(&tr, &ls, &Coloring::Phase);
        // Background rect + one per task.
        assert_eq!(svg.matches("<rect").count(), tr.tasks.len() + 1);
    }

    #[test]
    fn metric_coloring_uses_heat_ramp() {
        let (tr, ls) = sample();
        let mut values = vec![0.0; tr.events.len()];
        values[0] = 3.0;
        let svg = logical_svg(&tr, &ls, &Coloring::Metric(values));
        assert!(svg.contains("rgb(235,50,0)"), "max value is full heat");
        assert!(svg.contains("rgb(235,220,200)"), "zero value is pale");
    }

    #[test]
    fn migration_view_colors_by_pe() {
        let (tr, _ls) = sample();
        let svg = migration_svg(&tr);
        assert!(svg.starts_with("<svg"));
        // Every task rect carries its PE as a tooltip.
        assert_eq!(svg.matches("<title>pe").count(), tr.tasks.len());
        // Both PEs appear.
        assert!(svg.contains("<title>pe0</title>"));
        assert!(svg.contains("<title>pe1</title>"));
    }

    #[test]
    fn colors_are_deterministic() {
        assert_eq!(phase_color(0), phase_color(0));
        assert_ne!(phase_color(0), phase_color(1));
        assert_eq!(palette(3), vec![phase_color(0), phase_color(1), phase_color(2)]);
        assert_eq!(format!("{ROW_H}"), ROW_H_TEXT);
        for v in [-1.0, 0.0, 0.25, 0.5, 1.0 / 3.0, 0.999, 1.0, 2.0, f64::NAN] {
            let (g, b) = metric_rgb(v);
            let written = to_string(|out| write_metric_color(out, v));
            assert_eq!(written, format!("rgb(235,{g},{b})"), "v = {v}");
        }
    }

    /// `write_fixed(v, d)` against `format!("{v:.d$}")`.
    fn assert_fixed_matches(v: f64) {
        for d in 0..=2u32 {
            let want = format!("{v:.*}", d as usize);
            let got = to_string(|out| write_fixed(out, v, d));
            assert_eq!(got, want, "{v:e} ({:#018x}) at {d} decimals", v.to_bits());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(4096))]

        /// Uniform over the rendered range [0, 2^20], and arbitrary bit
        /// patterns (every sign, exponent, subnormal, NaN and infinity).
        #[test]
        fn fixed_writer_matches_fmt_on_random_values(
            unit in proptest::prelude::any::<u64>(),
            bits in proptest::prelude::any::<u64>(),
        ) {
            assert_fixed_matches((unit >> 11) as f64 / (1u64 << 53) as f64 * (1u64 << 20) as f64);
            assert_fixed_matches(f64::from_bits(bits));
        }
    }

    /// Every `k/8` and `k/16` is exact in binary, so each half-way case
    /// of `{:.2}` (and the quarter and half ties of `{:.1}`/`{:.0}`)
    /// hits the round-half-to-even branch.
    #[test]
    fn fixed_writer_matches_fmt_on_exact_ties() {
        for k in 0..100_000u32 {
            assert_fixed_matches(f64::from(k) / 8.0);
            assert_fixed_matches(f64::from(k) / 16.0);
        }
    }

    #[test]
    fn fixed_writer_matches_fmt_on_edge_values() {
        let limit = FIXED_LIMIT;
        let mut values = vec![
            0.0,
            -0.0,
            -0.004,
            -0.005,
            -1.5,
            -2.5,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            0.005,
            0.015,
            0.045,
            0.125,
            0.375,
            2.5,
            limit,
            limit * 2.0,
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Every representable value in the last few units below 2^53.
        let mut v = limit;
        for _ in 0..64 {
            v = f64::from_bits(v.to_bits() - 1);
            values.push(v);
            values.push(v / 1024.0);
        }
        for v in values {
            assert_fixed_matches(v);
        }
    }
}

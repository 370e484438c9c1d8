//! # lsr-render
//!
//! Terminal (ASCII) and SVG renderings of recovered logical structure
//! and physical timelines — the stand-in for the paper's Ravel /
//! Projections views. Application chares are drawn one lane each;
//! runtime chares are grouped per PE at the bottom, as in the paper's
//! figures. Both views can be colored by phase or by a per-event
//! metric (idle experienced, differential duration, imbalance).
//!
//! The SVG views and the HTML report render into one sink, any
//! [`std::fmt::Write`]: [`write_html_report`] writes its three views
//! straight into the caller's buffer (or file) on one shared
//! [`Layout`], and the `String`-returning functions are thin wrappers
//! over the same writers. Per view, the colours are built once (one
//! string per phase, or per PE for the migration view), so a task rect
//! costs a few appends and allocates nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ascii;
mod dot;
mod layout;
mod profile;
mod report;
mod svg;

pub use ascii::{logical_by_metric, logical_by_phase, physical_by_phase};
pub use dot::phase_dag_dot;
pub use layout::Layout;
pub use profile::profile_report;
pub use report::{html_report, write_html_report};
pub use svg::{logical_svg, migration_svg, physical_svg, Coloring};

//! Criterion benches for the simulators and individual pipeline costs:
//! trace generation, metric computation, report rendering, and
//! serialization round trips.

use criterion::{criterion_group, criterion_main, Criterion};
use lsr_apps::{jacobi2d, lassen_charm, lulesh_charm, JacobiParams, LassenParams, LuleshParams};
use lsr_core::{extract, Config};
use lsr_metrics::{idle_experienced, DifferentialDuration, Imbalance};

fn bench_simulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulators");
    group.sample_size(10);
    group.bench_function("jacobi_64c_2it", |b| {
        b.iter(|| jacobi2d(&JacobiParams::fig8()));
    });
    group.bench_function("lassen_64c_4it", |b| {
        b.iter(|| lassen_charm(&LassenParams::chares64()));
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.sample_size(10);
    let trace = lassen_charm(&LassenParams::chares64());
    let ls = extract(&trace, &Config::charm());
    group.bench_function("idle_experienced", |b| {
        b.iter(|| idle_experienced(&trace));
    });
    group.bench_function("differential_duration", |b| {
        b.iter(|| DifferentialDuration::compute(&trace, &ls));
    });
    group.bench_function("imbalance", |b| {
        b.iter(|| Imbalance::compute(&trace, &ls));
    });
    group.finish();
}

/// `lsr report`'s render path on fig19-scale LULESH (216 chares, 8
/// iterations): the whole HTML document and its two SVG views alone.
fn bench_render(c: &mut Criterion) {
    let mut group = c.benchmark_group("render");
    group.sample_size(10);
    let trace = lulesh_charm(&LuleshParams::scaling(6, 8));
    let ls = extract(&trace, &Config::charm());
    let coloring = lsr_render::Coloring::Phase;
    group.bench_function("html_report", |b| {
        b.iter(|| lsr_render::html_report("lulesh", &trace, &ls));
    });
    group.bench_function("logical_svg", |b| {
        b.iter(|| lsr_render::logical_svg(&trace, &ls, &coloring));
    });
    group.bench_function("physical_svg", |b| {
        b.iter(|| lsr_render::physical_svg(&trace, &ls, &coloring));
    });
    group.finish();
}

fn bench_storage_and_diff(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage_diff");
    group.sample_size(10);
    let trace = jacobi2d(&JacobiParams::fig8());
    let (t0, t1) = trace.span();
    group.bench_function("window_half", |b| {
        let mid = lsr_trace::Time((t0.nanos() + t1.nanos()) / 2);
        b.iter(|| lsr_trace::window(&trace, t0, mid));
    });
    let dir = std::env::temp_dir().join("lsr_bench_split");
    group.bench_function("multifile_roundtrip", |b| {
        b.iter(|| {
            lsr_trace::multifile::write_split(&trace, &dir, "bench").unwrap();
            lsr_trace::multifile::read_split(&dir, "bench", &Default::default()).unwrap()
        });
    });
    let ls = extract(&trace, &Config::charm());
    group.bench_function("structure_diff", |b| {
        b.iter(|| lsr_metrics::StructureDiff::compute(&trace, &ls, &trace, &ls));
    });
    group.finish();
    std::fs::remove_dir_all(std::env::temp_dir().join("lsr_bench_split")).ok();
}

fn bench_logfmt(c: &mut Criterion) {
    let mut group = c.benchmark_group("logfmt");
    group.sample_size(10);
    let trace = jacobi2d(&JacobiParams::fig8());
    let text = lsr_trace::logfmt::to_log_string(&trace);
    group.bench_function("write", |b| {
        b.iter(|| lsr_trace::logfmt::to_log_string(&trace));
    });
    group.bench_function("parse", |b| {
        b.iter(|| lsr_trace::logfmt::from_log_str(&text).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_simulators,
    bench_metrics,
    bench_render,
    bench_storage_and_diff,
    bench_logfmt
);
criterion_main!(benches);

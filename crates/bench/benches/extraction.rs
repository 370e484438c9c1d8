//! Criterion benches backing Figs. 18–19: logical-structure extraction
//! time as a function of iteration count and chare count, plus the
//! ordering-policy comparison.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsr_apps::{lulesh_charm, mergetree_mpi, LuleshParams, MergeTreeParams};
use lsr_core::{extract, Config};

fn bench_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig18_iterations");
    group.sample_size(10);
    for iters in [8u32, 16, 32] {
        let trace = lulesh_charm(&LuleshParams::scaling(4, iters));
        group.bench_with_input(BenchmarkId::from_parameter(iters), &trace, |b, tr| {
            b.iter(|| extract(tr, &Config::charm()));
        });
    }
    group.finish();
}

fn bench_chares(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig19_chares");
    group.sample_size(10);
    for side in [4u32, 6, 8] {
        let trace = lulesh_charm(&LuleshParams::scaling(side, 8));
        group.bench_with_input(BenchmarkId::from_parameter(side * side * side), &trace, |b, tr| {
            b.iter(|| extract(tr, &Config::charm()));
        });
    }
    group.finish();
}

fn bench_ordering_policy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ordering_policy");
    group.sample_size(10);
    let trace = mergetree_mpi(&MergeTreeParams::small());
    group.bench_function("reordered", |b| {
        b.iter(|| extract(&trace, &Config::mpi()));
    });
    group.bench_function("physical", |b| {
        b.iter(|| extract(&trace, &Config::mpi_baseline()));
    });
    group.finish();
}

criterion_group!(benches, bench_iterations, bench_chares, bench_ordering_policy);
criterion_main!(benches);

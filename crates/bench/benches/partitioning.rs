//! Benchmarks of the partitioning substrate: the multilevel (METIS-like)
//! partitioner, the baselines, and the full 2-level plan construction.

use criterion::{criterion_group, criterion_main, Criterion};
use hongtu_graph::Graph;
use hongtu_partition::multilevel::{best_of, metis_like};
use hongtu_partition::{simple::hash_partition, TwoLevelPartition};
use hongtu_tensor::SeededRng;
use std::hint::black_box;

fn graph(n: usize, deg: f64) -> Graph {
    let mut rng = SeededRng::new(2);
    hongtu_graph::generators::web_hybrid(n, deg, 0.9, 50.0, &mut rng)
}

fn bench_partitioners(c: &mut Criterion) {
    let g = graph(20_000, 8.0);
    c.bench_function("multilevel/20k-4parts", |b| {
        b.iter(|| black_box(metis_like(&g, 4, 1)))
    });
    c.bench_function("multilevel/20k-64parts", |b| {
        b.iter(|| black_box(metis_like(&g, 64, 1)))
    });
    c.bench_function("hash/20k-64parts", |b| {
        b.iter(|| black_box(hash_partition(g.num_vertices(), 64)))
    });
}

fn bench_two_level(c: &mut Criterion) {
    let g = graph(20_000, 8.0);
    c.bench_function("two_level_build/20k-4x8", |b| {
        b.iter(|| black_box(TwoLevelPartition::build(&g, 4, 8, 1)))
    });
    c.bench_function("two_level_build/20k-4x32", |b| {
        b.iter(|| black_box(TwoLevelPartition::build(&g, 4, 32, 1)))
    });
}

/// The OPR proxy's generator parameters (`hongtu-datasets`' registry), at
/// full size: 240k vertices, where coarsening dominates the partitioner.
fn bench_partitioners_at_scale(c: &mut Criterion) {
    let mut rng = SeededRng::new(2);
    let g = hongtu_graph::generators::web_hybrid(240_000, 8.0, 0.82, 2500.0, &mut rng);
    c.bench_function("multilevel/opr-240k-4parts", |b| {
        b.iter(|| black_box(metis_like(&g, 4, 1)))
    });
    c.bench_function("best_of/opr-240k-4parts", |b| {
        b.iter(|| black_box(best_of(&g, 4, 1)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partitioners, bench_two_level
}
criterion_group! {
    name = at_scale;
    config = Criterion::default().sample_size(3);
    targets = bench_partitioners_at_scale
}
criterion_main!(benches, at_scale);

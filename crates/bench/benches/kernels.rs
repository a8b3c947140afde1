//! Criterion micro-benchmarks for the computational kernels under the
//! estimators: BFS, biconnected decomposition, and each reduction pass.

use brics_bicc::{biconnected_components, BlockCutTree};
use brics_graph::generators::{gnm_random_connected, grid_graph, web_like, ClassParams};
use brics_graph::telemetry::NullRecorder;
use brics_graph::traversal::{
    bfs_distances, par_bfs_sweep, HybridBfs, HybridParams, KernelConfig, OnPanic, ParFrontierBfs,
};
use brics_graph::{CsrGraph, NodeId, RunControl};
use brics_reduce::{reduce, ReductionConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// One BFS per source in parallel, per-source sums only (the exact-farness
/// sweep).
fn sweep_sums(g: &CsrGraph, sources: &[NodeId]) -> Vec<Option<(usize, u64)>> {
    let ctl = RunControl::new();
    par_bfs_sweep(g, sources, None, &ctl, &KernelConfig::default(), OnPanic::Fail, &NullRecorder)
        .expect("no faults armed")
        .per_source
}

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs");
    for n in [1_000usize, 10_000, 50_000] {
        let g = gnm_random_connected(n, n * 4, 7);
        group.bench_with_input(BenchmarkId::new("single_source", n), &g, |b, g| {
            b.iter(|| black_box(bfs_distances(g, 0)))
        });
        group.bench_with_input(BenchmarkId::new("single_source_hybrid", n), &g, |b, g| {
            let mut bfs = HybridBfs::with_params(g.num_nodes(), HybridParams::default());
            b.iter(|| black_box(bfs.run_with(g, 0, |_, _| {})))
        });
        group.bench_with_input(BenchmarkId::new("single_source_frontier_par", n), &g, |b, g| {
            let mut bfs = ParFrontierBfs::with_params(g.num_nodes(), HybridParams::default());
            b.iter(|| black_box(bfs.run(g, 0)))
        });
    }
    let g = gnm_random_connected(20_000, 80_000, 7);
    let sources: Vec<NodeId> = (0..64).map(|i| i * 300).collect();
    group.bench_function("parallel_64_sources_20k", |b| {
        b.iter(|| black_box(sweep_sums(&g, &sources)))
    });
    group.finish();
}

fn bench_bicc(c: &mut Criterion) {
    let mut group = c.benchmark_group("bicc");
    for n in [5_000usize, 20_000] {
        let g = web_like(ClassParams::new(n, 3));
        group.bench_with_input(BenchmarkId::new("decompose_web", n), &g, |b, g| {
            b.iter(|| black_box(biconnected_components(g)))
        });
        group.bench_with_input(BenchmarkId::new("bct_web", n), &g, |b, g| {
            b.iter(|| black_box(BlockCutTree::build(g)))
        });
    }
    let g = grid_graph(120, 120);
    group.bench_function("decompose_grid_14k", |b| {
        b.iter(|| black_box(biconnected_components(&g)))
    });
    group.finish();
}

fn bench_reductions(c: &mut Criterion) {
    let mut group = c.benchmark_group("reductions");
    let g = web_like(ClassParams::new(20_000, 5));
    for (name, cfg) in [
        ("identical_only", ReductionConfig {
            identical: true,
            chains: false,
            redundant: false,
            contract: false,
            fixpoint: false,
        }),
        ("chains_only", ReductionConfig::chains_only()),
        ("cr", ReductionConfig::cr()),
        ("icr", ReductionConfig::all()),
        ("icr_fixpoint", ReductionConfig::all().with_fixpoint()),
    ] {
        group.bench_function(name, |b| b.iter(|| black_box(reduce(&g, &cfg))));
    }
    group.finish();
}

fn bench_reordering(c: &mut Criterion) {
    // Cache-locality ablation: the same multi-source BFS workload on the
    // generator's id order vs BFS-relabelled vs degree-relabelled ids.
    let mut group = c.benchmark_group("reorder");
    let g = web_like(ClassParams::new(30_000, 17));
    let sources: Vec<NodeId> = (0..64).map(|i| i * 400).collect();
    let variants = [
        ("original", g.clone()),
        ("bfs_order", brics_graph::reorder::bfs_relabel(&g, 0).graph),
        ("degree_order", brics_graph::reorder::degree_relabel(&g).graph),
    ];
    for (name, graph) in variants {
        group.bench_function(name, |b| {
            b.iter(|| black_box(sweep_sums(&graph, &sources)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bfs, bench_bicc, bench_reductions, bench_reordering);
criterion_main!(benches);

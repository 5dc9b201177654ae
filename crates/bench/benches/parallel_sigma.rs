//! Bench: sequential vs. sharded-row-sweep σ fixed-point iteration on
//! leaf-spine fabrics (the `widest-fabric-scaling` workload).
//!
//! On a multi-core machine the `threads=4` rows should show the intra-run
//! speedup the parallel engine exists for; on a single-core CI runner they
//! instead document the (small) sharding overhead.  Either way the
//! *outcomes* are asserted identical — the speedup is free of semantic
//! risk by construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::NoopSink;
use dbf_topology::generators;
use std::borrow::Cow;
use std::time::Duration;

fn widest_fabric(n: usize) -> (WidestPaths, AdjacencyMatrix<WidestPaths>) {
    let alg = WidestPaths::new();
    let topo = generators::leaf_spine(4, n - 4)
        .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
    (alg, AdjacencyMatrix::from_topology(&topo))
}

/// Full σ from `x0` on the σ kernel, sharded across `threads`.
fn sharded(
    alg: &WidestPaths,
    adj: &AdjacencyMatrix<WidestPaths>,
    x0: &RoutingState<WidestPaths>,
    threads: usize,
) -> SigmaOutcome<WidestPaths> {
    let n = adj.node_count();
    let start = Frontier::full(n);
    Stepper::new(Cow::Borrowed(adj), x0.clone(), start).run(
        alg,
        &OnPool::shared(threads),
        4 * n,
        true,
        &mut NoopSink,
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_sigma");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(3);

    for n in [100usize, 1000] {
        let (alg, adj) = widest_fabric(n);
        let clean = RoutingState::identity(&alg, n);
        let reference = iterate_to_fixed_point(&alg, &adj, &clean, 4 * n);
        assert!(reference.converged);

        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |b, _| {
            b.iter(|| iterate_to_fixed_point(&alg, &adj, &clean, 4 * n).iterations)
        });
        for threads in [2usize, 4] {
            let out = sharded(&alg, &adj, &clean, threads);
            assert_eq!(out.state, reference.state, "bit-identical at t={threads}");
            assert_eq!(out.iterations, reference.iterations);
            group.bench_with_input(
                BenchmarkId::new(format!("parallel_t{threads}"), n),
                &n,
                |b, _| b.iter(|| sharded(&alg, &adj, &clean, threads).iterations),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

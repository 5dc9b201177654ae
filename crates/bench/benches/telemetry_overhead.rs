//! Bench: the cost of observation — σ fixed-point iteration untraced
//! (`iterate_to_fixed_point`, the σ kernel with the disabled `NoopSink`,
//! whose instrumentation monomorphizes away behind `enabled()`) and with
//! the [`AggregatingSink`] collecting per-round metrics and settle
//! histograms.
//!
//! The aggregating rows should stay within a few percent of the untraced
//! ones — the comparison CI watches for.  Both paths are asserted to
//! produce the identical fixed point and iteration count before any
//! timing happens.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::{AggregatingSink, TelemetrySink};
use dbf_topology::generators;
use std::borrow::Cow;
use std::time::Duration;

fn widest_fabric(n: usize) -> (WidestPaths, AdjacencyMatrix<WidestPaths>) {
    let alg = WidestPaths::new();
    let topo = generators::leaf_spine(4, n - 4)
        .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
    (alg, AdjacencyMatrix::from_topology(&topo))
}

/// Full σ from `x0` on the σ kernel, reporting to `tel`.
fn traced<S: TelemetrySink>(
    alg: &WidestPaths,
    adj: &AdjacencyMatrix<WidestPaths>,
    x0: &RoutingState<WidestPaths>,
    tel: &mut S,
) -> SigmaOutcome<WidestPaths> {
    let n = adj.node_count();
    let start = Frontier::full(n);
    Stepper::new(Cow::Borrowed(adj), x0.clone(), start).run(alg, &Inline, 4 * n, true, tel)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(3);

    let n = 1000usize;
    let (alg, adj) = widest_fabric(n);
    let clean = RoutingState::identity(&alg, n);

    // Observation must not perturb: both paths land on the same fixed
    // point in the same number of rounds.
    let bare = iterate_to_fixed_point(&alg, &adj, &clean, 4 * n);
    assert!(bare.converged);
    let mut agg = AggregatingSink::new();
    agg.run_start("sync", "sync");
    agg.phase_start("bench", n);
    let loud = traced(&alg, &adj, &clean, &mut agg);
    agg.phase_end("bench");
    assert_eq!(loud.state, bare.state);
    assert_eq!(loud.iterations, bare.iterations);
    let report = agg.finish();
    assert_eq!(report.phases.len(), 1);
    assert_eq!(report.phases[0].rounds, bare.iterations as u64 + 1);

    group.bench_with_input(BenchmarkId::new("untraced", n), &n, |b, _| {
        b.iter(|| iterate_to_fixed_point(&alg, &adj, &clean, 4 * n).iterations)
    });
    group.bench_with_input(BenchmarkId::new("aggregating_sink", n), &n, |b, _| {
        b.iter(|| {
            let mut tel = AggregatingSink::new();
            tel.run_start("sync", "sync");
            tel.phase_start("bench", n);
            let out = traced(&alg, &adj, &clean, &mut tel);
            tel.phase_end("bench");
            out.iterations
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

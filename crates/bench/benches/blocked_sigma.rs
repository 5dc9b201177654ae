//! Bench: destination-blocked σ on `u32` lanes vs. the same kernel on the
//! algebra's own route cells, on the `scenarios scale-run` workload
//! (`as_graph(2000, 2)`, seed 1, block 256).
//!
//! Hop count and shortest paths declare an exact min-plus form, so
//! `blocked_fixed_point` runs them on lanes; wrapping the algebra in
//! [`RouteCellsOnly`] hides that declaration and forces the route-cell
//! path.  Both paths must give the **identical** outcome — digest, rounds,
//! row recomputations, convergence — which is asserted before any timing.
//! Each row prints its mean time per row-entry (one σ entry of one
//! recomputed row: row recomputations × block width), digest included.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_topology::{generators, Topology};
use std::time::{Duration, Instant};

const NODES: usize = 2000;
const BLOCK: usize = 256;

/// The wrapped algebra with its lane form hidden.
struct RouteCellsOnly<A>(A);

impl<A: RoutingAlgebra> RoutingAlgebra for RouteCellsOnly<A> {
    type Route = A::Route;
    type Edge = A::Edge;

    fn choice(&self, a: &A::Route, b: &A::Route) -> A::Route {
        self.0.choice(a, b)
    }

    fn extend(&self, f: &A::Edge, r: &A::Route) -> A::Route {
        self.0.extend(f, r)
    }

    fn trivial(&self) -> A::Route {
        self.0.trivial()
    }

    fn invalid(&self) -> A::Route {
        self.0.invalid()
    }
}

/// One blocked run and the row-entries it computed.
fn run<A: RoutingAlgebra>(alg: &A, adj: &AdjacencyMatrix<A>) -> (BlockedOutcome, u64) {
    let n = adj.node_count();
    let mut entries = 0u64;
    let out = blocked_fixed_point(alg, adj, BLOCK, n, |b, _, rows| {
        entries += rows * BLOCK.min(n - b * BLOCK) as u64;
    });
    (out, entries)
}

/// Assert both paths agree on `topo`, then time each.
fn compare<A: RoutingAlgebra>(c: &mut Criterion, name: &str, alg: A, topo: &Topology<A::Edge>) {
    let adj = AdjacencyMatrix::from_topology(topo);
    let routes_only = RouteCellsOnly(alg);
    let route_adj = AdjacencyMatrix::from_topology(topo);
    let (lanes, entries) = run(&routes_only.0, &adj);
    let (cells, _) = run(&routes_only, &route_adj);
    assert!(lanes.converged, "{name}: no fixed point");
    assert_eq!(lanes, cells, "{name}: lane and route-cell outcomes differ");

    let mut group = c.benchmark_group(format!("blocked_sigma/{name}"));
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    group.sample_size(3);
    let mut timed = |label: &str, f: &mut dyn FnMut() -> BlockedOutcome| {
        let (mut total, mut runs) = (Duration::ZERO, 0u32);
        group.bench_with_input(BenchmarkId::new(label, NODES), &NODES, |b, _| {
            b.iter(|| {
                let t = Instant::now();
                let out = f();
                total += t.elapsed();
                runs += 1;
                out
            })
        });
        let ns = total.as_nanos() as f64 / f64::from(runs) / entries as f64;
        println!("      {label}: {ns:.2} ns per row-entry ({entries} row-entries per run)");
    };
    timed("lanes", &mut || run(&routes_only.0, &adj).0);
    timed("route_cells", &mut || run(&routes_only, &route_adj).0);
    group.finish();
}

fn bench(c: &mut Criterion) {
    let shape = generators::as_graph(NODES, 2, 1);
    // The hop limit and weights `scenarios scale-run` uses: a limit of n
    // never truncates, and shortest paths take `WeightRule::varied`.
    let hops = shape.with_weights(|_, _| 1u64);
    compare(c, "hopcount", BoundedHopCount::new(NODES as u64), &hops);
    let weights = shape.with_weights(|i, j| NatInf::fin(((7 * i + 13 * j) % 9 + 1) as u64));
    compare(c, "shortest", ShortestPaths::new(), &weights);
}

criterion_group!(benches, bench);
criterion_main!(benches);

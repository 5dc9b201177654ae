//! Bench: frontier-driven change-phase reconvergence vs. the full-scan
//! baseline it replaced, on the `widest-fabric-scaling` workload.
//!
//! The scenario is the incremental engine's bread and butter: the fabric
//! has converged, one spine–leaf link fails, and the fixed point must be
//! re-established.  The `full_scan` rows recompute every row every round
//! (the pre-frontier σ loop); the `frontier` rows walk the epoch-stamped
//! dirty work queue and touch only rows whose import neighbourhood can
//! actually have changed.  Both reach the **identical** fixed point — the
//! assertions run before any timing — and the frontier side must do at
//! least 2× fewer row recomputations at every size.

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

/// Drop the bidirectional spine–leaf link `0 — 6`.
fn fail_link(adj: &AdjacencyMatrix<WidestPaths>) -> AdjacencyMatrix<WidestPaths> {
    AdjacencyMatrix::from_fn(adj.node_count(), |i, j| {
        if (i, j) == (0, 6) || (i, j) == (6, 0) {
            None
        } else {
            adj.get(i, j).copied()
        }
    })
}

/// The pre-frontier baseline: recompute **every** row each round until a
/// full sweep changes nothing.  Returns (state, rounds); cost is exactly
/// `n · rounds` row recomputations.
fn full_scan(
    alg: &WidestPaths,
    adj: &AdjacencyMatrix<WidestPaths>,
    x0: &RoutingState<WidestPaths>,
    max_rounds: usize,
) -> (RoutingState<WidestPaths>, usize) {
    let mut cur = x0.clone();
    let mut next = cur.clone();
    for k in 0..max_rounds {
        sigma_into(alg, adj, &cur, &mut next);
        if next == cur {
            return (cur, k);
        }
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, max_rounds)
}

/// Reconverge from `x0` with only the `dirty` rows on the start frontier.
fn frontier_run(
    alg: &WidestPaths,
    adj: &AdjacencyMatrix<WidestPaths>,
    x0: &RoutingState<WidestPaths>,
    dirty: &[bool],
    budget: usize,
) -> SigmaOutcome<WidestPaths> {
    let start = Frontier::from_mask(dirty);
    Stepper::new(Cow::Borrowed(adj), x0.clone(), start).run(
        alg,
        &Inline,
        budget,
        false,
        &mut NoopSink,
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("frontier_sigma");
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(1));
    group.sample_size(3);

    for n in [1_000usize, 10_000] {
        let (alg, adj) = widest_fabric(n);
        let clean = RoutingState::identity(&alg, n);
        let baseline = iterate_to_fixed_point(&alg, &adj, &clean, 4 * n);
        assert!(baseline.converged);

        let changed = fail_link(&adj);
        let dirty = dirty_rows_after_change(&adj, &changed);
        let budget = 4 * n;

        // Outcome parity and the work claim, checked once up front.
        let (scan_state, scan_rounds) = full_scan(&alg, &changed, &baseline.state, budget);
        let frontier = frontier_run(&alg, &changed, &baseline.state, &dirty, budget);
        assert!(frontier.converged, "n={n}: frontier did not converge");
        assert_eq!(
            frontier.state, scan_state,
            "n={n}: frontier and full-scan fixed points differ"
        );
        let scan_work = (n * scan_rounds.max(1)) as u64;
        assert!(
            2 * frontier.row_recomputations <= scan_work,
            "n={n}: frontier did {} row recomputations, full scan {scan_work} — \
             the 2x bookkeeping reduction does not hold",
            frontier.row_recomputations
        );

        group.bench_with_input(BenchmarkId::new("full_scan", n), &n, |b, _| {
            b.iter(|| full_scan(&alg, &changed, &baseline.state, budget).1)
        });
        group.bench_with_input(BenchmarkId::new("frontier", n), &n, |b, _| {
            b.iter(|| {
                frontier_run(&alg, &changed, &baseline.state, &dirty, budget).row_recomputations
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

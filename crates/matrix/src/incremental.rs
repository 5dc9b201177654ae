//! Incremental reconvergence: the start frontier after a topology change.
//!
//! After a topology change only the region around the edit is perturbed
//! ("Dynamic Asynchronous Iterations" makes exactly this observation).
//! Starting the σ kernel ([`crate::kernel::Stepper`]) from the fixed point
//! of the previous topology with only the rows returned by
//! [`dirty_rows_after_change`] on the frontier reproduces the full σ
//! trajectory state for state, for every algebra, while the work per
//! round shrinks to the perturbed region: reconvergence costs
//! `O(perturbed region)` instead of `O(n · |E|)` per round.

use crate::adjacency::AdjacencyMatrix;
use dbf_algebra::RoutingAlgebra;

/// The rows a topology change can perturb directly: every row whose import
/// neighbourhood (its adjacency row) differs between `old` and `new`, plus
/// every row that did not exist in `old`.
///
/// Starting the kernel from a fixed point of `old` with exactly these rows
/// on the frontier reconverges to the fixed point of `new`: an untouched
/// row `i` satisfies `σ_new(X)[i] = σ_old(X)[i] = X[i]`, so it only needs
/// recomputing once a neighbour's table actually changes.
pub fn dirty_rows_after_change<A>(old: &AdjacencyMatrix<A>, new: &AdjacencyMatrix<A>) -> Vec<bool>
where
    A: RoutingAlgebra,
    A::Edge: PartialEq,
{
    (0..new.node_count())
        .map(|i| i >= old.node_count() || old.row(i) != new.row(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::Frontier;
    use crate::kernel::tests::{assert_naive, naive, run_kernel};
    use crate::kernel::Stepper;
    use crate::parallel::Inline;
    use crate::sigma::sigma_k;
    use crate::state::RoutingState;
    use dbf_algebra::prelude::*;
    use dbf_telemetry::NoopSink;
    use dbf_topology::generators;
    use std::borrow::Cow;

    fn weighted_ring(n: usize) -> AdjacencyMatrix<ShortestPaths> {
        let topo =
            generators::ring(n).with_weights(|i, j| NatInf::fin(((i * 7 + j * 13) % 9 + 1) as u64));
        AdjacencyMatrix::from_topology(&topo)
    }

    #[test]
    fn all_dirty_start_matches_full_sync_round_for_round() {
        // Every committed round of the all-dirty kernel is one application
        // of naive σ, until the round that changes nothing.
        let alg = ShortestPaths::new();
        let adj = weighted_ring(9);
        let x0 = RoutingState::identity(&alg, 9);
        let mut s = Stepper::new(Cow::Borrowed(&adj), x0.clone(), Frontier::full(9));
        while !s.is_settled() {
            let changed = s.step(&alg, &Inline, &mut NoopSink);
            let round = s.rounds() - usize::from(changed == 0);
            assert!(
                *s.state() == sigma_k(&alg, &adj, &x0, round),
                "round {round}"
            );
        }
        let out = s.finish().0;
        let (fixed, k, stable) = naive(&alg, &adj, &x0, 200);
        assert!(stable && out.converged && out.state == fixed);
        assert_eq!((out.iterations, out.rounds), (k, k + 1));
    }

    #[test]
    fn change_phase_recomputes_only_the_perturbed_region() {
        // A long line: failing the far-end link must not recompute the rows
        // at the other end (bad news propagates a bounded number of hops on
        // the bounded hop-count algebra).
        let alg = BoundedHopCount::new(8);
        let n = 64;
        let old_topo = generators::line(n).with_weights(|_, _| 1u64);
        let old_adj = AdjacencyMatrix::<BoundedHopCount>::from_topology(&old_topo);
        let (fixed, _, stable) = naive(&alg, &old_adj, &RoutingState::identity(&alg, n), 400);
        assert!(stable);

        let mut new_adj = old_adj.clone();
        new_adj.set(0, 1, None);
        new_adj.set(1, 0, None);
        let dirty = dirty_rows_after_change(&old_adj, &new_adj);
        assert_eq!(
            dirty.iter().filter(|&&d| d).count(),
            2,
            "only the two endpoints' import sets changed"
        );

        let start = Frontier::from_mask(&dirty);
        let inc = run_kernel(&alg, &new_adj, &fixed, start, 400, false, 1);
        assert!(inc.converged);
        assert_naive(&alg, &new_adj, &fixed, &inc, 400, false);
        // A full σ round recomputes n rows; the dirty start only touches
        // the frontier around the failed link.
        let full_row_equivalents = inc.rounds as u64 * n as u64;
        assert!(
            inc.row_recomputations < full_row_equivalents / 2,
            "incremental {} vs full {}",
            inc.row_recomputations,
            full_row_equivalents
        );
    }

    #[test]
    fn widest_paths_agree_with_full_sync() {
        // Widest paths is increasing but not strictly, so its fixed point is
        // not guaranteed unique — the dirty start must still land on the
        // *same* one as naive σ because it walks the same trajectory.
        let alg = WidestPaths::new();
        let topo = generators::leaf_spine(3, 6)
            .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let x0 = RoutingState::identity(&alg, 9);
        let inc = run_kernel(&alg, &adj, &x0, Frontier::full(9), 200, false, 1);
        assert!(inc.converged);
        assert_naive(&alg, &adj, &x0, &inc, 200, false);

        let mut cut = adj.clone();
        cut.set(0, 6, None);
        cut.set(6, 0, None);
        let start = Frontier::from_mask(&dirty_rows_after_change(&adj, &cut));
        let inc2 = run_kernel(&alg, &cut, &inc.state, start, 200, false, 1);
        assert!(inc2.converged);
        assert_naive(&alg, &cut, &inc.state, &inc2, 200, false);
    }

    #[test]
    fn growing_networks_mark_fresh_rows_dirty() {
        let alg = ShortestPaths::new();
        let small = weighted_ring(5);
        let fixed = naive(&alg, &small, &RoutingState::identity(&alg, 5), 100).0;
        // Node 5 joins and links to node 0 (both directions, weight 1).
        let mut grown = AdjacencyMatrix::<ShortestPaths>::empty(6);
        for i in 0..5 {
            for (j, w) in small.row(i) {
                grown.set(i, *j, Some(*w));
            }
        }
        grown.set(0, 5, Some(NatInf::fin(1)));
        grown.set(5, 0, Some(NatInf::fin(1)));
        let dirty = dirty_rows_after_change(&small, &grown);
        assert!(dirty[0] && dirty[5], "both endpoints of the new link");
        let state0 = fixed.grown(&alg, 6);
        let inc = run_kernel(
            &alg,
            &grown,
            &state0,
            Frontier::from_mask(&dirty),
            100,
            false,
            1,
        );
        assert!(inc.converged);
        assert_naive(&alg, &grown, &state0, &inc, 100, false);
    }

    #[test]
    fn the_sharded_engine_reproduces_the_sequential_trajectory() {
        // Fresh start and change-phase start, across thread counts: the
        // sharded kernel walks naive σ's trajectory.
        let alg = ShortestPaths::new();
        let adj = weighted_ring(23);
        let x0 = RoutingState::identity(&alg, 23);
        let fixed = naive(&alg, &adj, &x0, 300).0;
        let mut cut = adj.clone();
        cut.set(0, 1, None);
        cut.set(1, 0, None);
        let dirty = dirty_rows_after_change(&adj, &cut);
        for threads in [2, 3, 8] {
            let fresh = run_kernel(&alg, &adj, &x0, Frontier::full(23), 300, false, threads);
            assert!(fresh.converged, "threads={threads}");
            assert_naive(&alg, &adj, &x0, &fresh, 300, false);
            let start = Frontier::from_mask(&dirty);
            let change = run_kernel(&alg, &cut, &fixed, start, 300, false, threads);
            assert!(change.converged, "threads={threads}");
            assert_naive(&alg, &cut, &fixed, &change, 300, false);
        }
    }

    #[test]
    fn a_zero_round_budget_reports_non_convergence() {
        let alg = ShortestPaths::new();
        let adj = weighted_ring(4);
        let x0 = RoutingState::identity(&alg, 4);
        let out = run_kernel(&alg, &adj, &x0, Frontier::full(4), 0, false, 1);
        assert!(!out.converged);
        assert_eq!(out.rounds, 0);
        // ... and a clean start over a clean mask is trivially converged.
        let fixed = naive(&alg, &adj, &x0, 100).0;
        let out = run_kernel(&alg, &adj, &fixed, Frontier::new(4), 0, false, 1);
        assert!(out.converged);
        assert_eq!(out.row_recomputations, 0);
    }
}

//! Property-based tests for the synchronous operator `σ` (Section 2.2–2.3).

use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_telemetry::NoopSink;
use dbf_topology::generators;
use proptest::prelude::*;
use std::borrow::Cow;

const N: usize = 5;

fn nat_inf() -> impl Strategy<Value = NatInf> {
    prop_oneof![
        8 => (0u64..500).prop_map(NatInf::fin),
        1 => Just(NatInf::ZERO),
        1 => Just(NatInf::Inf),
    ]
}

/// An arbitrary routing state over ℕ∞ on N nodes.
fn state() -> impl Strategy<Value = Vec<NatInf>> {
    proptest::collection::vec(nat_inf(), N * N)
}

/// An arbitrary unit-or-more weighted adjacency on N nodes (dense bitmask
/// selects which directed links exist).
fn adjacency() -> impl Strategy<Value = (u32, Vec<u64>)> {
    (any::<u32>(), proptest::collection::vec(1u64..9, N * N))
}

fn build_adj(mask: u32, weights: &[u64]) -> AdjacencyMatrix<ShortestPaths> {
    AdjacencyMatrix::from_fn(N, |i, j| {
        let k = i * N + j;
        if i != j && (mask >> (k % 32)) & 1 == 1 {
            Some(NatInf::fin(weights[k]))
        } else {
            None
        }
    })
}

fn build_state(entries: &[NatInf]) -> RoutingState<ShortestPaths> {
    RoutingState::from_fn(N, |i, j| entries[i * N + j])
}

/// The naive reference for a σ run with a budget: apply σ until the state
/// is stable or `budget` applications have changed it.  Returns
/// `(σ^k(x0), k, converged)`.
fn naive(
    alg: &ShortestPaths,
    adj: &AdjacencyMatrix<ShortestPaths>,
    x0: &RoutingState<ShortestPaths>,
    budget: usize,
) -> (RoutingState<ShortestPaths>, usize, bool) {
    let mut x = x0.clone();
    for k in 0..=budget {
        let next = sigma(alg, adj, &x);
        if next == x {
            return (x, k, true);
        }
        if k == budget {
            break;
        }
        x = next;
    }
    (x, budget, false)
}

/// Run the σ kernel with the budget probe from `x0` with `start` on the
/// frontier, sharded across `threads`.
fn kernel(
    alg: &ShortestPaths,
    adj: &AdjacencyMatrix<ShortestPaths>,
    x0: &RoutingState<ShortestPaths>,
    start: Frontier,
    budget: usize,
    threads: usize,
) -> SigmaOutcome<ShortestPaths> {
    Stepper::new(Cow::Borrowed(adj), x0.clone(), start).run(
        alg,
        &OnPool::shared(threads),
        budget,
        true,
        &mut NoopSink,
    )
}

proptest! {
    /// Lemma 1: after one application of σ every diagonal entry is the
    /// trivial route, whatever the starting state and topology.
    #[test]
    fn lemma1_diagonal_is_trivial((mask, w) in adjacency(), entries in state()) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let next = sigma(&alg, &adj, &build_state(&entries));
        for i in 0..N {
            prop_assert_eq!(next.get(i, i), &alg.trivial());
        }
    }

    /// σ's output never invents routes better than any neighbour can offer:
    /// every off-diagonal entry is either ∞̄ or the extension of some
    /// neighbour's entry.
    #[test]
    fn sigma_entries_are_justified((mask, w) in adjacency(), entries in state()) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let x = build_state(&entries);
        let next = sigma(&alg, &adj, &x);
        for i in 0..N {
            for j in 0..N {
                if i == j {
                    continue;
                }
                let r = next.get(i, j);
                if alg.is_invalid(r) {
                    continue;
                }
                let justified = (0..N).any(|k| {
                    k != i && adj.get(i, k).is_some() && &adj.apply(&alg, i, k, x.get(k, j)) == r
                });
                prop_assert!(justified, "entry ({i},{j}) = {r:?} is not offered by any neighbour");
            }
        }
    }

    /// The fixed point reached from the clean state is genuinely stable and
    /// agrees with the δ run of the synchronous schedule.
    #[test]
    fn fixed_points_are_stable((mask, w) in adjacency()) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, N), 200);
        prop_assert!(out.converged);
        prop_assert!(is_stable(&alg, &adj, &out.state));
        prop_assert_eq!(sigma(&alg, &adj, &out.state), out.state);
    }

    /// σ_k composes: σ^{a+b}(X) = σ^a(σ^b(X)).
    #[test]
    fn sigma_k_composes((mask, w) in adjacency(), entries in state(), a in 0usize..4, b in 0usize..4) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let x = build_state(&entries);
        let lhs = sigma_k(&alg, &adj, &x, a + b);
        let rhs = sigma_k(&alg, &adj, &sigma_k(&alg, &adj, &x, b), a);
        prop_assert_eq!(lhs, rhs);
    }

    /// For the strictly increasing bounded hop-count algebra the fixed point
    /// from *any* starting state equals the fixed point from the clean state
    /// (the synchronous shadow of Theorem 7's absolute convergence).
    #[test]
    fn hopcount_fixed_point_is_unique(entries in proptest::collection::vec(0u64..12, N * N), seed in 0u64..50) {
        let alg = BoundedHopCount::new(9);
        let shape = generators::connected_random(N, 0.45, seed);
        let adj = AdjacencyMatrix::<BoundedHopCount>::from_fn(N, |i, j| {
            if shape.has_edge(i, j) { Some(1u64) } else { None }
        });
        let clean = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, N), 300);
        prop_assert!(clean.converged);
        let garbage = RoutingState::<BoundedHopCount>::from_fn(N, |i, j| {
            if i == j {
                NatInf::fin(0)
            } else {
                let v = entries[i * N + j];
                if v >= 10 { NatInf::Inf } else { NatInf::fin(v) }
            }
        });
        let from_garbage = iterate_to_fixed_point(&alg, &adj, &garbage, 300);
        prop_assert!(from_garbage.converged);
        prop_assert_eq!(from_garbage.state, clean.state);
    }

    /// The frontier kernel walks the **exact** naive σ trajectory: from
    /// any start state on any topology, inline and sharded, it lands on
    /// `σ^k(x0)` with `k` the first stable index (or the budget), and
    /// reports convergence exactly when that state is stable.
    #[test]
    fn frontier_loop_matches_the_naive_sigma_trajectory(
        (mask, w) in adjacency(),
        entries in state(),
        budget in 0usize..8,
    ) {
        let alg = ShortestPaths::new();
        let adj = build_adj(mask, &w);
        let x0 = build_state(&entries);
        let (expected, k, stable) = naive(&alg, &adj, &x0, budget);
        for threads in [1, 3] {
            let out = kernel(&alg, &adj, &x0, Frontier::full(N), budget, threads);
            prop_assert_eq!(&out.state, &expected, "threads={}", threads);
            prop_assert_eq!(out.iterations, k, "threads={}", threads);
            prop_assert_eq!(out.converged, stable, "threads={}", threads);
        }
    }

    /// A dirty-mask start is the naive trajectory too, when the start
    /// state is a fixed point of the old topology and the mask covers
    /// every row whose import set changed: rows are rewired at random,
    /// the mask adds random extra rows, and the kernel must land where
    /// naive σ on the new topology lands, in as many changing rounds.
    #[test]
    fn dirty_mask_start_matches_the_naive_sigma_trajectory(
        (mask_a, w_a) in adjacency(),
        (mask_b, w_b) in adjacency(),
        rewired in any::<u8>(),
        extra in any::<u8>(),
    ) {
        let alg = ShortestPaths::new();
        let old = build_adj(mask_a, &w_a);
        let other = build_adj(mask_b, &w_b);
        let new = AdjacencyMatrix::from_fn(N, |i, j| {
            let src = if (rewired >> i) & 1 == 1 { &other } else { &old };
            src.get(i, j).copied()
        });
        let fixed = iterate_to_fixed_point(&alg, &old, &RoutingState::identity(&alg, N), 200);
        prop_assert!(fixed.converged);
        let dirty: Vec<bool> = dirty_rows_after_change(&old, &new)
            .iter()
            .enumerate()
            .map(|(i, &d)| d || (extra >> i) & 1 == 1)
            .collect();
        let budget = 64;
        // Removals on the unbounded carrier may count to infinity: then
        // neither side converges within the budget, and both must say so.
        let (expected, k, stable) = naive(&alg, &new, &fixed.state, budget);
        for threads in [1, 3] {
            let start = Frontier::from_mask(&dirty);
            let out = kernel(&alg, &new, &fixed.state, start, budget, threads);
            prop_assert_eq!(&out.state, &expected, "threads={}", threads);
            prop_assert_eq!(out.iterations, k, "threads={}", threads);
            prop_assert_eq!(out.converged, stable, "threads={}", threads);
            prop_assert!(out.row_recomputations <= (out.rounds * N) as u64);
        }
    }

    /// The exhaustive oracle is never worse than the σ fixed point (local
    /// optimality), and for the distributive shortest-paths algebra it is
    /// equal.
    #[test]
    fn oracle_bounds_the_fixed_point(seed in 0u64..40) {
        let alg = ShortestPaths::new();
        let topo = generators::connected_random(N, 0.5, seed)
            .with_weights(|i, j| NatInf::fin(((i * 3 + j + seed as usize) % 7 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let out = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, N), 200);
        prop_assert!(out.converged);
        let oracle = exhaustive_path_optimum(&alg, &adj);
        prop_assert_eq!(&out.state, &oracle);
        for (i, j, r) in out.state.entries() {
            prop_assert!(alg.route_le(oracle.get(i, j), r));
        }
    }
}

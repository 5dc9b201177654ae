//! Executors: how one round's work list is recomputed — on the calling
//! thread ([`Inline`]), or sharded across the bands of a persistent
//! [`WorkerPool`] ([`OnPool`]).
//!
//! One Jacobi round computes every frontier row from the *previous*
//! state only, so the work list is embarrassingly parallel: it is cut
//! into contiguous bands, each band is written by exactly one worker into
//! its disjoint slice of the staging buffer, and the result is
//! **bit-identical** to the inline sweep for every thread count — no
//! reduction order, no scheduling dependence, nothing to race on.
//!
//! Bands are balanced by *work*, not by row count: one row of `σ(X)` costs
//! `O(deg(i) · n)`, and real fabrics are skewed (a leaf–spine spine imports
//! from thousands of leaves while a leaf imports from four spines), so
//! equal-row bands would leave most workers idle behind the one holding the
//! hubs.  The internal `balanced_chunks` planner cuts the work list at
//! cumulative-degree boundaries instead.

use crate::adjacency::AdjacencyMatrix;
use crate::pool::WorkerPool;
use crate::sigma::sigma_row_into_changed;
use crate::state::RoutingState;
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::TelemetrySink;
use std::ops::Range;
use std::time::Instant;

/// One round's work, handed to an [`Executor`]: recompute row `rows[pos]`
/// of `σ(state)` into `staging[pos·n .. (pos+1)·n]` and set `changed[pos]`
/// to whether it differs from the current row.
pub struct RoundWork<'r, A: RoutingAlgebra> {
    /// The 1-based round index (for `band_sweep` events).
    pub round: u64,
    /// The adjacency being iterated.
    pub adj: &'r AdjacencyMatrix<A>,
    /// The previous round's state, read by every row.
    pub state: &'r RoutingState<A>,
    /// The work list: ascending, deduplicated row ids.
    pub rows: &'r [usize],
    /// Position-major output rows, `rows.len() · n` routes.
    pub staging: &'r mut [A::Route],
    /// Position-major change flags, `rows.len()` entries.
    pub changed: &'r mut [bool],
}

/// How a round's work list is recomputed.
pub trait Executor<A: RoutingAlgebra> {
    /// Fill `work.staging` and `work.changed` (see [`RoundWork`]).
    fn recompute<S: TelemetrySink + ?Sized>(&self, alg: &A, work: RoundWork<'_, A>, tel: &mut S);
}

/// Recompute every row on the calling thread.
#[derive(Clone, Copy, Debug)]
pub struct Inline;

impl<A: RoutingAlgebra> Executor<A> for Inline {
    fn recompute<S: TelemetrySink + ?Sized>(&self, alg: &A, w: RoundWork<'_, A>, _tel: &mut S) {
        sweep_rows(alg, w.adj, w.state, w.rows, w.staging, w.changed);
    }
}

fn sweep_rows<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    state: &RoutingState<A>,
    rows: &[usize],
    staging: &mut [A::Route],
    changed: &mut [bool],
) {
    let n = state.node_count().max(1);
    for ((&i, slot), flag) in rows.iter().zip(staging.chunks_mut(n)).zip(changed) {
        *flag = sigma_row_into_changed(alg, adj, state, i, slot);
    }
}

/// The algebra bounds of the sharded sweep: the algebra and adjacency are
/// shared read-only across workers and each worker writes `Route`s into its
/// own band.
pub trait ParallelAlgebra: RoutingAlgebra + Sync
where
    Self::Route: Send + Sync,
    Self::Edge: Sync,
{
}

impl<A> ParallelAlgebra for A
where
    A: RoutingAlgebra + Sync,
    A::Route: Send + Sync,
    A::Edge: Sync,
{
}

/// Shard each round's work list across up to `threads` workers of a pool.
///
/// The work list is cut into contiguous bands of roughly equal weight
/// `deg(i) + 1` (one row of σ costs `O(deg(i) · n)`, and a leaf–spine
/// spine imports from every leaf), each band stages into its own disjoint
/// slice, and the calling thread sweeps the first band itself.  A round
/// with fewer than two rows, or `threads <= 1`, runs inline without
/// opening a pool epoch.  A worker panic is re-raised on the caller with
/// its payload intact; the pool itself survives.
#[derive(Clone, Copy)]
pub struct OnPool<'p> {
    /// The pool whose workers run the bands.
    pub pool: &'p WorkerPool,
    /// The most bands (worker threads, counting the caller) per round.
    pub threads: usize,
}

impl OnPool<'static> {
    /// Shard across the process-wide [`WorkerPool::shared`].
    pub fn shared(threads: usize) -> OnPool<'static> {
        OnPool {
            pool: WorkerPool::shared(),
            threads,
        }
    }
}

impl<A> Executor<A> for OnPool<'_>
where
    A: ParallelAlgebra,
    A::Route: Send + Sync,
    A::Edge: Sync,
{
    fn recompute<S: TelemetrySink + ?Sized>(&self, alg: &A, w: RoundWork<'_, A>, tel: &mut S) {
        if self.threads <= 1 || w.rows.len() < 2 {
            return Inline.recompute(alg, w, tel);
        }
        let (adj, state, rows, n) = (w.adj, w.state, w.rows, w.state.node_count());
        let weight = |pos: usize| adj.row(rows[pos]).len() as u64 + 1;
        let bands = balanced_chunks(rows.len(), self.threads, weight);
        let mut walls = vec![0u64; bands.len()];
        let sweep = |rows: &[usize], stage: &mut [A::Route], flags: &mut [bool], wall: &mut u64| {
            let t0 = Instant::now();
            sweep_rows(alg, adj, state, rows, stage, flags);
            *wall = t0.elapsed().as_nanos() as u64;
        };
        let (mut stage_rest, mut flag_rest) = (w.staging, w.changed);
        let mut wall_rest = walls.as_mut_slice();
        let outcome = self.pool.scoped(|scope| {
            let mut first = None;
            for band in &bands {
                let rows = &rows[band.clone()];
                let (stage, tail) = std::mem::take(&mut stage_rest).split_at_mut(rows.len() * n);
                stage_rest = tail;
                let (flags, tail) = std::mem::take(&mut flag_rest).split_at_mut(rows.len());
                flag_rest = tail;
                let (wall, tail) = std::mem::take(&mut wall_rest).split_at_mut(1);
                wall_rest = tail;
                if first.is_none() {
                    first = Some((rows, stage, flags, wall));
                } else {
                    scope.execute(move || sweep(rows, stage, flags, &mut wall[0]));
                }
            }
            if let Some((rows, stage, flags, wall)) = first {
                sweep(rows, stage, flags, &mut wall[0]);
            }
        });
        if let Err(payload) = outcome {
            std::panic::resume_unwind(payload);
        }
        if tel.enabled() {
            for (b, band) in bands.iter().enumerate() {
                let band_weight = band.clone().map(weight).sum();
                tel.band_sweep(w.round, b as u64, band.len() as u64, band_weight, walls[b]);
            }
        }
    }
}

/// Partition `0..len` into at most `parts` non-empty contiguous ranges of
/// approximately equal total `weight`.  Cuts fall where the cumulative
/// weight crosses `k/parts` of the total, so a few heavy items early (hub
/// rows) shrink the first range instead of starving the later workers.
pub(crate) fn balanced_chunks(
    len: usize,
    parts: usize,
    weight: impl Fn(usize) -> u64,
) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let total: u64 = (0..len).map(&weight).sum();
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0usize);
    let mut acc = 0u64;
    let mut pos = 0usize;
    for k in 1..parts {
        let target = total * k as u64 / parts as u64;
        // Every range gets at least one item, and enough items are left
        // over for the remaining ranges to be non-empty too.  A row is
        // taken only while that lands the cut *nearer* the target than
        // stopping would (closest-cut): crossing-then-cutting instead
        // would glue two heavy hub rows into one band.
        let min_end = bounds[k - 1] + 1;
        let max_end = len - (parts - k);
        while pos < max_end && (pos < min_end || (acc < target && 2 * (target - acc) > weight(pos)))
        {
            acc += weight(pos);
            pos += 1;
        }
        bounds.push(pos);
    }
    bounds.push(len);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::Frontier;
    use crate::kernel::tests::{assert_naive, naive, run_kernel};
    use crate::kernel::Stepper;
    use crate::sigma::sigma;
    use dbf_algebra::prelude::*;
    use dbf_telemetry::{AggregatingSink, NoopSink};
    use dbf_topology::generators;
    use std::borrow::Cow;

    fn widest_fabric(spines: usize, leaves: usize) -> (WidestPaths, AdjacencyMatrix<WidestPaths>) {
        let alg = WidestPaths::new();
        let topo = generators::leaf_spine(spines, leaves)
            .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
        (alg, AdjacencyMatrix::from_topology(&topo))
    }

    #[test]
    fn balanced_chunks_cover_everything_without_overlap() {
        for (len, parts) in [(1, 1), (1, 8), (7, 3), (64, 8), (10, 10), (10, 100)] {
            let chunks = balanced_chunks(len, parts, |_| 1);
            assert!(chunks.len() <= parts.max(1), "len={len} parts={parts}");
            assert!(chunks.iter().all(|r| !r.is_empty()));
            let flat: Vec<usize> = chunks.iter().cloned().flatten().collect();
            assert_eq!(
                flat,
                (0..len).collect::<Vec<_>>(),
                "len={len} parts={parts}"
            );
        }
        assert!(balanced_chunks(0, 4, |_| 1).is_empty());
    }

    #[test]
    fn balanced_chunks_weight_by_degree_not_row_count() {
        // Four hub rows followed by a thousand light rows — the leaf-spine
        // degree profile.  Equal-ROW chunking would put all four hubs plus
        // 247 light rows in the first chunk (weight 4247 of 5000); the
        // weighted cut must keep every chunk within 2× the ideal share
        // (the contiguous-partition optimum for this input is 2000, since
        // all the light mass trails the hubs).
        let weight = |i: usize| if i < 4 { 1000 } else { 1 };
        let chunks = balanced_chunks(1004, 4, weight);
        assert_eq!(chunks.len(), 4);
        let chunk_weight = |r: &Range<usize>| -> u64 { r.clone().map(weight).sum() };
        let weights: Vec<u64> = chunks.iter().map(chunk_weight).collect();
        let total: u64 = weights.iter().sum();
        let max = *weights.iter().max().unwrap();
        assert!(
            max <= 2 * total / 4,
            "no chunk may exceed 2x the ideal share: {weights:?}"
        );
        // ... and with one worker per hub plus light tail (8 parts), every
        // hub lands in its own chunk.
        let chunks = balanced_chunks(1004, 8, weight);
        for (k, r) in chunks.iter().take(4).enumerate() {
            assert_eq!(*r, k..k + 1, "hub {k} gets a dedicated chunk: {chunks:?}");
        }
    }

    #[test]
    fn par_sigma_matches_sequential_sigma_for_every_thread_count() {
        // One committed full-frontier round from an arbitrary state is
        // σ(x), whichever way the rows were sharded.
        let (alg, adj) = widest_fabric(4, 29);
        let n = adj.node_count();
        let x =
            RoutingState::<WidestPaths>::from_fn(n, |i, j| NatInf::fin(((i * 3 + j) % 40) as u64));
        let expected = sigma(&alg, &adj, &x);
        for threads in [1, 2, 3, 5, 8] {
            let mut s = Stepper::new(Cow::Borrowed(&adj), x.clone(), Frontier::full(n));
            s.step(&alg, &OnPool::shared(threads), &mut NoopSink);
            assert!(*s.state() == expected, "threads={threads}");
        }
    }

    #[test]
    fn par_iterate_reproduces_the_sequential_outcome_exactly() {
        let alg = ShortestPaths::new();
        let topo = generators::ring(37)
            .with_weights(|i, j| NatInf::fin(((i * 7 + j * 13) % 9 + 1) as u64));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let x0 = RoutingState::identity(&alg, 37);
        let (fixed, k, stable) = naive(&alg, &adj, &x0, 500);
        assert!(stable);
        for threads in [2, 4, 8] {
            let par = run_kernel(&alg, &adj, &x0, Frontier::full(37), 500, true, threads);
            assert!(par.state == fixed, "threads={threads}");
            assert_eq!(
                (par.iterations, par.converged),
                (k, true),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn budget_boundaries_agree_with_the_sequential_iteration() {
        let (alg, adj) = widest_fabric(3, 13);
        let x0 = RoutingState::identity(&alg, 16);
        for budget in 0..6 {
            let par = run_kernel(&alg, &adj, &x0, Frontier::full(16), budget, true, 4);
            assert_naive(&alg, &adj, &x0, &par, budget, true);
        }
    }

    #[test]
    fn traced_outcome_and_deterministic_events_are_thread_invariant() {
        let (alg, adj) = widest_fabric(4, 29);
        let n = adj.node_count();
        let x0 = RoutingState::identity(&alg, n);
        let (fixed, k, _) = naive(&alg, &adj, &x0, 500);
        let mut deterministic_sides = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut sink = AggregatingSink::new();
            let s = Stepper::new(Cow::Borrowed(&adj), x0.clone(), Frontier::full(n));
            let out = s.run(&alg, &OnPool::shared(threads), 500, true, &mut sink);
            assert!(out.state == fixed, "threads={threads}");
            assert_eq!(out.iterations, k, "threads={threads}");
            let report = sink.finish();
            // Band profiling is timing-side, and only sharded rounds have it.
            assert_eq!(report.timing[0].bands.is_empty(), threads == 1);
            deterministic_sides.push(report.phases);
        }
        assert_eq!(deterministic_sides[0], deterministic_sides[1]);
        assert_eq!(deterministic_sides[0], deterministic_sides[2]);
        let phase = &deterministic_sides[0][0];
        // Rounds include the sweep that detects the fixed point.
        assert_eq!(phase.rounds, k as u64 + 1);
        // Round 1 sweeps all n rows, later rounds only the dependants of
        // last round's changed rows — so the recomputation total sits
        // between one full sweep and rounds·n.
        assert!(phase.rows_recomputed >= n as u64);
        assert!(phase.rows_recomputed <= phase.rounds * n as u64);
        assert_eq!(phase.peak_frontier, n as u64, "round 1 sweeps every row");
        let settle = phase.settle.expect("σ engines emit settle events");
        assert_eq!(settle.count, n as u64);
        assert!(settle.max <= k as u64);
    }

    #[test]
    fn pool_executor_stages_sigma_rows_and_flags_changes() {
        let alg = BoundedHopCount::new(12);
        let n = 24;
        let topo = generators::line(n).with_weights(|_, _| 1u64);
        let adj = AdjacencyMatrix::<BoundedHopCount>::from_topology(&topo);
        let x = sigma(&alg, &adj, &RoutingState::identity(&alg, n));
        let next = sigma(&alg, &adj, &x);
        let worklists: [Vec<usize>; 3] = [(0..n).collect(), vec![3, 4, 17], vec![9]];
        for rows in &worklists {
            for threads in [1, 2, 3, 8] {
                let mut staging = vec![alg.invalid(); rows.len() * n];
                let mut changed = vec![false; rows.len()];
                let work = RoundWork {
                    round: 1,
                    adj: &adj,
                    state: &x,
                    rows,
                    staging: &mut staging,
                    changed: &mut changed,
                };
                OnPool::shared(threads).recompute(&alg, work, &mut NoopSink);
                for (pos, &i) in rows.iter().enumerate() {
                    let slot = &staging[pos * n..(pos + 1) * n];
                    assert_eq!(slot, next.row(i), "row {i} threads={threads}");
                    assert_eq!(changed[pos], next.row(i) != x.row(i), "row {i}");
                }
            }
        }
    }
}

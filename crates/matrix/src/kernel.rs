//! The σ kernel: one resumable frontier iteration behind every σ fixed
//! point in the crate except the destination-blocked one.
//!
//! Row `i` of `σ(X)` reads only the rows `k` node `i` imports from, so a
//! row whose inputs did not change last round cannot change this round.
//! A [`Stepper`] therefore keeps a [`Frontier`] of the rows that may
//! still move and recomputes only those:
//!
//! * **Start frontier.**  All rows for a fresh iteration from an arbitrary
//!   state ([`Frontier::full`]); after a topology change, only the rows
//!   whose import neighbourhood differs
//!   ([`crate::incremental::dirty_rows_after_change`]),
//!   which is sound when the start state is a fixed point of the old
//!   topology.  Full σ is the kernel started with every row on the
//!   frontier.
//! * **Jacobi staging.**  A round recomputes every frontier row from the
//!   previous round's state into a staging buffer, then applies the rows
//!   that changed.  Rows off the frontier satisfy `σ(X)[i] = X[i]`, so the
//!   sequence of states is exactly the naive `σ^k(x0)` for every algebra.
//!   The dependants of every changed row form the next frontier.
//! * **Executor.**  A round's work list is recomputed inline or sharded
//!   across contiguous degree-balanced bands of a worker pool (see
//!   [`crate::parallel`]).  Each row is written by one worker from the same
//!   immutable state, so the trajectory is bit-identical for every
//!   thread count.
//! * **Stepping and probing.**  [`Stepper::step`] runs and commits one
//!   round and can be called, interrupted and resumed at will: the state,
//!   frontier and counters live in the stepper, so a run split into
//!   chunks is the uninterrupted run.  [`Stepper::probe`] computes a round
//!   without committing it.  [`Stepper::run`] is the one driver: it steps
//!   to a fixed point or a round budget.
//!
//! A round emits `round_start`/`round_end` (frontier size, rows changed),
//! sharded rounds add `band_sweep` per band, and the driver ends with one
//! `node_settled` per node.  If a round panics (an injected pool fault)
//! and is stepped again, its `round_start` is not repeated.

use crate::adjacency::AdjacencyMatrix;
use crate::frontier::Frontier;
use crate::parallel::{Executor, RoundWork};
use crate::state::RoutingState;
use dbf_algebra::RoutingAlgebra;
use dbf_telemetry::TelemetrySink;
use std::borrow::Cow;
use std::time::Instant;

/// The outcome of a σ iteration.
#[derive(Clone, Debug)]
pub struct SigmaOutcome<A: RoutingAlgebra> {
    /// The final state (a fixed point when `converged` is true).
    pub state: RoutingState<A>,
    /// Rounds that changed the state: the number of σ applications it
    /// took to reach `state` from the start (the quantity of Section 8.1).
    pub iterations: usize,
    /// Rounds run, each recomputing the frontier of its time.  One more
    /// than `iterations` when the last round found nothing to change.
    pub rounds: usize,
    /// Row recomputations across those rounds.  A full σ round costs `n`.
    pub row_recomputations: u64,
    /// Whether a fixed point was reached within the round budget.
    pub converged: bool,
}

/// A resumable frontier σ iteration: the state, the frontier, the staging
/// buffers, the dependency lists and the settle rounds of one run.
///
/// The algebra is passed to each call rather than held, so a long-lived
/// owner (the route server's parked reconvergence) can keep a stepper
/// over an owned adjacency next to the algebra it already owns.
pub struct Stepper<'a, A: RoutingAlgebra> {
    adj: Cow<'a, AdjacencyMatrix<A>>,
    /// `dependants[k]` = the rows that read row `k`.
    dependants: Vec<Vec<usize>>,
    state: RoutingState<A>,
    frontier: Frontier,
    next: Frontier,
    /// One staged row per work-list position, reused across rounds.
    staging: Vec<A::Route>,
    changed: Vec<bool>,
    /// The last round in which each row changed (0: never).
    settled_at: Vec<u64>,
    rounds: usize,
    iterations: usize,
    row_recomputations: u64,
    /// The last round (committed or probed) changed nothing.
    quiet: bool,
    /// `round_start` was emitted for a round that has not ended (it
    /// panicked); stepping again resumes that round's event pair.
    open: bool,
}

impl<'a, A: RoutingAlgebra> Stepper<'a, A> {
    /// A stepper at `x0` whose first round recomputes the rows of `start`.
    ///
    /// # Panics
    ///
    /// Panics if `adj`, `x0` and `start` disagree on the node count.
    pub fn new(adj: Cow<'a, AdjacencyMatrix<A>>, x0: RoutingState<A>, start: Frontier) -> Self {
        let n = adj.node_count();
        assert_eq!(
            n,
            x0.node_count(),
            "adjacency and state dimensions must match"
        );
        assert_eq!(n, start.node_count(), "frontier dimension must match");
        Stepper {
            dependants: adj.dependants(),
            adj,
            state: x0,
            frontier: start,
            next: Frontier::new(n),
            staging: Vec::new(),
            changed: Vec::new(),
            settled_at: vec![0; n],
            rounds: 0,
            iterations: 0,
            row_recomputations: 0,
            quiet: false,
            open: false,
        }
    }

    /// The current state.
    pub fn state(&self) -> &RoutingState<A> {
        &self.state
    }

    /// Rounds committed so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Row recomputations committed so far.
    pub fn row_recomputations(&self) -> u64 {
        self.row_recomputations
    }

    /// Is the frontier empty (the state is a fixed point)?
    pub fn is_settled(&self) -> bool {
        self.frontier.is_empty()
    }

    /// Run and commit one round: recompute the frontier, apply the rows
    /// that changed, and make their dependants the next frontier.
    /// Returns the number of rows that changed.
    pub fn step<E, S>(&mut self, alg: &A, exec: &E, tel: &mut S) -> u64
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        self.round(alg, exec, true, tel)
    }

    /// Compute the next round without committing it: the state, frontier
    /// and counters stay as they are.  Returns the number of rows that
    /// would change; zero certifies a fixed point.
    pub fn probe<E, S>(&mut self, alg: &A, exec: &E, tel: &mut S) -> u64
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        self.round(alg, exec, false, tel)
    }

    fn round<E, S>(&mut self, alg: &A, exec: &E, commit: bool, tel: &mut S) -> u64
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        let n = self.state.node_count();
        let round = self.rounds as u64 + 1;
        let t0 = tel.enabled().then(Instant::now);
        let rows = self.frontier.sorted();
        let len = rows.len();
        if !self.open {
            tel.round_start(round, len as u64, len as u64);
            self.open = true;
        }
        if self.staging.len() < len * n {
            self.staging.resize(len * n, alg.invalid());
        }
        self.changed.clear();
        self.changed.resize(len, false);
        let work = RoundWork {
            round,
            adj: &*self.adj,
            state: &self.state,
            rows,
            staging: &mut self.staging[..len * n],
            changed: &mut self.changed,
        };
        exec.recompute(alg, work, tel);
        let mut changed = 0u64;
        for (pos, &i) in rows
            .iter()
            .enumerate()
            .filter(|&(pos, _)| self.changed[pos])
        {
            changed += 1;
            // A probed round's movers count as settling in that round,
            // as full σ's budget-boundary round always reported them.
            self.settled_at[i] = round;
            if commit {
                if len < n {
                    let slot = &mut self.staging[pos * n..(pos + 1) * n];
                    self.state.row_mut(i).swap_with_slice(slot);
                }
                for &d in &self.dependants[i] {
                    self.next.insert(d);
                }
            }
        }
        if commit {
            if len == n && changed > 0 {
                // Every row was staged, so the staging buffer is σ(X).
                self.state.swap_entries(&mut self.staging);
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.clear();
            self.rounds += 1;
            self.iterations += usize::from(changed > 0);
            self.row_recomputations += len as u64;
        }
        self.quiet = changed == 0;
        let wall_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        tel.round_end(round, len as u64, changed, wall_ns);
        self.open = false;
        changed
    }

    /// The driver: step until the frontier empties or `budget` rounds have
    /// been committed in all (counting rounds stepped before this call),
    /// then emit `node_settled` for every node.
    ///
    /// With `probe` set the run is certified the way full σ certifies it:
    /// a fixed point is only reported after a round that changed nothing.
    /// If the run stops without one — the budget ran out, or the frontier
    /// emptied right after a changing round — one more round is probed
    /// and decides `converged`; it is traced but not counted.
    pub fn run<E, S>(
        mut self,
        alg: &A,
        exec: &E,
        budget: usize,
        probe: bool,
        tel: &mut S,
    ) -> SigmaOutcome<A>
    where
        E: Executor<A>,
        S: TelemetrySink + ?Sized,
    {
        while !self.is_settled() && self.rounds < budget {
            self.step(alg, exec, tel);
        }
        if probe && !self.quiet {
            self.probe(alg, exec, tel);
        }
        self.emit_settles(tel);
        self.finish().0
    }

    /// Emit `node_settled` for every node, in node order: the last round
    /// in which its row changed (0 if it never moved).
    pub fn emit_settles<S: TelemetrySink + ?Sized>(&self, tel: &mut S) {
        if tel.enabled() {
            for (node, &round) in self.settled_at.iter().enumerate() {
                tel.node_settled(node, round);
            }
        }
    }

    /// The outcome so far, and the adjacency back.  `converged` holds when
    /// the frontier is empty or the last round changed nothing.
    pub fn finish(self) -> (SigmaOutcome<A>, Cow<'a, AdjacencyMatrix<A>>) {
        let outcome = SigmaOutcome {
            converged: self.quiet || self.frontier.is_empty(),
            state: self.state,
            iterations: self.iterations,
            rounds: self.rounds,
            row_recomputations: self.row_recomputations,
        };
        (outcome, self.adj)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan};
    use crate::incremental::dirty_rows_after_change;
    use crate::parallel::{Inline, OnPool, ParallelAlgebra};
    use crate::pool::WorkerPool;
    use crate::sigma::{sigma, sigma_k};
    use dbf_algebra::prelude::*;
    use dbf_telemetry::{AggregatingSink, NoopSink};
    use dbf_topology::generators;
    use std::sync::Arc;

    /// The naive reference: apply σ until the state is stable or `budget`
    /// applications have changed it.  Returns `(σ^k(x0), k, stable)`.
    pub(crate) fn naive<A: RoutingAlgebra>(
        alg: &A,
        adj: &AdjacencyMatrix<A>,
        x0: &RoutingState<A>,
        budget: usize,
    ) -> (RoutingState<A>, usize, bool) {
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

    /// Run the kernel from `x0` with `start` on the frontier.
    pub(crate) fn run_kernel<A>(
        alg: &A,
        adj: &AdjacencyMatrix<A>,
        x0: &RoutingState<A>,
        start: Frontier,
        budget: usize,
        probe: bool,
        threads: usize,
    ) -> SigmaOutcome<A>
    where
        A: ParallelAlgebra,
        A::Route: Send + Sync,
        A::Edge: Sync,
    {
        let exec = OnPool::shared(threads);
        Stepper::new(Cow::Borrowed(adj), x0.clone(), start).run(
            alg,
            &exec,
            budget,
            probe,
            &mut NoopSink,
        )
    }

    /// Check a kernel outcome against naive σ from `x0`.  Its state is
    /// `σ^iterations(x0)` in every mode.  With the probe, `iterations`
    /// and `converged` are exactly naive's; without it the rounds fit the
    /// budget, a quiet round adds at most one, and an unconverged run
    /// changed the state in every round.
    pub(crate) fn assert_naive<A: RoutingAlgebra>(
        alg: &A,
        adj: &AdjacencyMatrix<A>,
        x0: &RoutingState<A>,
        out: &SigmaOutcome<A>,
        budget: usize,
        probe: bool,
    ) {
        assert!(
            out.state == sigma_k(alg, adj, x0, out.iterations),
            "state off the σ trajectory"
        );
        let (_, k, stable) = naive(alg, adj, x0, budget);
        if probe {
            assert_eq!(
                (out.iterations, out.converged),
                (k, stable),
                "budget {budget}"
            );
        } else {
            assert!(out.rounds <= budget && out.rounds - out.iterations <= 1);
            assert!(!out.converged || out.state == sigma(alg, adj, &out.state));
            if stable && k < budget {
                assert!(out.converged, "budget {budget}: converges at {k}");
            }
            if !out.converged {
                assert_eq!((out.rounds, out.iterations), (budget, budget));
            }
        }
    }

    fn widest_fabric(spines: usize, leaves: usize) -> (WidestPaths, AdjacencyMatrix<WidestPaths>) {
        let alg = WidestPaths::new();
        let topo = generators::leaf_spine(spines, leaves)
            .with_weights(|i, j| NatInf::fin(((i * 11 + j * 5) % 90 + 10) as u64));
        (alg, AdjacencyMatrix::from_topology(&topo))
    }

    fn weighted_ring(n: usize) -> AdjacencyMatrix<ShortestPaths> {
        let topo =
            generators::ring(n).with_weights(|i, j| NatInf::fin(((i * 7 + j * 13) % 9 + 1) as u64));
        AdjacencyMatrix::from_topology(&topo)
    }

    #[test]
    fn kernel_walks_the_naive_trajectory_at_every_thread_count_and_budget() {
        let (alg, adj) = widest_fabric(3, 13);
        let x0 = RoutingState::identity(&alg, 16);
        let fixed = naive(&alg, &adj, &x0, 200).0;
        let mut cut = adj.clone();
        cut.set(0, 6, None);
        cut.set(6, 0, None);
        let dirty = dirty_rows_after_change(&adj, &cut);
        let starts = [
            (&adj, &x0, Frontier::full(16)),
            (&cut, &fixed, Frontier::from_mask(&dirty)),
        ];
        for (a, x, start) in &starts {
            for threads in [1, 2, 8] {
                for budget in (0..=6).chain([200]) {
                    for probe in [true, false] {
                        let out = run_kernel(&alg, a, x, start.clone(), budget, probe, threads);
                        assert_naive(&alg, a, x, &out, budget, probe);
                    }
                }
            }
        }
    }

    #[test]
    fn stepping_and_resuming_is_one_run() {
        let alg = ShortestPaths::new();
        let adj = weighted_ring(23);
        let x0 = RoutingState::identity(&alg, 23);
        let exec = OnPool::shared(2);
        let whole = |tel: &mut AggregatingSink| {
            tel.phase_start("p", 23);
            let s = Stepper::new(Cow::Borrowed(&adj), x0.clone(), Frontier::full(23));
            let out = s.run(&alg, &exec, 300, false, tel);
            tel.phase_end("p");
            out
        };
        let mut sink = AggregatingSink::new();
        let reference = whole(&mut sink);
        let reference_events = sink.finish().phases;
        assert!(reference.converged && reference.rounds > 3);
        for split in 0..=reference.rounds + 1 {
            let mut tel = AggregatingSink::new();
            tel.phase_start("p", 23);
            let mut s = Stepper::new(Cow::Borrowed(&adj), x0.clone(), Frontier::full(23));
            for _ in 0..split {
                if !s.is_settled() {
                    s.step(&alg, &exec, &mut tel);
                }
            }
            let out = s.run(&alg, &exec, 300, false, &mut tel);
            tel.phase_end("p");
            assert_eq!(out.state, reference.state, "split {split}");
            assert_eq!(out.iterations, reference.iterations, "split {split}");
            assert_eq!(out.rounds, reference.rounds, "split {split}");
            assert_eq!(out.row_recomputations, reference.row_recomputations);
            assert!(out.converged);
            assert_eq!(tel.finish().phases, reference_events, "split {split}");
        }
    }

    /// Records the deterministic arguments of every round event.
    #[derive(Default)]
    struct RoundLog(Vec<(&'static str, u64, u64, u64)>);

    impl TelemetrySink for RoundLog {
        fn round_start(&mut self, round: u64, scheduled: u64, frontier: u64) {
            self.0.push(("start", round, scheduled, frontier));
        }
        fn round_end(&mut self, round: u64, recomputed: u64, changed: u64, _wall_ns: u64) {
            self.0.push(("end", round, recomputed, changed));
        }
    }

    #[test]
    fn a_failed_epoch_is_retried_as_the_same_round() {
        let alg = ShortestPaths::new();
        let adj = weighted_ring(17);
        let x0 = RoutingState::identity(&alg, 17);
        let run = |plan: Option<FaultPlan>| {
            let pool = WorkerPool::new(1);
            if let Some(plan) = plan {
                pool.arm_faults(Arc::new(plan));
            }
            let exec = OnPool {
                pool: &pool,
                threads: 2,
            };
            let mut log = RoundLog::default();
            let mut s = Stepper::new(Cow::Borrowed(&adj), x0.clone(), Frontier::full(17));
            let mut failures = 0;
            while !s.is_settled() {
                let round = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    s.step(&alg, &exec, &mut log)
                }));
                failures += usize::from(round.is_err());
            }
            (s.finish().0, log.0, failures)
        };
        let (clean, clean_log, none) = run(None);
        let (faulted, faulted_log, failures) =
            run(Some(FaultPlan::new(3).with(FaultKind::FailEpoch, 2)));
        assert_eq!((none, failures), (0, 1), "the fault fires once");
        assert_eq!(faulted.state, clean.state);
        assert_eq!(faulted.state, naive(&alg, &adj, &x0, 300).0);
        assert_eq!(
            (
                faulted.iterations,
                faulted.rounds,
                faulted.row_recomputations
            ),
            (clean.iterations, clean.rounds, clean.row_recomputations)
        );
        assert_eq!(
            faulted_log, clean_log,
            "each round's events reach the sink once"
        );
    }

    #[test]
    fn probe_certifies_a_fixed_point_without_committing() {
        let alg = ShortestPaths::new();
        let topo = generators::line(8).with_weights(|_, _| NatInf::fin(1));
        let adj = AdjacencyMatrix::from_topology(&topo);
        let x0 = RoutingState::identity(&alg, 8);
        let full = run_kernel(&alg, &adj, &x0, Frontier::full(8), 100, true, 1);
        let k = full.iterations;
        assert!(
            full.converged && k == 7,
            "a line settles in diameter rounds"
        );
        // The budget boundary: k changing rounds, then the probe finds
        // nothing to change and is not counted.
        let exact = run_kernel(&alg, &adj, &x0, Frontier::full(8), k, true, 1);
        assert!(exact.converged);
        assert_eq!((exact.iterations, exact.rounds), (k, k));
        let short = run_kernel(&alg, &adj, &x0, Frontier::full(8), k - 1, true, 1);
        assert!(!short.converged);
        // A probe leaves state, frontier and counters alone.
        let mut s = Stepper::new(Cow::Borrowed(&adj), x0.clone(), Frontier::full(8));
        s.step(&alg, &Inline, &mut NoopSink);
        let before = s.state().clone();
        let would = s.probe(&alg, &Inline, &mut NoopSink);
        assert!(would > 0);
        assert_eq!((s.state(), s.rounds(), s.is_settled()), (&before, 1, false));
        assert_eq!(
            s.step(&alg, &Inline, &mut NoopSink),
            would,
            "the probed round is the next round"
        );
    }
}

//! Destination-blocked σ: fixed points at scales where the square routing
//! state no longer fits in memory.
//!
//! σ is column-separable — `σ(X)[i][j] = (⨁_k A_ik(X[k][j])) ⊕ I[i][j]`
//! touches only column `j` of `X` — so the fixed point over all `n`
//! destinations is the concatenation of independent fixed points over
//! destination *blocks*.  A block of `w` destinations iterates an `n × w`
//! slab (two buffers of `n·w` cells) instead of the square `n × n` state:
//! at `n = 10⁵`, where a single square buffer would be ~160 GB, the two
//! buffers of a 1024-wide slab take ~0.8 GB on `u32` lanes (~3.3 GB as
//! 16-byte routes) and the whole computation streams through memory
//! block by block.
//!
//! Each block runs the same frontier discipline as the σ kernel
//! ([`crate::kernel::Stepper`]): round 1 sweeps every row, later rounds
//! recompute only the dependants of rows that changed, the change test is
//! fused into the streaming write, and the needs/prev/flags triple keeps
//! the idle buffer refreshed without full-slab copies.  The per-block
//! trajectory is therefore exactly what the square iteration would produce
//! for those columns — blocking changes memory traffic, never results.
//!
//! # Lanes
//!
//! The slab loop is written once, over a cell arithmetic.  An algebra
//! that declares itself exact capped min-plus arithmetic
//! ([`RoutingAlgebra::min_plus`]: hop count, shortest paths) runs on `u32`
//! lanes — the distance itself, with `u32::MAX` for `∞̄` and `0` for `0̄`
//! — so ⊕ is an integer `min` and extension a compare-and-add that the
//! compiler vectorises.  Every other algebra (paths, BGP, lexicographic
//! products) runs on its own routes, unchanged.  The lane path is taken
//! only when it is exact by construction: starting from the identity
//! slab, no value a block can reach within its budget exceeds
//! `min(cap, (max_rounds + 1) · largest increment)`, and lanes are used
//! only when that bound is below `u32::MAX`.  Otherwise — say shortest
//! paths with weights near 2³² — the run takes the route cells, with the
//! same outcome and more time.  There is no switch: the algebra's
//! declaration and the instance pick the path.
//!
//! Results are digested, not materialised: the [`BlockedOutcome`] carries
//! an FNV-1a digest of the per-destination column digests in destination
//! order, where column `j`'s digest is FNV-1a over `({i},{j})={route:?};`
//! for rows `i` in order.  Every column lives entirely inside one block,
//! so the combined digest is **invariant under the block width** — `--block`
//! is a pure memory-layout choice, like `--row-order` and `--threads`.
//! It is also the same on lanes and on route cells: the digest feeds FNV
//! those exact bytes, but takes each index's decimal text from a table
//! built once per run, and each distinct lane's `{route:?}` text —
//! rendered by the route's own `Debug` — from a memo, so no entry is
//! formatted.

use crate::adjacency::AdjacencyMatrix;
use dbf_algebra::{MinPlus, RoutingAlgebra};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};

/// The outcome of a destination-blocked fixed-point computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedOutcome {
    /// FNV-1a digest of the per-column digests in destination order
    /// (see the module docs) — identical for every block width.
    pub digest: String,
    /// Destination blocks processed (`⌈n / block⌉`).
    pub blocks: usize,
    /// σ rounds summed across all blocks.
    pub rounds_total: u64,
    /// The worst single block's round count — the answer to "how many
    /// synchronous rounds does this fabric need?", since blocks of a
    /// converging algebra all see the same propagation depth.
    pub rounds_max: usize,
    /// Row recomputations summed across all blocks (each costs
    /// `O(deg(i) · w)` route operations).
    pub row_recomputations: u64,
    /// Whether **every** block reached its fixed point within the budget.
    pub converged: bool,
}

/// The cell arithmetic the slab loop runs on: the algebra's own routes
/// ([`RouteCells`]) or, for an exactly capped min-plus algebra, `u32`
/// distances ([`Lanes`]).
trait Cells {
    type Cell: Clone + PartialEq;
    type Edge;
    /// Row `i` of the adjacency as `(neighbour, edge)` pairs.
    fn row(&self, i: usize) -> &[(usize, Self::Edge)];
    fn invalid(&self) -> Self::Cell;
    fn trivial(&self) -> Self::Cell;
    fn extend(&self, f: &Self::Edge, c: &Self::Cell) -> Self::Cell;
    fn choice(&self, a: &Self::Cell, b: &Self::Cell) -> Self::Cell;
    /// `{route:?};` for the route `c` holds: the digest's per-entry tail.
    fn text(&mut self, c: &Self::Cell) -> &[u8];
}

/// The algebra's own routes and edges, for algebras without lanes.
struct RouteCells<'a, A: RoutingAlgebra> {
    alg: &'a A,
    adj: &'a AdjacencyMatrix<A>,
    text: String,
}

impl<A: RoutingAlgebra> Cells for RouteCells<'_, A> {
    type Cell = A::Route;
    type Edge = A::Edge;

    fn row(&self, i: usize) -> &[(usize, A::Edge)] {
        self.adj.row(i)
    }

    fn invalid(&self) -> A::Route {
        self.alg.invalid()
    }

    fn trivial(&self) -> A::Route {
        self.alg.trivial()
    }

    fn extend(&self, f: &A::Edge, c: &A::Route) -> A::Route {
        self.alg.extend(f, c)
    }

    fn choice(&self, a: &A::Route, b: &A::Route) -> A::Route {
        self.alg.choice(a, b)
    }

    fn text(&mut self, c: &A::Route) -> &[u8] {
        // Routes need not be hashable, so there is no memo to key: the
        // text is rewritten for every entry.
        self.text.clear();
        write!(self.text, "{c:?};").expect("writing to a String cannot fail");
        self.text.as_bytes()
    }
}

/// An exactly capped min-plus algebra on `u32` lanes: lane `d` is the
/// route at distance `d`, `u32::MAX` is `∞̄` and `0` is `0̄`.
struct Lanes<A: RoutingAlgebra> {
    /// Row `i`'s `(neighbour, increment)` links are
    /// `links[start[i]..start[i + 1]]`.  Every increment is at most `cap`.
    start: Vec<usize>,
    links: Vec<(usize, u32)>,
    /// The largest finite lane; an extension above it is `∞̄`.  Always
    /// below `u32::MAX`.
    cap: u32,
    route: fn(Option<u64>) -> A::Route,
    /// Each distinct lane's text, rendered once from its route's `Debug`.
    texts: HashMap<u32, Box<[u8]>, BuildHasherDefault<LaneHasher>>,
}

impl<A: RoutingAlgebra> Lanes<A> {
    /// The lane form of `alg` over `adj` for a run of at most
    /// `max_rounds + 1` σ applications per block, or `None` when the
    /// algebra declares no [`MinPlus`] form or some distance the run could
    /// reach might not fit below `u32::MAX`.
    ///
    /// Starting from the identity slab, a distance after `r` applications
    /// sums at most `r` increments, so every reachable finite value is at
    /// most `bound = min(cap, (max_rounds + 1) · largest increment)`.
    /// Lanes are taken only when `bound < u32::MAX`, and `bound` becomes
    /// the lane cap: below it the lane sums are the algebra's distances,
    /// and above it the algebra's answer is `∞̄` too (its cap) or never
    /// arises (the reach).  A link adding more than `bound` therefore
    /// yields `∞̄` from every route, the identity of ⊕, and is left out.
    fn new(alg: &A, adj: &AdjacencyMatrix<A>, max_rounds: usize) -> Option<Self> {
        let mp: MinPlus<A> = alg.min_plus()?;
        let n = adj.node_count();
        let largest = (0..n)
            .flat_map(|i| adj.row(i))
            .filter_map(|(_, f)| (mp.increment)(f))
            .max()
            .unwrap_or(0);
        let reach = (max_rounds as u64)
            .checked_add(1)
            .and_then(|r| r.checked_mul(largest));
        let bound = match (mp.cap, reach) {
            (Some(cap), Some(reach)) => cap.min(reach),
            (cap, reach) => cap.or(reach)?,
        };
        let cap = u32::try_from(bound).ok().filter(|&c| c < u32::MAX)?;
        let mut start = Vec::with_capacity(n + 1);
        let mut links = Vec::with_capacity(adj.link_count());
        start.push(0);
        for i in 0..n {
            for (k, f) in adj.row(i) {
                if let Some(inc) = (mp.increment)(f).filter(|&d| d <= bound) {
                    links.push((*k, inc as u32));
                }
            }
            start.push(links.len());
        }
        Some(Self {
            start,
            links,
            cap,
            route: mp.route,
            texts: HashMap::default(),
        })
    }
}

impl<A: RoutingAlgebra> Cells for Lanes<A> {
    type Cell = u32;
    type Edge = u32;

    fn row(&self, i: usize) -> &[(usize, u32)] {
        &self.links[self.start[i]..self.start[i + 1]]
    }

    fn invalid(&self) -> u32 {
        u32::MAX
    }

    fn trivial(&self) -> u32 {
        0
    }

    #[inline]
    fn extend(&self, f: &u32, c: &u32) -> u32 {
        // Links never add more than the cap, so `cap - f` cannot wrap, and
        // ∞̄ is above every threshold.
        if *c > self.cap - *f {
            u32::MAX
        } else {
            c + f
        }
    }

    #[inline]
    fn choice(&self, a: &u32, b: &u32) -> u32 {
        *a.min(b)
    }

    fn text(&mut self, c: &u32) -> &[u8] {
        let route = self.route;
        self.texts.entry(*c).or_insert_with(|| {
            let d = (*c != u32::MAX).then_some(u64::from(*c));
            format!("{:?};", route(d)).into_bytes().into_boxed_slice()
        })
    }
}

/// Fibonacci hashing for the lane-keyed text memo: its keys are the
/// kernel's own distances, never outside input, so the default hasher's
/// collision resistance buys nothing here.
#[derive(Default)]
struct LaneHasher(u64);

impl Hasher for LaneHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        fnv_update(&mut self.0, bytes);
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One row of the slab σ round, fused with the change test: recompute
/// `σ(cur)[i][j0..j0+w]` into `out` and report whether it differs from
/// `cur`'s row.  The diagonal override applies when `i` lies inside the
/// block's destination window.
fn slab_row_changed<C: Cells>(
    cells: &C,
    cur: &[C::Cell],
    w: usize,
    j0: usize,
    i: usize,
    out: &mut [C::Cell],
) -> bool {
    let old = &cur[i * w..(i + 1) * w];
    let diag = (i >= j0 && i < j0 + w).then(|| i - j0);
    let Some(((last_k, last_f), rest)) = cells.row(i).split_last() else {
        let mut changed = false;
        for (jl, (d, o)) in out.iter_mut().zip(old.iter()).enumerate() {
            let v = if diag == Some(jl) {
                cells.trivial()
            } else {
                cells.invalid()
            };
            changed |= v != *o;
            *d = v;
        }
        return changed;
    };
    out.fill(cells.invalid());
    for (k, f) in rest {
        let src = &cur[k * w..(k + 1) * w];
        for (d, s) in out.iter_mut().zip(src.iter()) {
            let candidate = cells.extend(f, s);
            *d = cells.choice(d, &candidate);
        }
    }
    // The last neighbour's fold is fused with the change test.  It runs
    // on either side of the diagonal entry, which is 0̄ whatever the
    // neighbours offer, so the loops carry no per-entry diagonal test.
    // The adjacency row never contains `i` itself, so reading
    // `cur[last_k]` while writing row `i` cannot alias.
    let src = &cur[last_k * w..(last_k + 1) * w];
    let (lo, hi) = diag.map_or((w, w), |jl| (jl, jl + 1));
    let mut changed = false;
    for span in [0..lo, hi..w] {
        let (out, src, old) = (&mut out[span.clone()], &src[span.clone()], &old[span]);
        for ((d, s), o) in out.iter_mut().zip(src).zip(old) {
            let v = cells.choice(d, &cells.extend(last_f, s));
            changed |= v != *o;
            *d = v;
        }
    }
    if let Some(jl) = diag {
        out[jl] = cells.trivial();
        changed |= out[jl] != old[jl];
    }
    changed
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv_update(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Fold a converged slab into `digest`: column `jl` hashes
/// `({i},{j})={route:?};` for every row `i` in order, then the columns
/// fold in destination order.  `row_keys[i]` is `({i},` and `col_keys[jl]`
/// is `{j0 + jl})=`, so the bytes are exactly those of the formatted
/// entries without formatting any.
fn digest_block<C: Cells>(
    cells: &mut C,
    slab: &[C::Cell],
    row_keys: &[Box<[u8]>],
    col_keys: &[Box<[u8]>],
    digest: &mut u64,
) {
    let mut cols = vec![FNV_OFFSET; col_keys.len()];
    for (row, row_key) in slab.chunks(col_keys.len()).zip(row_keys) {
        // Every column of the row starts with the same `({i},`: feeding it
        // byte by byte across all columns keeps many independent FNV
        // chains in flight instead of one.
        for &b in row_key.iter() {
            for h in cols.iter_mut() {
                *h = (*h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        for ((h, c), col_key) in cols.iter_mut().zip(row).zip(col_keys) {
            fnv_update(h, col_key);
            fnv_update(h, cells.text(c));
        }
    }
    for h in &cols {
        fnv_update(digest, format!("{h:016x}").as_bytes());
    }
}

/// Iterate σ to the fixed point over destination blocks of width `block`,
/// digesting each block's converged slab instead of keeping it.
///
/// `max_rounds` is the per-block round budget; a block that exhausts it
/// clears `converged` but the remaining blocks still run (the digest then
/// covers whatever states the budget left, exactly like a non-converged
/// square iteration).  Progress can be observed via `on_block`, called
/// after each block with `(block_index, rounds, row_recomputations)`.
///
/// An algebra that declares a [`MinPlus`] form runs on `u32` lanes when
/// every distance the run can reach fits (see the module docs); the
/// outcome is identical either way.
///
/// # Panics
///
/// Panics if `block` is zero or the adjacency is empty.
pub fn blocked_fixed_point<A: RoutingAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    block: usize,
    max_rounds: usize,
    on_block: impl FnMut(usize, usize, u64),
) -> BlockedOutcome {
    assert!(block > 0, "block width must be positive");
    assert!(
        adj.node_count() > 0,
        "blocked iteration needs at least one node"
    );
    let dependants = adj.dependants();
    match Lanes::new(alg, adj, max_rounds) {
        Some(lanes) => run_blocks(lanes, &dependants, block, max_rounds, on_block),
        None => {
            let cells = RouteCells {
                alg,
                adj,
                text: String::new(),
            };
            run_blocks(cells, &dependants, block, max_rounds, on_block)
        }
    }
}

/// The slab loop of [`blocked_fixed_point`] over one cell arithmetic.
fn run_blocks<C: Cells>(
    mut cells: C,
    dependants: &[Vec<usize>],
    block: usize,
    max_rounds: usize,
    mut on_block: impl FnMut(usize, usize, u64),
) -> BlockedOutcome {
    let n = dependants.len();
    let row_keys: Vec<Box<[u8]>> = (0..n)
        .map(|i| format!("({i},").into_bytes().into())
        .collect();
    let col_keys: Vec<Box<[u8]>> = (0..n)
        .map(|j| format!("{j})=").into_bytes().into())
        .collect();
    let mut digest = FNV_OFFSET;
    let mut blocks = 0usize;
    let mut rounds_total = 0u64;
    let mut rounds_max = 0usize;
    let mut work = 0u64;
    let mut converged = true;

    let mut cur: Vec<C::Cell> = Vec::new();
    let mut next: Vec<C::Cell> = Vec::new();
    let mut needs = vec![true; n];
    let mut prev = vec![true; n];
    let mut flags = vec![false; n];

    let mut j0 = 0usize;
    while j0 < n {
        let w = block.min(n - j0);
        // The identity slab: ∞̄ everywhere, 0̄ where the row owns one of the
        // block's destinations.  Buffers are reused across blocks; they
        // only reallocate when the final ragged block shrinks `w`.
        cur.clear();
        cur.resize(n * w, cells.invalid());
        for i in j0..j0 + w {
            cur[i * w + (i - j0)] = cells.trivial();
        }
        next.clear();
        next.resize(n * w, cells.invalid());
        needs.fill(true);
        prev.fill(true);

        let mut block_rounds = max_rounds;
        let mut block_converged = false;
        let mut block_work = 0u64;
        for round in 0..=max_rounds {
            let mut changed = 0u64;
            for ((i, slot), flag) in next.chunks_mut(w).enumerate().zip(flags.iter_mut()) {
                *flag = if needs[i] {
                    block_work += 1;
                    slab_row_changed(&cells, &cur, w, j0, i, slot)
                } else {
                    if prev[i] {
                        let src = &cur[i * w..(i + 1) * w];
                        slot.clone_from_slice(src);
                    }
                    false
                };
                if *flag {
                    changed += 1;
                }
            }
            if changed == 0 {
                block_rounds = round;
                block_converged = true;
                break;
            }
            update_needs(dependants, &flags, &mut needs);
            std::mem::swap(&mut prev, &mut flags);
            std::mem::swap(&mut cur, &mut next);
        }

        // Each destination's column is complete inside this block, so
        // hashing columns independently and folding them in destination
        // order makes the digest block-width-invariant.
        digest_block(
            &mut cells,
            &cur,
            &row_keys,
            &col_keys[j0..j0 + w],
            &mut digest,
        );
        blocks += 1;
        rounds_total += block_rounds as u64;
        rounds_max = rounds_max.max(block_rounds);
        work += block_work;
        converged &= block_converged;
        on_block(blocks - 1, block_rounds, block_work);
        j0 += w;
    }

    BlockedOutcome {
        digest: format!("{digest:016x}"),
        blocks,
        rounds_total,
        rounds_max,
        row_recomputations: work,
        converged,
    }
}

/// Recompute the next round's active frontier: exactly the dependants of
/// the rows whose values changed this round need a σ recomputation; every
/// other row is provably stable and may be copied.
fn update_needs(dependants: &[Vec<usize>], flags: &[bool], needs: &mut [bool]) {
    needs.fill(false);
    for (i, &changed) in flags.iter().enumerate() {
        if changed {
            for &d in &dependants[i] {
                needs[d] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RoutingState;
    use crate::sync::iterate_to_fixed_point;
    use dbf_algebra::prelude::*;
    use dbf_topology::{generators, Topology};

    fn ring_adj(n: usize) -> (BoundedHopCount, AdjacencyMatrix<BoundedHopCount>) {
        let topo = generators::ring(n).with_weights(|_, _| 1u64);
        (
            BoundedHopCount::new(16),
            AdjacencyMatrix::from_topology(&topo),
        )
    }

    /// The square-state digest in the blocked convention (folded
    /// per-column digests), for cross-checking.
    fn square_digest<A: RoutingAlgebra>(state: &RoutingState<A>) -> String {
        let n = state.node_count();
        let mut h = FNV_OFFSET;
        for j in 0..n {
            let mut col = FNV_OFFSET;
            for i in 0..n {
                let r = state.get(i, j);
                fnv_update(&mut col, format!("({i},{j})={r:?};").as_bytes());
            }
            fnv_update(&mut h, format!("{col:016x}").as_bytes());
        }
        format!("{h:016x}")
    }

    /// The wrapped algebra with its lane form hidden, which forces the
    /// route-cell path.
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

    /// The varied weights `scenarios scale-run --algebra shortest` uses
    /// (`WeightRule::varied`: `(7i + 13j) mod 9 + 1`).
    fn varied(i: usize, j: usize) -> NatInf {
        NatInf::fin(((7 * i + 13 * j) % 9 + 1) as u64)
    }

    /// Run `topo` on lanes (or, when `lanes` is false, check that the
    /// guard refuses them) and on route cells at block widths 1, 3, 7, n
    /// and n + 5: every outcome must agree field for field and, when the
    /// square iteration converges within the budget, match its digest and
    /// round count.
    fn assert_cell_paths_agree<A: RoutingAlgebra>(
        alg: A,
        topo: &Topology<A::Edge>,
        max_rounds: usize,
        lanes: bool,
    ) -> BlockedOutcome {
        let n = topo.node_count();
        let adj = AdjacencyMatrix::from_topology(topo);
        assert_eq!(Lanes::new(&alg, &adj, max_rounds).is_some(), lanes);
        let square =
            iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), max_rounds);
        let routes_only = RouteCellsOnly(alg);
        let route_adj = AdjacencyMatrix::from_topology(topo);
        assert!(Lanes::new(&routes_only, &route_adj, max_rounds).is_none());
        let mut last = None;
        for block in [1, 3, 7, n, n + 5] {
            let out = blocked_fixed_point(&routes_only.0, &adj, block, max_rounds, |_, _, _| {});
            let reference =
                blocked_fixed_point(&routes_only, &route_adj, block, max_rounds, |_, _, _| {});
            assert_eq!(
                out, reference,
                "block={block}: lane and route-cell paths differ"
            );
            if square.converged {
                assert!(out.converged, "block={block}");
                assert_eq!(out.digest, square_digest(&square.state), "block={block}");
                assert_eq!(out.rounds_max, square.iterations, "block={block}");
            }
            last = Some(out);
        }
        last.expect("at least one block width")
    }

    #[test]
    fn hop_count_lanes_match_route_cells_with_and_without_truncation() {
        let shapes = [
            generators::ring(17),
            generators::line(12),
            generators::star(9),
            generators::as_graph(40, 2, 3),
        ];
        for shape in &shapes {
            let n = shape.node_count();
            // A limit of n never truncates; 1 and 2 sit below every
            // shape's diameter, so the cap turns long routes into ∞̄.
            for limit in [n as u64, 2, 1] {
                let topo = shape.with_weights(|_, _| 1u64);
                let out = assert_cell_paths_agree(BoundedHopCount::new(limit), &topo, 200, true);
                assert!(out.converged, "n={n} limit={limit}");
            }
            // Links of 3 hops exceed a limit of 2 and drop out of the
            // lane rows.
            let topo = shape.with_weights(|i, j| 1 + ((i * j) % 3) as u64);
            assert_cell_paths_agree(BoundedHopCount::new(2), &topo, 200, true);
        }
    }

    #[test]
    fn shortest_path_lanes_match_route_cells_with_varied_weights() {
        let shapes = [
            generators::ring(15),
            generators::line(10),
            generators::star(8),
            generators::as_graph(50, 2, 1),
        ];
        for shape in &shapes {
            let out = assert_cell_paths_agree(
                ShortestPaths::new(),
                &shape.with_weights(varied),
                300,
                true,
            );
            assert!(out.converged);
            // Constant-∞̄ edges on some links.
            let topo = shape.with_weights(|i, j| {
                if (i + j) % 5 == 0 {
                    NatInf::INF
                } else {
                    varied(i, j)
                }
            });
            assert_cell_paths_agree(ShortestPaths::new(), &topo, 300, true);
        }
    }

    #[test]
    fn an_exhausted_budget_reports_non_convergence_on_both_paths() {
        let topo = generators::ring(9).with_weights(|_, _| 1u64);
        let out = assert_cell_paths_agree(BoundedHopCount::new(16), &topo, 1, true);
        assert!(!out.converged);
        let topo = generators::line(12).with_weights(varied);
        let out = assert_cell_paths_agree(ShortestPaths::new(), &topo, 2, true);
        assert!(!out.converged);
    }

    #[test]
    fn distances_too_wide_for_lanes_take_the_route_cells() {
        // Three hops of 1.5·10⁹ already pass u32::MAX, so lanes would be
        // inexact; the guard must refuse them and the digest still match
        // the square fixed point.
        let topo = generators::line(8).with_weights(|_, _| NatInf::fin(1_500_000_000));
        let out = assert_cell_paths_agree(ShortestPaths::new(), &topo, 20, false);
        assert!(out.converged);
        // The same weights with a budget of one round reach at most 3·10⁹.
        assert_cell_paths_agree(ShortestPaths::new(), &topo, 1, true);
    }

    #[test]
    fn blocked_matches_the_square_fixed_point_at_every_block_width() {
        let n = 17;
        let (alg, adj) = ring_adj(n);
        let square = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
        assert!(square.converged);
        for block in [1usize, 4, 7, 16, 17, 64] {
            let out = blocked_fixed_point(&alg, &adj, block, 200, |_, _, _| {});
            assert!(out.converged, "block={block}");
            assert_eq!(out.blocks, n.div_ceil(block));
            assert_eq!(
                out.digest,
                square_digest(&square.state),
                "block={block}: blocked and square fixed points differ \
                 (the digest must also be block-width-invariant)"
            );
            // Every block sees the ring's full propagation depth, so the
            // worst block takes exactly as many rounds as the square run.
            assert_eq!(out.rounds_max, square.iterations, "block={block}");
        }
    }

    #[test]
    fn blocked_shortest_paths_agree_too() {
        let n = 12;
        let topo = generators::as_graph(n, 2, 3)
            .with_weights(|i, j| NatInf::fin(((i * 7 + j * 3) % 11 + 1) as u64));
        let alg = ShortestPaths::new();
        let adj = AdjacencyMatrix::from_topology(&topo);
        let square = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, n), 200);
        assert!(square.converged);
        let out = blocked_fixed_point(&alg, &adj, 5, 200, |_, _, _| {});
        assert!(out.converged);
        assert_eq!(out.digest, square_digest(&square.state));
    }

    #[test]
    fn a_block_that_exhausts_its_budget_reports_non_convergence() {
        let (alg, adj) = ring_adj(9);
        let out = blocked_fixed_point(&alg, &adj, 4, 1, |_, _, _| {});
        assert!(!out.converged);
        assert_eq!(out.blocks, 3);
    }
}

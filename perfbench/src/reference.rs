//! Independent references the benchmark checks the program against.
//!
//! * [`RefNet`] applies the churn-trace change vocabulary to a plain edge
//!   map of its own, and [`RefNet::fixed_point`] iterates the naive σ from
//!   the identity until it stops moving.  The route server's table must
//!   equal it: strictly increasing algebras have a unique fixed point.
//! * [`bfs_blocked_digest`] rebuilds the destination-blocked digest of a
//!   hop-count fixed point from one breadth-first search per destination.

use dbf_algebra::RoutingAlgebra;
use dbf_matrix::{sigma, AdjacencyMatrix, RoutingState};
use dbf_scenario::{ChangeSpec, TopologySpec};
use dbf_topology::Topology;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write;

/// A directed weighted network kept outside the route server.
#[derive(Debug, Clone, PartialEq)]
pub struct RefNet {
    n: usize,
    /// Edge `(from, to)` → weight.
    edges: BTreeMap<(usize, usize), u64>,
}

impl RefNet {
    /// The initial network of a serve trace (a ring, every weight 1).
    pub fn from_spec(spec: &TopologySpec) -> RefNet {
        let TopologySpec::Ring { n } = *spec else {
            panic!("the benchmark's serve workloads run on rings, not {spec:?}");
        };
        let mut edges = BTreeMap::new();
        for i in 0..n {
            let j = (i + 1) % n;
            edges.insert((i, j), 1);
            edges.insert((j, i), 1);
        }
        RefNet { n, edges }
    }

    /// Apply one change.  Creating an edge (re)sets it to weight 1; a
    /// `set_weight` creates the edge if needed and gives it the weight.
    pub fn apply(&mut self, c: &ChangeSpec) {
        match *c {
            ChangeSpec::SetLink { a, b } => {
                self.edges.insert((a, b), 1);
                self.edges.insert((b, a), 1);
            }
            ChangeSpec::FailLink { a, b } => {
                self.edges.remove(&(a, b));
                self.edges.remove(&(b, a));
            }
            ChangeSpec::SetEdge { from, to } => {
                self.edges.insert((from, to), 1);
            }
            ChangeSpec::RemoveEdge { from, to } => {
                self.edges.remove(&(from, to));
            }
            ChangeSpec::SetWeight { from, to, weight } => {
                self.edges.insert((from, to), weight);
            }
            ChangeSpec::AddNode => self.n += 1,
        }
    }

    /// Iterate σ from the identity to its fixed point on this network,
    /// with `edge` turning a weight into the algebra's edge function.
    pub fn fixed_point<A: RoutingAlgebra>(
        &self,
        alg: &A,
        edge: impl Fn(u64) -> A::Edge,
    ) -> RoutingState<A> {
        let mut topo = Topology::new(self.n);
        for (&(i, j), &w) in &self.edges {
            topo.set_edge(i, j, edge(w));
        }
        let adj = AdjacencyMatrix::from_topology(&topo);
        let mut x = RoutingState::identity(alg, self.n);
        // From the identity a strictly increasing algebra settles within
        // n rounds; the slack only guards the loop.
        for _ in 0..=self.n + 2 {
            let next = sigma(alg, &adj, &x);
            if !next.differs(&x) {
                return x;
            }
            x = next;
        }
        panic!("naive σ did not settle within n + 2 rounds");
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// The digest `blocked_fixed_point` reports for bounded hop count on a
/// unit-weight symmetric `topo` (hop limit ≥ n), rebuilt from one BFS per
/// destination: column `j` hashes `({i},{j})={hops};` over rows `i` in
/// order (`∞` when unreachable), and the columns' hex digests are hashed
/// in destination order.
pub fn bfs_blocked_digest(topo: &Topology<()>) -> String {
    let n = topo.node_count();
    let mut nbrs = vec![Vec::new(); n];
    for (i, j, _) in topo.edges() {
        nbrs[j].push(i);
    }
    let mut dist = vec![u64::MAX; n];
    let mut queue = VecDeque::new();
    let mut digest = FNV_OFFSET;
    let mut cell = String::new();
    for j in 0..n {
        // Distances *to* j: search from j along reversed edges.
        dist.fill(u64::MAX);
        dist[j] = 0;
        queue.push_back(j);
        while let Some(v) = queue.pop_front() {
            for &u in &nbrs[v] {
                if dist[u] == u64::MAX {
                    dist[u] = dist[v] + 1;
                    queue.push_back(u);
                }
            }
        }
        let mut col = FNV_OFFSET;
        for (i, &d) in dist.iter().enumerate() {
            cell.clear();
            if d == u64::MAX {
                write!(cell, "({i},{j})=∞;")
            } else {
                write!(cell, "({i},{j})={d};")
            }
            .expect("writing to a String cannot fail");
            fnv(&mut col, cell.as_bytes());
        }
        fnv(&mut digest, format!("{col:016x}").as_bytes());
    }
    format!("{digest:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::prelude::BoundedHopCount;
    use dbf_matrix::blocked_fixed_point;
    use dbf_topology::generators;

    #[test]
    fn bfs_digest_matches_the_blocked_kernel() {
        let shape = generators::as_graph(120, 2, 5);
        let adj = AdjacencyMatrix::from_topology(&shape.with_weights(|_, _| 1u64));
        let out = blocked_fixed_point(&BoundedHopCount::new(120), &adj, 32, 120, |_, _, _| {});
        assert_eq!(bfs_blocked_digest(&shape), out.digest);
    }

    #[test]
    fn ref_net_follows_the_change_vocabulary() {
        let mut net = RefNet::from_spec(&TopologySpec::Ring { n: 4 });
        net.apply(&ChangeSpec::SetWeight {
            from: 0,
            to: 2,
            weight: 5,
        });
        assert_eq!(net.edges.get(&(0, 2)), Some(&5));
        net.apply(&ChangeSpec::SetEdge { from: 0, to: 2 });
        assert_eq!(net.edges.get(&(0, 2)), Some(&1));
        net.apply(&ChangeSpec::FailLink { a: 0, b: 1 });
        assert!(!net.edges.contains_key(&(0, 1)) && !net.edges.contains_key(&(1, 0)));
        let x = net.fixed_point(&BoundedHopCount::new(4), |w| w);
        assert_eq!(format!("{:?}", x.get(0, 1)), "2");
    }
}

//! # dbf-algebra — routing algebras for policy-rich Bellman-Ford protocols
//!
//! This crate implements the algebraic model of Section 2 of
//! *"Asynchronous Convergence of Policy-Rich Distributed Bellman-Ford Routing
//! Protocols"* (Daggitt, Gurney & Griffin, SIGCOMM 2018).
//!
//! A **routing algebra** is a tuple `(S, ⊕, F, 0̄, ∞̄)` where
//!
//! * `S` is the set of routes,
//! * `⊕ : S × S → S` is the *choice* operator returning the preferred of two
//!   routes,
//! * `F` is a set of *edge functions* (policies) `f : S → S` which extend a
//!   route across an edge,
//! * `0̄ ∈ S` is the trivial route from a node to itself, and
//! * `∞̄ ∈ S` is the invalid route.
//!
//! The required laws (Table 1 of the paper) are that `⊕` is associative,
//! commutative and selective, `0̄` annihilates `⊕`, `∞̄` is an identity for
//! `⊕`, and `∞̄` is a fixed point of every `f ∈ F`.  The crate provides:
//!
//! * the [`RoutingAlgebra`] trait and the order `≤` derived from `⊕`
//!   ([`RoutingAlgebra::route_le`], [`RoutingAlgebra::route_cmp`]);
//! * marker traits recording which *optional* laws an algebra satisfies
//!   ([`Increasing`], [`StrictlyIncreasing`], [`Distributive`],
//!   [`FiniteCarrier`]);
//! * executable **property checkers** for every law in Table 1
//!   ([`properties`]) — the "efficiently verifiable" conditions the paper
//!   asks for (desideratum 4 of Section 1.1);
//! * the concrete algebras of Table 2 and several more
//!   ([`instances`]): shortest paths, longest paths, widest paths,
//!   most-reliable paths, bounded hop count (RIP-like), shortest paths with
//!   filtering and conditional policies, and stratified shortest paths;
//! * algebra **combinators** ([`combinators`]): lexicographic products,
//!   direct products (as a deliberately-broken negative example) and related
//!   constructions.
//!
//! ## Conventions
//!
//! Following the paper, the order derived from `⊕` is
//! `a ≤ b  ⇔  a ⊕ b = a`, so *smaller is better*: the trivial route `0̄` is
//! the minimum and the invalid route `∞̄` is the maximum.
//!
//! ## Quick example
//!
//! ```
//! use dbf_algebra::prelude::*;
//!
//! let alg = ShortestPaths::new();
//! let a = NatInf::fin(3);
//! let b = NatInf::fin(5);
//! // ⊕ is min
//! assert_eq!(alg.choice(&a, &b), a);
//! // edge functions add their weight
//! let f = alg.edge(2);
//! assert_eq!(alg.extend(&f, &a), NatInf::fin(5));
//! // the algebra is strictly increasing: a < f(a) for a ≠ ∞
//! assert!(alg.route_lt(&a, &alg.extend(&f, &a)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod combinators;
pub mod height;
pub mod instances;
pub mod properties;

pub use algebra::{
    Distributive, FiniteCarrier, Increasing, MinPlus, RouteOrdering, RoutingAlgebra,
    SampleableAlgebra, StrictlyIncreasing,
};
pub use height::{carrier_height, distinct_routes, route_height, HeightBound};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::algebra::{
        Distributive, FiniteCarrier, Increasing, MinPlus, RouteOrdering, RoutingAlgebra,
        SampleableAlgebra, StrictlyIncreasing,
    };
    pub use crate::combinators::lex::{Lex, LexEdge, LexRoute};
    pub use crate::height::{carrier_height, distinct_routes, route_height, HeightBound};
    pub use crate::instances::filtered::{FilterPolicy, FilteredShortestPaths};
    pub use crate::instances::hopcount::BoundedHopCount;
    pub use crate::instances::longest::LongestPaths;
    pub use crate::instances::nat_inf::NatInf;
    pub use crate::instances::reliability::{MostReliablePaths, Reliability};
    pub use crate::instances::shortest::ShortestPaths;
    pub use crate::instances::stratified::{StratifiedRoute, StratifiedShortestPaths};
    pub use crate::instances::widest::WidestPaths;
    pub use crate::properties::{PropertyReport, PropertyStatus, Violation};
}

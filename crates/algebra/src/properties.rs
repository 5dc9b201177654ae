//! Executable checkers for the algebraic laws of Table 1 of the paper.
//!
//! The paper argues (desideratum 4, Section 1.1) that convergence conditions
//! should be *efficiently verifiable*.  For routing algebras the conditions
//! are pointwise laws over routes and edge functions, so they can be checked
//! exhaustively on finite carriers and on large deterministic samples of
//! infinite ones.  Each checker returns the first [`Violation`] found, with
//! enough detail to reproduce it; [`PropertyReport`] bundles all checks into
//! the property matrix printed by the Table 1 experiment.

use crate::algebra::{FiniteCarrier, RoutingAlgebra, SampleableAlgebra};
use std::fmt;

/// A witnessed violation of an algebraic law.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The name of the violated law (as in Table 1).
    pub law: &'static str,
    /// A human-readable description of the witnessing counterexample.
    pub witness: String,
}

impl Violation {
    fn new(law: &'static str, witness: String) -> Self {
        Self { law, witness }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "law `{}` violated: {}", self.law, self.witness)
    }
}

impl std::error::Error for Violation {}

/// The result of a single law check.
pub type CheckResult = Result<(), Violation>;

/// `⊕` is associative: `a ⊕ (b ⊕ c) = (a ⊕ b) ⊕ c`.
pub fn check_associative<A: RoutingAlgebra>(alg: &A, routes: &[A::Route]) -> CheckResult {
    for a in routes {
        for b in routes {
            for c in routes {
                let lhs = alg.choice(a, &alg.choice(b, c));
                let rhs = alg.choice(&alg.choice(a, b), c);
                if lhs != rhs {
                    return Err(Violation::new(
                        "⊕ associative",
                        format!("a={a:?} b={b:?} c={c:?}: a⊕(b⊕c)={lhs:?} ≠ (a⊕b)⊕c={rhs:?}"),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `⊕` is commutative: `a ⊕ b = b ⊕ a`.
pub fn check_commutative<A: RoutingAlgebra>(alg: &A, routes: &[A::Route]) -> CheckResult {
    for a in routes {
        for b in routes {
            let lhs = alg.choice(a, b);
            let rhs = alg.choice(b, a);
            if lhs != rhs {
                return Err(Violation::new(
                    "⊕ commutative",
                    format!("a={a:?} b={b:?}: a⊕b={lhs:?} ≠ b⊕a={rhs:?}"),
                ));
            }
        }
    }
    Ok(())
}

/// `⊕` is selective: `a ⊕ b ∈ {a, b}`.
pub fn check_selective<A: RoutingAlgebra>(alg: &A, routes: &[A::Route]) -> CheckResult {
    for a in routes {
        for b in routes {
            let c = alg.choice(a, b);
            if c != *a && c != *b {
                return Err(Violation::new(
                    "⊕ selective",
                    format!("a={a:?} b={b:?}: a⊕b={c:?} is neither operand"),
                ));
            }
        }
    }
    Ok(())
}

/// `0̄` is an annihilator for `⊕`: `a ⊕ 0̄ = 0̄ = 0̄ ⊕ a`.
pub fn check_trivial_annihilator<A: RoutingAlgebra>(alg: &A, routes: &[A::Route]) -> CheckResult {
    let zero = alg.trivial();
    for a in routes {
        let l = alg.choice(a, &zero);
        let r = alg.choice(&zero, a);
        if l != zero || r != zero {
            return Err(Violation::new(
                "0̄ annihilates ⊕",
                format!("a={a:?}: a⊕0̄={l:?}, 0̄⊕a={r:?}, expected 0̄={zero:?}"),
            ));
        }
    }
    Ok(())
}

/// `∞̄` is an identity for `⊕`: `a ⊕ ∞̄ = a = ∞̄ ⊕ a`.
pub fn check_invalid_identity<A: RoutingAlgebra>(alg: &A, routes: &[A::Route]) -> CheckResult {
    let inf = alg.invalid();
    for a in routes {
        let l = alg.choice(a, &inf);
        let r = alg.choice(&inf, a);
        if l != *a || r != *a {
            return Err(Violation::new(
                "∞̄ identity for ⊕",
                format!("a={a:?}: a⊕∞̄={l:?}, ∞̄⊕a={r:?}, expected a"),
            ));
        }
    }
    Ok(())
}

/// `∞̄` is a fixed point of every edge function: `f(∞̄) = ∞̄`.
pub fn check_invalid_fixed_point<A: RoutingAlgebra>(alg: &A, edges: &[A::Edge]) -> CheckResult {
    let inf = alg.invalid();
    for f in edges {
        let r = alg.extend(f, &inf);
        if r != inf {
            return Err(Violation::new(
                "f(∞̄) = ∞̄",
                format!("f={f:?}: f(∞̄)={r:?} ≠ ∞̄={inf:?}"),
            ));
        }
    }
    Ok(())
}

/// The algebra is increasing (Definition 2): `a ≤ f(a)` for all `f`, `a`.
pub fn check_increasing<A: RoutingAlgebra>(
    alg: &A,
    edges: &[A::Edge],
    routes: &[A::Route],
) -> CheckResult {
    for f in edges {
        for a in routes {
            let fa = alg.extend(f, a);
            if !alg.route_le(a, &fa) {
                return Err(Violation::new(
                    "increasing (a ≤ f(a))",
                    format!("f={f:?} a={a:?}: f(a)={fa:?} is strictly preferred to a"),
                ));
            }
        }
    }
    Ok(())
}

/// The algebra is strictly increasing (Definition 3): `a < f(a)` for all `f`
/// and all `a ≠ ∞̄`.
pub fn check_strictly_increasing<A: RoutingAlgebra>(
    alg: &A,
    edges: &[A::Edge],
    routes: &[A::Route],
) -> CheckResult {
    for f in edges {
        for a in routes {
            if alg.is_invalid(a) {
                continue;
            }
            let fa = alg.extend(f, a);
            if !alg.route_lt(a, &fa) {
                return Err(Violation::new(
                    "strictly increasing (a < f(a) for a ≠ ∞̄)",
                    format!("f={f:?} a={a:?}: f(a)={fa:?} is not strictly worse than a"),
                ));
            }
        }
    }
    Ok(())
}

/// The algebra is distributive (Equation 1): `f(a ⊕ b) = f(a) ⊕ f(b)`.
pub fn check_distributive<A: RoutingAlgebra>(
    alg: &A,
    edges: &[A::Edge],
    routes: &[A::Route],
) -> CheckResult {
    for f in edges {
        for a in routes {
            for b in routes {
                let lhs = alg.extend(f, &alg.choice(a, b));
                let rhs = alg.choice(&alg.extend(f, a), &alg.extend(f, b));
                if lhs != rhs {
                    return Err(Violation::new(
                        "distributive (f(a⊕b) = f(a)⊕f(b))",
                        format!("f={f:?} a={a:?} b={b:?}: f(a⊕b)={lhs:?} ≠ f(a)⊕f(b)={rhs:?}"),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// The algebra's [`RoutingAlgebra::min_plus`] declaration, if it makes
/// one, is exact: `0̄` is distance `0`, `∞̄` has none, every route
/// round-trips through its distance, and `⊕` and every extension agree
/// with [`MinPlus::choice`](crate::MinPlus::choice) and
/// [`MinPlus::extend`](crate::MinPlus::extend).  An algebra that declares
/// nothing passes trivially.
pub fn check_min_plus<A: RoutingAlgebra>(
    alg: &A,
    routes: &[A::Route],
    edges: &[A::Edge],
) -> CheckResult {
    const LAW: &str = "exact min-plus encoding";
    let Some(mp) = alg.min_plus() else {
        return Ok(());
    };
    let (zero, inf) = (alg.trivial(), alg.invalid());
    if (mp.distance)(&zero) != Some(0) || (mp.distance)(&inf).is_some() {
        return Err(Violation::new(
            LAW,
            format!("0̄={zero:?} must be distance 0 and ∞̄={inf:?} must have none"),
        ));
    }
    for a in routes {
        let da = (mp.distance)(a);
        if (mp.route)(da) != *a {
            return Err(Violation::new(
                LAW,
                format!("a={a:?}: distance {da:?} maps back to {:?}", (mp.route)(da)),
            ));
        }
        for b in routes {
            let want = (mp.route)(mp.choice(da, (mp.distance)(b)));
            let got = alg.choice(a, b);
            if got != want {
                return Err(Violation::new(
                    LAW,
                    format!("a={a:?} b={b:?}: a⊕b={got:?} but min gives {want:?}"),
                ));
            }
        }
        for f in edges {
            let want = (mp.route)(mp.extend((mp.increment)(f), da));
            let got = alg.extend(f, a);
            if got != want {
                return Err(Violation::new(
                    LAW,
                    format!("f={f:?} a={a:?}: f(a)={got:?} but capped addition gives {want:?}"),
                ));
            }
        }
    }
    Ok(())
}

/// Check all the *required* laws of Definition 1 at once, collecting every
/// violation rather than stopping at the first.
pub fn check_required_laws<A: RoutingAlgebra>(
    alg: &A,
    routes: &[A::Route],
    edges: &[A::Edge],
) -> Result<(), Vec<Violation>> {
    let checks = [
        check_associative(alg, routes),
        check_commutative(alg, routes),
        check_selective(alg, routes),
        check_trivial_annihilator(alg, routes),
        check_invalid_identity(alg, routes),
        check_invalid_fixed_point(alg, edges),
    ];
    let violations: Vec<Violation> = checks.into_iter().filter_map(Result::err).collect();
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// The status of a single property in a [`PropertyReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyStatus {
    /// The property held on every checked instance.
    Holds,
    /// The property failed, with the witnessing counterexample.
    Fails(Violation),
}

impl PropertyStatus {
    /// True if the property held.
    pub fn holds(&self) -> bool {
        matches!(self, PropertyStatus::Holds)
    }
}

impl fmt::Display for PropertyStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyStatus::Holds => write!(f, "✓"),
            PropertyStatus::Fails(_) => write!(f, "✗"),
        }
    }
}

impl From<CheckResult> for PropertyStatus {
    fn from(r: CheckResult) -> Self {
        match r {
            Ok(()) => PropertyStatus::Holds,
            Err(v) => PropertyStatus::Fails(v),
        }
    }
}

/// The full property matrix for one algebra — the executable analogue of
/// Table 1 of the paper.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// A label naming the algebra the report describes.
    pub algebra: String,
    /// Number of routes the laws were checked over.
    pub routes_checked: usize,
    /// Number of edge functions the laws were checked over.
    pub edges_checked: usize,
    /// Whether the check was exhaustive (finite carrier) or sampled.
    pub exhaustive: bool,
    /// `⊕` associative.
    pub associative: PropertyStatus,
    /// `⊕` commutative.
    pub commutative: PropertyStatus,
    /// `⊕` selective.
    pub selective: PropertyStatus,
    /// `0̄` annihilates `⊕`.
    pub trivial_annihilator: PropertyStatus,
    /// `∞̄` is an identity of `⊕`.
    pub invalid_identity: PropertyStatus,
    /// `f(∞̄) = ∞̄` for all `f`.
    pub invalid_fixed_point: PropertyStatus,
    /// The algebra is increasing.
    pub increasing: PropertyStatus,
    /// The algebra is strictly increasing.
    pub strictly_increasing: PropertyStatus,
    /// The algebra is distributive.
    pub distributive: PropertyStatus,
}

impl PropertyReport {
    /// Build a report from explicit route/edge collections.
    pub fn from_samples<A: RoutingAlgebra>(
        label: impl Into<String>,
        alg: &A,
        routes: &[A::Route],
        edges: &[A::Edge],
        exhaustive: bool,
    ) -> Self {
        Self {
            algebra: label.into(),
            routes_checked: routes.len(),
            edges_checked: edges.len(),
            exhaustive,
            associative: check_associative(alg, routes).into(),
            commutative: check_commutative(alg, routes).into(),
            selective: check_selective(alg, routes).into(),
            trivial_annihilator: check_trivial_annihilator(alg, routes).into(),
            invalid_identity: check_invalid_identity(alg, routes).into(),
            invalid_fixed_point: check_invalid_fixed_point(alg, edges).into(),
            increasing: check_increasing(alg, edges, routes).into(),
            strictly_increasing: check_strictly_increasing(alg, edges, routes).into(),
            distributive: check_distributive(alg, edges, routes).into(),
        }
    }

    /// Build a report by sampling routes and edges from the algebra.
    pub fn analyse<A: SampleableAlgebra>(
        label: impl Into<String>,
        alg: &A,
        seed: u64,
        route_samples: usize,
        edge_samples: usize,
    ) -> Self {
        let routes = alg.sample_routes(seed, route_samples);
        let edges = alg.sample_edges(seed, edge_samples);
        Self::from_samples(label, alg, &routes, &edges, false)
    }

    /// Build a report by exhaustively enumerating a finite carrier, sampling
    /// only the edge functions.
    pub fn analyse_exhaustive<A: FiniteCarrier + SampleableAlgebra>(
        label: impl Into<String>,
        alg: &A,
        seed: u64,
        edge_samples: usize,
    ) -> Self {
        let routes = alg.all_routes();
        let edges = alg.sample_edges(seed, edge_samples);
        Self::from_samples(label, alg, &routes, &edges, true)
    }

    /// All required (Definition 1) laws hold.
    pub fn satisfies_required_laws(&self) -> bool {
        self.associative.holds()
            && self.commutative.holds()
            && self.selective.holds()
            && self.trivial_annihilator.holds()
            && self.invalid_identity.holds()
            && self.invalid_fixed_point.holds()
    }

    /// A single CSV-ish row used by the Table 1 experiment output.
    pub fn summary_row(&self) -> String {
        format!(
            "{:<28} {:>6} {:>6} {:^5} {:^5} {:^5} {:^5} {:^5} {:^5} {:^5} {:^6} {:^5}",
            self.algebra,
            self.routes_checked,
            self.edges_checked,
            self.associative,
            self.commutative,
            self.selective,
            self.trivial_annihilator,
            self.invalid_identity,
            self.invalid_fixed_point,
            self.increasing,
            self.strictly_increasing,
            self.distributive,
        )
    }

    /// The header matching [`Self::summary_row`].
    pub fn summary_header() -> String {
        format!(
            "{:<28} {:>6} {:>6} {:^5} {:^5} {:^5} {:^5} {:^5} {:^5} {:^5} {:^6} {:^5}",
            "algebra",
            "routes",
            "edges",
            "assoc",
            "comm",
            "sel",
            "0̄ann",
            "∞̄id",
            "∞̄fix",
            "incr",
            "strict",
            "distr",
        )
    }
}

impl fmt::Display for PropertyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", Self::summary_header())?;
        writeln!(f, "{}", self.summary_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::hopcount::BoundedHopCount;
    use crate::instances::longest::LongestPaths;
    use crate::instances::nat_inf::NatInf;
    use crate::instances::shortest::ShortestPaths;
    use crate::prelude::{FiniteCarrier, SampleableAlgebra};

    #[test]
    fn report_for_finite_strictly_increasing_algebra() {
        let alg = BoundedHopCount::new(5);
        let report = PropertyReport::analyse_exhaustive("hopcount(5)", &alg, 1, 8);
        assert!(report.exhaustive);
        assert!(report.satisfies_required_laws());
        assert!(report.increasing.holds());
        assert!(report.strictly_increasing.holds());
        assert!(report.distributive.holds());
    }

    #[test]
    fn report_for_non_increasing_algebra() {
        let alg = LongestPaths::new();
        let report = PropertyReport::analyse("longest", &alg, 2, 48, 12);
        assert!(report.satisfies_required_laws());
        assert!(!report.increasing.holds());
        assert!(!report.strictly_increasing.holds());
    }

    #[test]
    fn violation_display_mentions_the_law() {
        let v = Violation::new("⊕ selective", "witness".to_string());
        let s = v.to_string();
        assert!(s.contains("selective"));
        assert!(s.contains("witness"));
    }

    #[test]
    fn property_status_display() {
        assert_eq!(PropertyStatus::Holds.to_string(), "✓");
        let fails = PropertyStatus::Fails(Violation::new("x", "y".into()));
        assert_eq!(fails.to_string(), "✗");
        assert!(!fails.holds());
    }

    #[test]
    fn summary_row_contains_algebra_name() {
        let alg = ShortestPaths::new();
        let report = PropertyReport::analyse("shortest-paths", &alg, 3, 32, 8);
        assert!(report.summary_row().contains("shortest-paths"));
        assert!(PropertyReport::summary_header().contains("algebra"));
        assert!(!report.to_string().is_empty());
    }

    #[test]
    fn check_required_laws_collects_violations() {
        // A deliberately broken "algebra": choice returns a constant, which
        // breaks selectivity, the annihilator and the identity laws all at
        // once.
        #[derive(Debug)]
        struct Broken;
        impl RoutingAlgebra for Broken {
            type Route = u8;
            type Edge = u8;
            fn choice(&self, _a: &u8, _b: &u8) -> u8 {
                7
            }
            fn extend(&self, f: &u8, r: &u8) -> u8 {
                f.wrapping_add(*r)
            }
            fn trivial(&self) -> u8 {
                0
            }
            fn invalid(&self) -> u8 {
                255
            }
        }
        let routes = vec![0u8, 1, 2, 255];
        let edges = vec![1u8];
        let errs = check_required_laws(&Broken, &routes, &edges).unwrap_err();
        assert!(errs.len() >= 3, "expected several violations, got {errs:?}");
    }

    #[test]
    fn a_min_plus_declaration_with_the_wrong_cap_is_caught() {
        // Hop count declaring one more reachable hop than its limit.
        struct OffByOne(BoundedHopCount);
        impl RoutingAlgebra for OffByOne {
            type Route = NatInf;
            type Edge = u64;
            fn choice(&self, a: &NatInf, b: &NatInf) -> NatInf {
                self.0.choice(a, b)
            }
            fn extend(&self, f: &u64, r: &NatInf) -> NatInf {
                self.0.extend(f, r)
            }
            fn trivial(&self) -> NatInf {
                self.0.trivial()
            }
            fn invalid(&self) -> NatInf {
                self.0.invalid()
            }
            fn min_plus(&self) -> Option<crate::MinPlus<Self>> {
                let mp = self.0.min_plus()?;
                Some(crate::MinPlus {
                    cap: Some(self.0.limit() + 1),
                    increment: mp.increment,
                    distance: mp.distance,
                    route: mp.route,
                })
            }
        }
        let alg = OffByOne(BoundedHopCount::new(4));
        let routes = alg.0.all_routes();
        let v = check_min_plus(&alg, &routes, &[1]).unwrap_err();
        assert!(v.witness.contains("capped addition"), "{v}");
        // Algebras that declare nothing pass trivially.
        check_min_plus(&LongestPaths::new(), &[NatInf::fin(3)], &[NatInf::fin(1)]).unwrap();
    }

    #[test]
    fn sampling_is_deterministic() {
        let alg = ShortestPaths::new();
        assert_eq!(alg.sample_routes(9, 20), alg.sample_routes(9, 20));
        assert_eq!(alg.sample_edges(9, 20), alg.sample_edges(9, 20));
    }
}

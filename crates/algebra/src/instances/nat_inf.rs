//! `ℕ∞` — the natural numbers extended with a point at infinity.
//!
//! This is the carrier set of the shortest-path, longest-path and
//! widest-path algebras of Table 2.  The type deliberately has *no*
//! intrinsic preference order beyond the numeric one: whether `Inf` is the
//! best or worst route depends on the algebra's choice operator (it is the
//! invalid route for shortest paths but the trivial route for longest and
//! widest paths).

use std::fmt;
use std::ops::Add;

/// A natural number or infinity.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NatInf {
    /// A finite value.
    Fin(u64),
    /// The point at infinity.
    Inf,
}

impl NatInf {
    /// The infinity constant (also available as the variant `NatInf::Inf`).
    pub const INF: NatInf = NatInf::Inf;

    /// The zero constant.
    pub const ZERO: NatInf = NatInf::Fin(0);

    /// Construct a finite value.
    pub fn fin(v: u64) -> Self {
        NatInf::Fin(v)
    }

    /// Is this the point at infinity?
    pub fn is_inf(&self) -> bool {
        matches!(self, NatInf::Inf)
    }

    /// Is this a finite value?
    pub fn is_fin(&self) -> bool {
        !self.is_inf()
    }

    /// The finite value, if any.
    pub fn as_fin(&self) -> Option<u64> {
        match self {
            NatInf::Fin(v) => Some(*v),
            NatInf::Inf => None,
        }
    }

    /// The inverse of [`as_fin`](Self::as_fin): `Some(v)` is `Fin(v)`,
    /// `None` is `∞`.
    pub fn from_distance(d: Option<u64>) -> Self {
        d.map_or(NatInf::Inf, NatInf::Fin)
    }

    /// Saturating addition: `∞ + x = x + ∞ = ∞`, finite values add and
    /// saturate at `∞` on overflow.
    pub fn saturating_add(self, other: NatInf) -> NatInf {
        match (self, other) {
            (NatInf::Fin(a), NatInf::Fin(b)) => match a.checked_add(b) {
                Some(s) => NatInf::Fin(s),
                None => NatInf::Inf,
            },
            _ => NatInf::Inf,
        }
    }

    /// Minimum under the numeric order (with `∞` as maximum).
    pub fn min(self, other: NatInf) -> NatInf {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Maximum under the numeric order (with `∞` as maximum).
    pub fn max(self, other: NatInf) -> NatInf {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for NatInf {
    type Output = NatInf;

    fn add(self, rhs: NatInf) -> NatInf {
        self.saturating_add(rhs)
    }
}

impl From<u64> for NatInf {
    fn from(v: u64) -> Self {
        NatInf::Fin(v)
    }
}

impl fmt::Debug for NatInf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NatInf::Fin(v) => write!(f, "{v}"),
            NatInf::Inf => write!(f, "∞"),
        }
    }
}

impl fmt::Display for NatInf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_puts_infinity_last() {
        assert!(NatInf::fin(0) < NatInf::fin(1));
        assert!(NatInf::fin(u64::MAX) < NatInf::Inf);
        assert!(NatInf::Inf <= NatInf::Inf);
    }

    #[test]
    fn addition_is_saturating() {
        assert_eq!(NatInf::fin(2) + NatInf::fin(3), NatInf::fin(5));
        assert_eq!(NatInf::fin(2) + NatInf::Inf, NatInf::Inf);
        assert_eq!(NatInf::Inf + NatInf::fin(2), NatInf::Inf);
        assert_eq!(NatInf::Inf + NatInf::Inf, NatInf::Inf);
        assert_eq!(NatInf::fin(u64::MAX) + NatInf::fin(1), NatInf::Inf);
    }

    #[test]
    fn min_max_agree_with_ord() {
        assert_eq!(NatInf::fin(2).min(NatInf::fin(7)), NatInf::fin(2));
        assert_eq!(NatInf::fin(2).max(NatInf::fin(7)), NatInf::fin(7));
        assert_eq!(NatInf::Inf.min(NatInf::fin(7)), NatInf::fin(7));
        assert_eq!(NatInf::Inf.max(NatInf::fin(7)), NatInf::Inf);
    }

    #[test]
    fn accessors() {
        assert!(NatInf::Inf.is_inf());
        assert!(!NatInf::Inf.is_fin());
        assert_eq!(NatInf::fin(4).as_fin(), Some(4));
        assert_eq!(NatInf::Inf.as_fin(), None);
        assert_eq!(NatInf::from(9u64), NatInf::fin(9));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", NatInf::fin(12)), "12");
        assert_eq!(format!("{}", NatInf::Inf), "∞");
        assert_eq!(format!("{:?}", NatInf::Inf), "∞");
    }
}

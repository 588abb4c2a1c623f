//! Color permutations, the canonicalization layer, and the rotation
//! quotient of the Circles state space.
//!
//! The Circles transition rule is built from the cyclic weight
//! `w(⟨i|j⟩) = (j − i) mod k` and the self-loop predicate `i = j`, both of
//! which are invariant under *rotations* `x ↦ (x + c) mod k` of the color
//! circle. Rotating every color of both interaction partners therefore
//! commutes with the transition function (rotation equivariance, verified
//! exhaustively in this module's tests), which makes the transition table a
//! function of rotation *orbits* of state pairs rather than of concrete
//! pairs. [`CirclesColorQuotient`] packages that symmetry as a
//! [`StateQuotient`] so the discovery engine classifies one canonical
//! representative per orbit and derives the rest mechanically.
//!
//! General (non-rotation) color permutations do **not** preserve the
//! ordered protocol — the weight function reads cyclic *distances*, not
//! bare equality — so the quotient group here is `Z_k`, of order `k`, not
//! the full symmetric group `S_k` the unordered-setting extension (paper
//! §4) would admit. [`ColorPerm`] still models arbitrary permutations:
//! first-appearance canonicalization ([`CirclesState::canonicalize`]) is
//! the pattern-level view the paper's §4 extension and the test suite use.

use std::fmt;

use pp_protocol::quotient::StateQuotient;

use crate::braket::BraKet;
use crate::color::Color;
use crate::protocol::CirclesState;

/// A permutation of the `k` colors, stored as its image table:
/// `perm.apply(Color(x)) == Color(map[x])`.
///
/// # Example
///
/// ```
/// use circles_core::{Color, ColorPerm};
///
/// let rot = ColorPerm::rotation(5, 2);
/// assert_eq!(rot.apply(Color(4)), Color(1));
/// assert_eq!(rot.invert().compose(&rot), ColorPerm::identity(5));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColorPerm {
    map: Vec<u16>,
}

impl ColorPerm {
    /// The identity permutation on `k` colors.
    pub fn identity(k: u16) -> Self {
        ColorPerm {
            map: (0..k).collect(),
        }
    }

    /// The rotation `x ↦ (x + shift) mod k` — the symmetry the ordered
    /// Circles protocol is invariant under.
    pub fn rotation(k: u16, shift: u16) -> Self {
        assert!(k > 0, "rotation of zero colors");
        let shift = shift % k;
        ColorPerm {
            map: (0..k).map(|x| (x + shift) % k).collect(),
        }
    }

    /// A permutation from its image table; `None` when `map` is not a
    /// bijection of `[0, map.len())`.
    pub fn from_map(map: Vec<u16>) -> Option<Self> {
        let k = map.len();
        let mut seen = vec![false; k];
        for &v in &map {
            let v = usize::from(v);
            if v >= k || seen[v] {
                return None;
            }
            seen[v] = true;
        }
        Some(ColorPerm { map })
    }

    /// The number of colors this permutation acts on.
    pub fn k(&self) -> u16 {
        self.map.len() as u16
    }

    /// The image of `color`.
    ///
    /// # Panics
    ///
    /// Panics when `color` is outside `[0, k)`.
    pub fn apply(&self, color: Color) -> Color {
        Color(self.map[color.index()])
    }

    /// The composition `self ∘ other`: applies `other` first, then `self`.
    ///
    /// # Panics
    ///
    /// Panics when the two permutations act on different color counts.
    pub fn compose(&self, other: &ColorPerm) -> ColorPerm {
        assert_eq!(self.k(), other.k(), "composing permutations of different k");
        ColorPerm {
            map: other
                .map
                .iter()
                .map(|&v| self.map[usize::from(v)])
                .collect(),
        }
    }

    /// The inverse permutation: `perm.invert().apply(perm.apply(c)) == c`.
    pub fn invert(&self) -> ColorPerm {
        let mut map = vec![0u16; self.map.len()];
        for (x, &v) in self.map.iter().enumerate() {
            map[usize::from(v)] = x as u16;
        }
        ColorPerm { map }
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.map.iter().enumerate().all(|(x, &v)| x as u16 == v)
    }
}

impl fmt::Display for ColorPerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{i}→{v}")?;
        }
        write!(f, ")")
    }
}

impl BraKet {
    /// This bra-ket with both colors relabeled through `perm`.
    pub fn permuted(&self, perm: &ColorPerm) -> BraKet {
        BraKet::new(perm.apply(self.bra), perm.apply(self.ket))
    }
}

impl CirclesState {
    /// This state with all three colors relabeled through `perm`.
    pub fn permuted(&self, perm: &ColorPerm) -> CirclesState {
        CirclesState {
            braket: self.braket.permuted(perm),
            out: perm.apply(self.out),
        }
    }

    /// The first-appearance canonical form of this state under arbitrary
    /// color permutations, over `k` colors: colors are relabeled `0, 1, …`
    /// in the order they first appear in `(bra, ket, out)`, with unused
    /// colors filling the remaining labels in ascending order. Returns the
    /// canonical state together with the permutation mapping it *back*:
    /// `canonical.permuted(&perm) == *self`.
    ///
    /// This is the color-*pattern* view: two states canonicalize equal iff
    /// some color permutation maps one to the other. The ordered protocol
    /// is only rotation-invariant (see the [module docs](self)), so
    /// discovery uses [`CirclesColorQuotient`] instead; pattern
    /// canonicalization is the coarser class the unordered-setting
    /// extension works with.
    ///
    /// # Panics
    ///
    /// Panics when any color of the state is `>= k`.
    pub fn canonicalize(&self, k: u16) -> (CirclesState, ColorPerm) {
        let mut relabel = vec![u16::MAX; usize::from(k)];
        let mut next = 0u16;
        for c in [self.braket.bra, self.braket.ket, self.out] {
            let slot = &mut relabel[c.index()];
            if *slot == u16::MAX {
                *slot = next;
                next += 1;
            }
        }
        for slot in relabel.iter_mut() {
            if *slot == u16::MAX {
                *slot = next;
                next += 1;
            }
        }
        let forward = ColorPerm { map: relabel };
        let canonical = self.permuted(&forward);
        (canonical, forward.invert())
    }
}

/// The rotation quotient of the Circles state space: the group `Z_k`
/// acting by `x ↦ (x + g) mod k` on all three colors of a state.
///
/// Canonical representatives are the states with `bra = 0` (`k²` of the
/// `k³` states). Full-table discovery
/// ([`quotient_table`](pp_protocol::quotient_table)) classifies only their
/// rows, folding the initiator/responder swap across earlier orbits (sound
/// because the Circles transition is symmetric) — `~k⁵/2` representative
/// pairs instead of the symmetric memo's `~k⁶/2`, an orbit factor of `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CirclesColorQuotient {
    k: u16,
}

impl CirclesColorQuotient {
    /// The rotation quotient for `k` colors.
    ///
    /// # Panics
    ///
    /// Panics when `k == 0`.
    pub fn new(k: u16) -> Self {
        assert!(k > 0, "rotation quotient of zero colors");
        CirclesColorQuotient { k }
    }

    /// Rotates every color of `s` by `+shift` (taken mod `k`).
    fn rot(&self, shift: u16, s: &CirclesState) -> CirclesState {
        let k = self.k;
        let r = |c: Color| Color((c.0 + shift) % k);
        CirclesState {
            braket: BraKet::new(r(s.braket.bra), r(s.braket.ket)),
            out: r(s.out),
        }
    }
}

impl StateQuotient<CirclesState> for CirclesColorQuotient {
    fn group_order(&self) -> u32 {
        u32::from(self.k)
    }

    fn apply(&self, g: u32, state: &CirclesState) -> CirclesState {
        debug_assert!(g < u32::from(self.k), "group element {g} out of range");
        self.rot(g as u16, state)
    }

    fn canonical_state(&self, state: &CirclesState) -> (CirclesState, u32) {
        // Rotate the initiator's bra to color 0; rotating back by `bra`
        // recovers the original.
        let g = state.braket.bra.0 % self.k;
        (self.rot(self.k - g, state), u32::from(g))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::CirclesProtocol;
    use pp_protocol::{EnumerableProtocol, Protocol};

    fn state(bra: u16, ket: u16, out: u16) -> CirclesState {
        CirclesState {
            braket: BraKet::new(Color(bra), Color(ket)),
            out: Color(out),
        }
    }

    #[test]
    fn perm_laws_hold() {
        let k = 7;
        for shift in 0..k {
            let rot = ColorPerm::rotation(k, shift);
            assert_eq!(rot.compose(&rot.invert()), ColorPerm::identity(k));
            assert_eq!(rot.invert().compose(&rot), ColorPerm::identity(k));
            assert_eq!(rot.is_identity(), shift == 0);
            for x in 0..k {
                assert_eq!(rot.apply(Color(x)), Color((x + shift) % k));
                assert_eq!(rot.invert().apply(rot.apply(Color(x))), Color(x));
            }
        }
        let a = ColorPerm::rotation(5, 2);
        let b = ColorPerm::from_map(vec![1, 0, 3, 2, 4]).unwrap();
        for x in 0..5 {
            // compose applies the right operand first.
            assert_eq!(a.compose(&b).apply(Color(x)), a.apply(b.apply(Color(x))));
        }
    }

    #[test]
    fn from_map_rejects_non_bijections() {
        assert!(ColorPerm::from_map(vec![0, 0, 1]).is_none(), "duplicate");
        assert!(ColorPerm::from_map(vec![0, 3]).is_none(), "out of range");
        assert!(ColorPerm::from_map(vec![2, 0, 1]).is_some());
    }

    #[test]
    fn permuted_acts_componentwise() {
        let perm = ColorPerm::rotation(4, 1);
        assert_eq!(state(0, 2, 3).permuted(&perm), state(1, 3, 0));
        assert_eq!(
            BraKet::new(Color(3), Color(3)).permuted(&perm),
            BraKet::new(Color(0), Color(0)),
        );
    }

    #[test]
    fn canonicalize_relabels_by_first_appearance() {
        let (canon, perm) = state(4, 4, 2).canonicalize(6);
        assert_eq!(canon, state(0, 0, 1));
        assert_eq!(canon.permuted(&perm), state(4, 4, 2));
        // Same pattern, different concrete colors: equal canonical forms.
        let (canon2, _) = state(1, 1, 5).canonicalize(6);
        assert_eq!(canon, canon2);
        // Different patterns stay apart.
        let (canon3, _) = state(1, 5, 5).canonicalize(6);
        assert_ne!(canon, canon3);
    }

    #[test]
    fn canonicalize_round_trips_all_states() {
        for k in 1..=5u16 {
            let p = CirclesProtocol::new(k).unwrap();
            for s in p.states() {
                let (canon, perm) = s.canonicalize(k);
                assert_eq!(canon.permuted(&perm), s);
                let (again, _) = canon.canonicalize(k);
                assert_eq!(again, canon, "canonical form must be a fixed point");
            }
        }
    }

    #[test]
    fn rotation_equivariance_of_the_transition() {
        // The load-bearing property behind quotient discovery: rotating
        // both partners commutes with the transition. Exhaustive for small
        // k over all pairs and all rotations.
        for k in 1..=5u16 {
            let p = CirclesProtocol::new(k).unwrap();
            let q = CirclesColorQuotient::new(k);
            let states = p.states();
            for a in &states {
                for b in &states {
                    let (oa, ob) = p.transition(a, b);
                    for g in 0..u32::from(k) {
                        let (ra, rb) = p.transition(&q.apply(g, a), &q.apply(g, b));
                        assert_eq!(
                            (ra, rb),
                            (q.apply(g, &oa), q.apply(g, &ob)),
                            "rotation {g} does not commute at ({a}, {b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn canonical_state_contract() {
        for k in 1..=6u16 {
            let p = CirclesProtocol::new(k).unwrap();
            let q = CirclesColorQuotient::new(k);
            let mut reps = std::collections::HashSet::new();
            for s in p.states() {
                let (canon, g) = q.canonical_state(&s);
                assert_eq!(q.apply(g, &canon), s, "apply(g, canon) must recover");
                assert_eq!(canon.braket.bra, Color(0), "reps put bra at color 0");
                assert_eq!(
                    q.canonical_state(&canon),
                    (canon, 0),
                    "rep is a fixed point"
                );
                reps.insert(canon);
            }
            assert_eq!(reps.len(), usize::from(k) * usize::from(k), "k² orbits");
        }
    }
}

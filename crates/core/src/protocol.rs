//! The [`CirclesProtocol`]: the paper's §2 protocol as a
//! [`pp_protocol::Protocol`].

use std::fmt;
use std::str::FromStr;

use pp_protocol::{EnumerableProtocol, Protocol, StateQuotient};

use crate::braket::{would_exchange, BraKet};
use crate::color::Color;
use crate::error::CirclesError;
use crate::perm::CirclesColorQuotient;

/// The full per-agent state: a bra-ket plus the output register — a triple
/// `(i, j, o) ∈ [0, k-1]³`.
///
/// # Example
///
/// ```
/// use circles_core::{BraKet, CirclesState, Color};
///
/// let s = CirclesState::initial(Color(2));
/// assert_eq!(s.braket, BraKet::self_loop(Color(2)));
/// assert_eq!(s.out, Color(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CirclesState {
    /// The agent's bra-ket `⟨i|j⟩`.
    pub braket: BraKet,
    /// The color this agent currently outputs.
    pub out: Color,
}

impl CirclesState {
    /// The initial state for an agent with input color `i`: `⟨i|i⟩`,
    /// `out = i` (paper §2, Input).
    pub fn initial(color: Color) -> Self {
        CirclesState {
            braket: BraKet::self_loop(color),
            out: color,
        }
    }
}

impl fmt::Display for CirclesState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{}", self.braket, self.out)
    }
}

impl FromStr for CirclesState {
    type Err = CirclesError;

    /// Parses the `Display` form `⟨i|j⟩→c<out>` (count-level traces
    /// serialize states textually and parse them back on replay).
    fn from_str(s: &str) -> Result<Self, CirclesError> {
        let (braket, out) = s.split_once('→').ok_or_else(|| {
            CirclesError::StateParse(format!("state {s:?} lacks the → separator"))
        })?;
        Ok(CirclesState {
            braket: braket.parse()?,
            out: out.parse()?,
        })
    }
}

/// The Circles protocol for `k` colors — state complexity exactly `k³`.
///
/// See the [crate-level documentation](crate) for the transition rule and the
/// [crate example](crate#example) for an end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CirclesProtocol {
    k: u16,
    name: &'static str,
    quotient: CirclesColorQuotient,
}

impl CirclesProtocol {
    /// Creates the protocol for `k` colors.
    ///
    /// # Errors
    ///
    /// Returns [`CirclesError::ZeroColors`] when `k == 0`.
    pub fn new(k: u16) -> Result<Self, CirclesError> {
        if k == 0 {
            return Err(CirclesError::ZeroColors);
        }
        Ok(CirclesProtocol {
            k,
            name: "circles",
            quotient: CirclesColorQuotient::new(k),
        })
    }

    /// The number of colors `k`.
    pub fn k(&self) -> u16 {
        self.k
    }

    /// Checks that `color < k`.
    ///
    /// # Errors
    ///
    /// Returns [`CirclesError::ColorOutOfRange`] otherwise.
    pub fn validate_color(&self, color: Color) -> Result<(), CirclesError> {
        if color.0 < self.k {
            Ok(())
        } else {
            Err(CirclesError::ColorOutOfRange { color, k: self.k })
        }
    }

    /// The joint transition on bare states, exposed for reuse by the
    /// unordered-setting extension (which embeds Circles over labels).
    pub fn transition_states(
        k: u16,
        a: CirclesState,
        b: CirclesState,
    ) -> (CirclesState, CirclesState) {
        let mut a = a;
        let mut b = b;
        // Step 1: exchange kets iff that strictly decreases the minimum
        // weight of the two bra-kets.
        if let Some((x2, y2)) = would_exchange(k, a.braket, b.braket) {
            a.braket = x2;
            b.braket = y2;
        }
        // Step 2: if either agent is ⟨i|i⟩, both set out := i. After step 1
        // at most one self-loop color can be present: two self-loops of
        // distinct colors always exchange into non-self-loops.
        let loop_color = if a.braket.is_self_loop() {
            Some(a.braket.bra)
        } else if b.braket.is_self_loop() {
            Some(b.braket.bra)
        } else {
            None
        };
        if let Some(i) = loop_color {
            a.out = i;
            b.out = i;
        }
        (a, b)
    }
}

impl Protocol for CirclesProtocol {
    type State = CirclesState;
    type Input = Color;
    type Output = Color;

    fn name(&self) -> &str {
        self.name
    }

    /// # Panics
    ///
    /// Panics when `input >= k`; use
    /// [`validate_color`](CirclesProtocol::validate_color) at the boundary.
    fn input(&self, input: &Color) -> CirclesState {
        assert!(
            input.0 < self.k,
            "input color {input} out of range for k={}",
            self.k
        );
        CirclesState::initial(*input)
    }

    fn output(&self, state: &CirclesState) -> Color {
        state.out
    }

    fn transition(
        &self,
        initiator: &CirclesState,
        responder: &CirclesState,
    ) -> (CirclesState, CirclesState) {
        Self::transition_states(self.k, *initiator, *responder)
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    /// The rotation quotient `Z_k` (see
    /// [`CirclesColorQuotient`]): the cyclic weight function makes the
    /// transition equivariant under rotating all colors, so full-table
    /// builds and `.ppts` v2 stores classify one representative row per
    /// rotation orbit.
    fn color_quotient(&self) -> Option<&dyn StateQuotient<CirclesState>> {
        Some(&self.quotient)
    }

    /// The color count `k`, so persisted transition tables for one `k`
    /// never load for another.
    fn fingerprint_param(&self) -> u64 {
        u64::from(self.k)
    }
}

impl EnumerableProtocol for CirclesProtocol {
    /// All `k³` triples `(bra, ket, out)`.
    fn states(&self) -> Vec<CirclesState> {
        let k = self.k;
        let mut out = Vec::with_capacity(usize::from(k).pow(3));
        for bra in 0..k {
            for ket in 0..k {
                for o in 0..k {
                    out.push(CirclesState {
                        braket: BraKet::new(Color(bra), Color(ket)),
                        out: Color(o),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::braket::weight;

    fn state(bra: u16, ket: u16, out: u16) -> CirclesState {
        CirclesState {
            braket: BraKet::new(Color(bra), Color(ket)),
            out: Color(out),
        }
    }

    #[test]
    fn constructor_validates_k() {
        assert_eq!(
            CirclesProtocol::new(0).unwrap_err(),
            CirclesError::ZeroColors
        );
        assert!(CirclesProtocol::new(1).is_ok());
    }

    #[test]
    fn state_complexity_is_k_cubed() {
        for k in 1..=9u16 {
            let p = CirclesProtocol::new(k).unwrap();
            let states = p.states();
            assert_eq!(states.len(), usize::from(k).pow(3));
            // No duplicates.
            let set: std::collections::HashSet<_> = states.iter().collect();
            assert_eq!(set.len(), states.len());
        }
    }

    #[test]
    fn input_builds_self_loop() {
        let p = CirclesProtocol::new(4).unwrap();
        let s = p.input(&Color(3));
        assert_eq!(s, state(3, 3, 3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn input_panics_out_of_range() {
        let p = CirclesProtocol::new(2).unwrap();
        let _ = p.input(&Color(2));
    }

    #[test]
    fn state_display_round_trips_through_fromstr() {
        let state = CirclesState {
            braket: BraKet::new(Color(3), Color(11)),
            out: Color(7),
        };
        assert_eq!(state.to_string(), "⟨3|11⟩→c7");
        assert_eq!(state.to_string().parse::<CirclesState>().unwrap(), state);
        for k in [1u16, 4, 30] {
            let p = CirclesProtocol::new(k).unwrap();
            for s in p.states() {
                assert_eq!(s.to_string().parse::<CirclesState>().unwrap(), s);
            }
        }
        assert!("⟨3|11⟩".parse::<CirclesState>().is_err(), "missing output");
        assert!("3|11→c1".parse::<CirclesState>().is_err(), "bad braket");
        assert!("⟨3|11⟩→1".parse::<CirclesState>().is_err(), "bad color");
    }

    #[test]
    fn validate_color_bounds() {
        let p = CirclesProtocol::new(3).unwrap();
        assert!(p.validate_color(Color(2)).is_ok());
        assert_eq!(
            p.validate_color(Color(3)),
            Err(CirclesError::ColorOutOfRange {
                color: Color(3),
                k: 3
            })
        );
    }

    #[test]
    fn two_distinct_self_loops_break_and_keep_out_unset() {
        // ⟨0|0⟩ + ⟨2|2⟩ (k=3): exchange into ⟨0|2⟩, ⟨2|0⟩ — neither is a
        // self-loop afterwards, so outs are untouched by step 2.
        let p = CirclesProtocol::new(3).unwrap();
        let (a, b) = p.transition(&state(0, 0, 0), &state(2, 2, 2));
        assert_eq!(a, state(0, 2, 0));
        assert_eq!(b, state(2, 0, 2));
    }

    #[test]
    fn surviving_self_loop_broadcasts_out() {
        // ⟨1|1⟩ keeps its self-loop against ⟨0|2⟩ in k=3? Exchange would give
        // ⟨1|2⟩ (w=1) and ⟨0|1⟩ (w=1): old min is min(3, 2)=2, new min 1 —
        // fires. So pick a pair where no exchange happens and a self-loop
        // remains: ⟨0|1⟩ (w=1) + ⟨2|2⟩ (w=3): exchange → ⟨0|2⟩ (w=2), ⟨2|1⟩
        // (w=2): min would go 1 → 2: refused. The self-loop ⟨2|2⟩ sets both
        // outs to 2.
        let p = CirclesProtocol::new(3).unwrap();
        let (a, b) = p.transition(&state(0, 1, 0), &state(2, 2, 2));
        assert_eq!(a, state(0, 1, 2));
        assert_eq!(b, state(2, 2, 2));
    }

    #[test]
    fn out_rule_applies_after_exchange() {
        // ⟨0|2⟩ + ⟨2|2⟩ in k=3: weights 2 and 3. Exchange: ⟨0|2⟩↔⟨2|2⟩ kets:
        // ⟨0|2⟩, ⟨2|2⟩ — identical multiset, min unchanged: refused.
        // Try ⟨0|2⟩ + ⟨1|1⟩: weights 2, 3. Exchange → ⟨0|1⟩ (1), ⟨1|2⟩ (1):
        // fires, and now ⟨1|1⟩ is gone — no self-loop, outs untouched.
        let p = CirclesProtocol::new(3).unwrap();
        let (a, b) = p.transition(&state(0, 2, 0), &state(1, 1, 1));
        assert_eq!(a.braket, BraKet::new(Color(0), Color(1)));
        assert_eq!(b.braket, BraKet::new(Color(1), Color(2)));
        assert_eq!(a.out, Color(0));
        assert_eq!(b.out, Color(1));
    }

    #[test]
    fn transition_is_symmetric() {
        let p = CirclesProtocol::new(4).unwrap();
        let states = p.states();
        for a in states.iter().step_by(7) {
            for b in states.iter().step_by(5) {
                let (x, y) = p.transition(a, b);
                let (y2, x2) = p.transition(b, a);
                assert_eq!((x, y), (x2, y2), "asymmetric at {a} {b}");
            }
        }
    }

    #[test]
    fn no_transition_creates_two_distinct_self_loops() {
        // Paper subtlety: after step 1 at most one self-loop color exists,
        // otherwise "set out to i" would be ambiguous. Verify exhaustively
        // for small k.
        for k in 1..=5u16 {
            let p = CirclesProtocol::new(k).unwrap();
            for a in p.states() {
                for b in p.states() {
                    let (x, y) = p.transition(&a, &b);
                    if x.braket.is_self_loop() && y.braket.is_self_loop() {
                        assert_eq!(
                            x.braket.bra, y.braket.bra,
                            "two distinct self-loops after transition({a}, {b})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exchange_never_touches_bras() {
        let p = CirclesProtocol::new(5).unwrap();
        for a in p.states().iter().step_by(3) {
            for b in p.states().iter().step_by(4) {
                let (x, y) = p.transition(a, b);
                assert_eq!(x.braket.bra, a.braket.bra);
                assert_eq!(y.braket.bra, b.braket.bra);
            }
        }
    }

    #[test]
    fn exchange_decreases_min_weight() {
        let p = CirclesProtocol::new(6).unwrap();
        let k = 6;
        for a in p.states().iter().step_by(5) {
            for b in p.states().iter().step_by(7) {
                let (x, y) = p.transition(a, b);
                let exchanged = x.braket.ket != a.braket.ket;
                if exchanged {
                    let old = weight(k, a.braket).min(weight(k, b.braket));
                    let new = weight(k, x.braket).min(weight(k, y.braket));
                    assert!(new < old);
                }
            }
        }
    }
}

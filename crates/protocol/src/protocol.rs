//! The [`Protocol`] trait: the formal object defined in Section 1 of the
//! Circles paper (states, input function, output function, transition
//! function).

use std::fmt::Debug;
use std::hash::Hash;

use crate::quotient::StateQuotient;

/// A population protocol.
///
/// A protocol is a quadruple of a state set, an input function, an output
/// function and a transition function. Agents are anonymous: after an
/// interaction an agent's new state depends only on its previous state and on
/// the state of the agent it interacted with.
///
/// Interactions are *ordered*: the first argument of
/// [`transition`](Protocol::transition) is the initiator and the second the
/// responder. Symmetric protocols (such as Circles) simply ignore the order;
/// asymmetric protocols (such as leader election in the unordered-setting
/// extension) rely on it.
///
/// # Example
///
/// See the [crate-level example](crate) for a minimal implementation.
pub trait Protocol {
    /// Per-agent state. Required to be `Ord + Hash` so configurations can be
    /// canonicalized (for multiset configurations and model checking).
    type State: Clone + Eq + Ord + Hash + Debug;
    /// Input symbol handed to each agent before the execution starts.
    type Input: Clone + Debug;
    /// Output symbol an agent reports when queried.
    type Output: Clone + Eq + Ord + Debug;

    /// Human-readable protocol name used in reports and benchmarks.
    fn name(&self) -> &str;

    /// Converts an input symbol into the agent's initial state.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `input` is outside the protocol's input
    /// alphabet (for instance a color `>= k`); constructors of concrete
    /// protocols document their alphabet.
    fn input(&self, input: &Self::Input) -> Self::State;

    /// Maps a state to the output the agent currently reports.
    fn output(&self, state: &Self::State) -> Self::Output;

    /// The joint transition: `(initiator, responder)` states before the
    /// interaction, to their states after.
    fn transition(
        &self,
        initiator: &Self::State,
        responder: &Self::State,
    ) -> (Self::State, Self::State);

    /// Whether the transition function is symmetric, i.e.
    /// `transition(a, b) == swap(transition(b, a))` for all states.
    ///
    /// Defaults to `false`; symmetric protocols can override to let engines
    /// and checkers halve the number of ordered pairs they must consider.
    fn is_symmetric(&self) -> bool {
        false
    }

    /// Returns `true` when the interaction between `initiator` and
    /// `responder` would leave both states unchanged.
    fn is_null_interaction(&self, initiator: &Self::State, responder: &Self::State) -> bool {
        let (a, b) = self.transition(initiator, responder);
        a == *initiator && b == *responder
    }

    /// A symmetry quotient of the state space under which the transition
    /// function is equivariant (see [`StateQuotient`] for the exact
    /// contract), or `None` when the protocol has no usable quotient.
    ///
    /// Protocols that return one let bulk full-table builds
    /// ([`quotient_table`](crate::quotient_table)) and the `.ppts` v2
    /// store classify a single canonical representative per orbit and
    /// derive the rest mechanically — for Circles (invariant under
    /// rotations of its `k` colors) this cuts full-table discovery from
    /// `O(k⁶)` to `O(k⁵)` transition calls.
    /// [`CountEngine`](crate::CountEngine) discovery ignores it and
    /// classifies pairs through [`transition`](Protocol::transition)
    /// directly (one call per unordered pair for symmetric protocols): for
    /// Circles a transition call is cheaper than canonicalizing the pair
    /// and probing a memo.
    ///
    /// Defaults to `None`. The flag `color_quotient().is_some()` is folded
    /// into the identity fingerprint of persisted stores alongside
    /// [`is_symmetric`](Protocol::is_symmetric).
    fn color_quotient(&self) -> Option<&dyn StateQuotient<Self::State>> {
        None
    }

    /// A numeric parameter distinguishing instances of the same named
    /// protocol family — for Circles, the color count `k`. Folded together
    /// with [`name`](Protocol::name) and
    /// [`is_symmetric`](Protocol::is_symmetric) into the identity
    /// fingerprint of persisted transition-table stores (see
    /// [`transition_store`](crate::transition_store)), so a store built for
    /// one parameterization can never be loaded for another.
    ///
    /// Defaults to `0` for unparameterized protocols.
    fn fingerprint_param(&self) -> u64 {
        0
    }
}

/// A protocol whose complete state space can be enumerated.
///
/// Used to account state complexity (experiment E1) and to let the model
/// checker validate that every reachable state belongs to the declared state
/// set.
pub trait EnumerableProtocol: Protocol {
    /// Every state an agent can ever be in, without duplicates.
    ///
    /// The length of this vector is the protocol's *state complexity* — the
    /// quantity the Circles paper minimizes (`k³` for Circles, versus the
    /// prior `O(k⁷)` upper bound and the `Ω(k²)` lower bound).
    fn states(&self) -> Vec<Self::State>;

    /// The protocol's state complexity: the size of the state space.
    fn state_complexity(&self) -> usize {
        self.states().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy asymmetric protocol: the responder copies the initiator.
    struct CopyProtocol;

    impl Protocol for CopyProtocol {
        type State = u8;
        type Input = u8;
        type Output = u8;

        fn name(&self) -> &str {
            "copy"
        }

        fn input(&self, input: &u8) -> u8 {
            *input
        }

        fn output(&self, state: &u8) -> u8 {
            *state
        }

        fn transition(&self, initiator: &u8, _responder: &u8) -> (u8, u8) {
            (*initiator, *initiator)
        }
    }

    impl EnumerableProtocol for CopyProtocol {
        fn states(&self) -> Vec<u8> {
            (0..=u8::MAX).collect()
        }
    }

    #[test]
    fn null_interaction_detected() {
        let p = CopyProtocol;
        assert!(p.is_null_interaction(&7, &7));
        assert!(!p.is_null_interaction(&7, &3));
    }

    #[test]
    fn default_symmetry_is_false() {
        assert!(!CopyProtocol.is_symmetric());
    }

    #[test]
    fn state_complexity_counts_states() {
        assert_eq!(CopyProtocol.state_complexity(), 256);
    }
}

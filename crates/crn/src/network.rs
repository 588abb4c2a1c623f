//! Reaction networks derived from population protocols.
//!
//! A population protocol *is* a chemical reaction network whose species are
//! the protocol's states and whose reactions are the non-null ordered
//! transitions `A + B → A' + B'`. This module materializes that
//! correspondence: [`ReactionNetwork::from_protocol`] computes the *species
//! closure* of an initial support (every state reachable through pairwise
//! interactions) and enumerates every productive reaction among those
//! species.
//!
//! Working with the closure rather than the declared state space matters in
//! practice: Circles declares `k³` states, but an execution started from
//! self-loops can only ever visit a much smaller set, and the explicit
//! reaction list is quadratic in the species count.

use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

use pp_protocol::{CountConfig, Protocol};

use crate::error::CrnError;

/// Dense index of a species within a [`ReactionNetwork`].
pub type SpeciesId = u32;

/// A bijection between protocol states and dense species indices.
#[derive(Debug, Clone, Default)]
pub struct SpeciesMap<S> {
    by_index: Vec<S>,
    by_state: HashMap<S, SpeciesId>,
}

impl<S: Clone + Eq + Hash> SpeciesMap<S> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SpeciesMap {
            by_index: Vec::new(),
            by_state: HashMap::new(),
        }
    }

    /// Number of species.
    pub fn len(&self) -> usize {
        self.by_index.len()
    }

    /// Whether the map contains no species.
    pub fn is_empty(&self) -> bool {
        self.by_index.is_empty()
    }

    /// Returns the id of `state`, inserting it if new.
    pub fn intern(&mut self, state: &S) -> SpeciesId {
        if let Some(&id) = self.by_state.get(state) {
            return id;
        }
        let id = SpeciesId::try_from(self.by_index.len()).expect("species id overflow");
        self.by_index.push(state.clone());
        self.by_state.insert(state.clone(), id);
        id
    }

    /// Returns the id of `state` if present.
    pub fn id(&self, state: &S) -> Option<SpeciesId> {
        self.by_state.get(state).copied()
    }

    /// Returns the state with id `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn state(&self, id: SpeciesId) -> &S {
        &self.by_index[id as usize]
    }

    /// Iterates over `(id, state)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (SpeciesId, &S)> {
        self.by_index
            .iter()
            .enumerate()
            .map(|(i, s)| (i as SpeciesId, s))
    }
}

/// One productive ordered reaction `A + B → A' + B'`.
///
/// `initiator`/`responder` follow the population-protocol convention; for
/// symmetric protocols both orders appear and carry the same joint update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reaction {
    /// Initiator species before the collision.
    pub initiator: SpeciesId,
    /// Responder species before the collision.
    pub responder: SpeciesId,
    /// Species of the two molecules after the collision (initiator first).
    pub products: (SpeciesId, SpeciesId),
}

/// An explicit bimolecular reaction network over the reachable species of a
/// protocol.
///
/// # Example
///
/// ```
/// use pp_crn::ReactionNetwork;
/// use pp_protocol::Protocol;
///
/// /// Two-state epidemic: an informed agent informs the other.
/// struct Epidemic;
/// impl Protocol for Epidemic {
///     type State = bool;
///     type Input = bool;
///     type Output = bool;
///     fn name(&self) -> &str { "epidemic" }
///     fn input(&self, i: &bool) -> bool { *i }
///     fn output(&self, s: &bool) -> bool { *s }
///     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
///         let informed = *a || *b;
///         (informed, informed)
///     }
/// }
///
/// let network = ReactionNetwork::from_protocol(&Epidemic, &[true, false], 100)?;
/// assert_eq!(network.species_count(), 2);
/// // true+false → true+true and false+true → true+true.
/// assert_eq!(network.reaction_count(), 2);
/// # Ok::<(), pp_crn::CrnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReactionNetwork<S> {
    species: SpeciesMap<S>,
    /// Productive reactions in `(initiator, responder)` order.
    reactions: Vec<Reaction>,
}

impl<S: Clone + Eq + Hash + Debug> ReactionNetwork<S> {
    /// Builds the network over the species closure of `support` under
    /// `protocol`, refusing to intern more than `max_species` species.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::ClosureTooLarge`] when the reachable species
    /// count exceeds `max_species`, and [`CrnError::EmptyPopulation`] when
    /// `support` is empty.
    pub fn from_protocol<P>(
        protocol: &P,
        support: &[S],
        max_species: usize,
    ) -> Result<Self, CrnError>
    where
        P: Protocol<State = S>,
    {
        if support.is_empty() {
            return Err(CrnError::EmptyPopulation);
        }
        let mut species = SpeciesMap::new();
        for s in support {
            species.intern(s);
            if species.len() > max_species {
                return Err(CrnError::ClosureTooLarge { limit: max_species });
            }
        }

        // Closure: repeatedly evaluate the transition on every ordered pair
        // of known species; `frontier_start` avoids re-evaluating pairs both
        // of whose species predate the previous round.
        let mut frontier_start = 0;
        loop {
            let known = species.len();
            let mut discovered = false;
            for a_idx in 0..known {
                for b_idx in 0..known {
                    if a_idx < frontier_start && b_idx < frontier_start {
                        continue; // evaluated in an earlier round
                    }
                    let a = species.state(a_idx as SpeciesId).clone();
                    let b = species.state(b_idx as SpeciesId).clone();
                    let (a2, b2) = protocol.transition(&a, &b);
                    for product in [&a2, &b2] {
                        if species.id(product).is_none() {
                            species.intern(product);
                            discovered = true;
                            if species.len() > max_species {
                                return Err(CrnError::ClosureTooLarge { limit: max_species });
                            }
                        }
                    }
                }
            }
            if !discovered {
                break;
            }
            frontier_start = known;
        }

        // Enumerate productive reactions among the closed species set.
        let m = species.len();
        let mut reactions = Vec::new();
        for a_idx in 0..m {
            for b_idx in 0..m {
                let a = species.state(a_idx as SpeciesId);
                let b = species.state(b_idx as SpeciesId);
                let (a2, b2) = protocol.transition(a, b);
                if a2 == *a && b2 == *b {
                    continue; // null interaction: not a reaction
                }
                let pa = species.id(&a2).expect("closure contains all products");
                let pb = species.id(&b2).expect("closure contains all products");
                reactions.push(Reaction {
                    initiator: a_idx as SpeciesId,
                    responder: b_idx as SpeciesId,
                    products: (pa, pb),
                });
            }
        }

        Ok(ReactionNetwork { species, reactions })
    }

    /// The species map.
    pub fn species(&self) -> &SpeciesMap<S> {
        &self.species
    }

    /// Number of species in the closure.
    pub fn species_count(&self) -> usize {
        self.species.len()
    }

    /// Number of productive ordered reactions.
    pub fn reaction_count(&self) -> usize {
        self.reactions.len()
    }

    /// All productive reactions, ordered by initiator, then responder.
    pub fn reactions(&self) -> &[Reaction] {
        &self.reactions
    }

    /// Converts an anonymous configuration into a dense per-species count
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::UnknownSpecies`] when `config` contains a state
    /// outside this network's closure, and [`CrnError::EmptyPopulation`]
    /// when it is empty.
    pub fn counts_from_config(&self, config: &CountConfig<S>) -> Result<Vec<u64>, CrnError>
    where
        S: Ord,
    {
        if config.is_empty() {
            return Err(CrnError::EmptyPopulation);
        }
        let mut counts = vec![0u64; self.species.len()];
        for (state, c) in config.iter() {
            let id = self
                .species
                .id(state)
                .ok_or_else(|| CrnError::UnknownSpecies {
                    state: format!("{state:?}"),
                })?;
            counts[id as usize] += c as u64;
        }
        Ok(counts)
    }

    /// Converts a dense count vector back into an anonymous configuration.
    pub fn config_from_counts(&self, counts: &[u64]) -> CountConfig<S>
    where
        S: Ord,
    {
        let mut config = CountConfig::new();
        for (id, state) in self.species.iter() {
            let c = counts[id as usize];
            if c > 0 {
                config.insert(state.clone(), c as usize);
            }
        }
        config
    }

    /// Converts a count vector into a density (unit-sum) vector.
    pub fn densities(&self, counts: &[u64]) -> Vec<f64> {
        let n: u64 = counts.iter().sum();
        assert!(n > 0, "cannot normalize an empty count vector");
        counts.iter().map(|&c| c as f64 / n as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circles_core::{CirclesProtocol, Color};
    use pp_protocol::Protocol;

    /// Three-state one-directional cycle: initiator advances the responder.
    struct Rps;
    impl Protocol for Rps {
        type State = u8;
        type Input = u8;
        type Output = u8;
        fn name(&self) -> &str {
            "rps"
        }
        fn input(&self, i: &u8) -> u8 {
            *i
        }
        fn output(&self, s: &u8) -> u8 {
            *s
        }
        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            if (*b + 1) % 3 == *a {
                (*a, *a) // initiator beats responder
            } else {
                (*a, *b)
            }
        }
    }

    #[test]
    fn closure_discovers_reachable_species_only() {
        // Starting from {0, 1} of the RPS protocol, state 2 is unreachable.
        let network = ReactionNetwork::from_protocol(&Rps, &[0, 1], 10).unwrap();
        assert_eq!(network.species_count(), 2);
        // 0 beats 1 is false ((1+1)%3==2≠0); 1 beats 0 ((0+1)%3==1): one reaction.
        assert_eq!(network.reaction_count(), 1);
        let r = network.reactions()[0];
        assert_eq!(network.species().state(r.initiator), &1);
        assert_eq!(network.species().state(r.responder), &0);
    }

    #[test]
    fn closure_bound_is_enforced() {
        let protocol = CirclesProtocol::new(4).unwrap();
        let support: Vec<_> = (0..4).map(|i| protocol.input(&Color(i))).collect();
        let err = ReactionNetwork::from_protocol(&protocol, &support, 3).unwrap_err();
        assert_eq!(err, CrnError::ClosureTooLarge { limit: 3 });
    }

    #[test]
    fn empty_support_is_rejected() {
        let err = ReactionNetwork::from_protocol(&Rps, &[], 10).unwrap_err();
        assert_eq!(err, CrnError::EmptyPopulation);
    }

    #[test]
    fn circles_closure_is_smaller_than_declared_space() {
        // k=4: declared state space is 64; the closure from the 4 initial
        // self-loops stays well below (outs only take self-loop colors seen).
        let protocol = CirclesProtocol::new(4).unwrap();
        let support: Vec<_> = (0..4).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 100).unwrap();
        assert!(network.species_count() <= 64);
        assert!(network.species_count() >= 16, "bra-kets alone give ≥ k²");
    }

    #[test]
    fn reactions_are_productive_and_closed() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let support: Vec<_> = (0..3).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 100).unwrap();
        for r in network.reactions() {
            let a = network.species().state(r.initiator);
            let b = network.species().state(r.responder);
            let (a2, b2) = protocol.transition(a, b);
            assert!(!(a2 == *a && b2 == *b), "null reaction listed");
            assert_eq!(network.species().id(&a2), Some(r.products.0));
            assert_eq!(network.species().id(&b2), Some(r.products.1));
        }
    }

    #[test]
    fn reactions_are_ordered_by_initiator_then_responder() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let support: Vec<_> = (0..3).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 100).unwrap();
        let order = |r: &Reaction| (r.initiator, r.responder);
        assert!(network
            .reactions()
            .windows(2)
            .all(|w| order(&w[0]) < order(&w[1])));
    }

    #[test]
    fn counts_round_trip_through_config() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let support: Vec<_> = (0..3).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 100).unwrap();
        let config: CountConfig<_> = [support[0], support[0], support[1], support[2]]
            .into_iter()
            .collect();
        let counts = network.counts_from_config(&config).unwrap();
        assert_eq!(counts.iter().sum::<u64>(), 4);
        assert_eq!(network.config_from_counts(&counts), config);
    }

    #[test]
    fn unknown_species_is_rejected() {
        let network = ReactionNetwork::from_protocol(&Rps, &[0, 1], 10).unwrap();
        let config: CountConfig<u8> = [2].into_iter().collect();
        assert!(matches!(
            network.counts_from_config(&config),
            Err(CrnError::UnknownSpecies { .. })
        ));
    }

    #[test]
    fn densities_sum_to_one() {
        let network = ReactionNetwork::from_protocol(&Rps, &[0, 1], 10).unwrap();
        let d = network.densities(&[3, 1]);
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(d, vec![0.75, 0.25]);
    }
}

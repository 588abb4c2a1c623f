//! Property-based tests (proptest) over the core invariants of the paper.
//!
//! Each property is a lemma or proof obligation from the paper, exercised
//! on randomized instances:
//!
//! - Lemma 3.3 (bra-ket conservation) under arbitrary interaction sequences;
//! - Theorem 3.4 (strict potential descent at every exchange);
//! - Lemma 3.2 (greedy-set structure);
//! - Lemma 3.6 (unique predicted terminal configuration) under randomized
//!   weakly fair schedules;
//! - Theorem 3.7 (correct consensus) end to end;
//! - engine equivalence (indexed vs counting) on terminal configurations;
//! - the ordinal `g(C)` of Theorem 3.4 (order-isomorphic to the
//!   lexicographic potential; natural sums well-behaved);
//! - the source-epidemic closed form (monotone in its arguments);
//! - the CRN layer (stochastic trajectories stay on the probability
//!   simplex).

use circles::analysis::epidemic::expected_source_epidemic_interactions;
use circles::core::ordinal::OmegaPolynomial;
use circles::core::potential::weight_vector;
use circles::core::prediction::{
    braket_config_of_population, is_exchange_stable, predicted_brakets,
};
use circles::core::{invariants, CirclesProtocol, Color, GreedyDecomposition};
use circles::crn::{count_density_trajectory, ReactionNetwork};
use circles::protocol::{
    CountConfig, CountEngine, Population, Protocol, Simulation, UniformPairScheduler,
};
use circles::schedulers::ShuffledRoundsScheduler;
use proptest::prelude::*;

/// Random instance: 2..=10 agents over 1..=5 colors.
fn instance() -> impl Strategy<Value = (Vec<u16>, u16)> {
    (1u16..=5).prop_flat_map(|k| (proptest::collection::vec(0..k, 2..=10), Just(k)))
}

/// Random larger instance for the counting engine.
fn large_instance() -> impl Strategy<Value = (Vec<u16>, u16)> {
    (2u16..=6).prop_flat_map(|k| (proptest::collection::vec(0..k, 16..=80), Just(k)))
}

fn to_colors(raw: &[u16]) -> Vec<Color> {
    raw.iter().map(|&c| Color(c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lemma 3.3: per color, #bras == #kets in every reachable
    /// configuration, under any (even unfair) interaction sequence.
    #[test]
    fn conservation_under_arbitrary_interactions(
        (raw, k) in instance(),
        steps in 0usize..400,
        seed in any::<u64>(),
    ) {
        let inputs = to_colors(&raw);
        let protocol = CirclesProtocol::new(k).unwrap();
        let population = Population::from_inputs(&protocol, &inputs);
        let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), seed);
        for _ in 0..steps {
            sim.step().unwrap();
        }
        prop_assert!(invariants::population_conserves(sim.population(), k));
        prop_assert!(invariants::bras_match_inputs(sim.population(), &inputs, k));
    }

    /// Theorem 3.4: the ascending-sorted weight vector strictly decreases
    /// (lexicographically) at every ket exchange, and never changes
    /// otherwise.
    #[test]
    fn potential_strictly_decreases_on_every_exchange(
        (raw, k) in instance(),
        seed in any::<u64>(),
    ) {
        let inputs = to_colors(&raw);
        let protocol = CirclesProtocol::new(k).unwrap();
        let population = Population::from_inputs(&protocol, &inputs);
        let mut last = weight_vector(&braket_config_of_population(&population), k);
        let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), seed);
        for _ in 0..300 {
            let report = sim.step().unwrap();
            let ket_moved = report.before.0.braket.ket != report.after.0.braket.ket
                || report.before.1.braket.ket != report.after.1.braket.ket;
            let next = weight_vector(&braket_config_of_population(sim.population()), k);
            if ket_moved {
                prop_assert!(next < last, "exchange did not decrease the potential");
            } else {
                prop_assert_eq!(&next, &last, "potential moved without an exchange");
            }
            last = next;
        }
    }

    /// Lemma 3.2 structure: every greedy set contains every winner, the
    /// sets are nested, and they partition the input multiset.
    #[test]
    fn greedy_sets_are_nested_partitions((raw, k) in instance()) {
        let inputs = to_colors(&raw);
        let greedy = GreedyDecomposition::from_inputs(&inputs, k).unwrap();
        prop_assert!(greedy.is_partition());
        for winner in greedy.winners() {
            for p in 1..=greedy.num_sets() {
                prop_assert!(greedy.set(p).contains(&winner));
            }
        }
        for p in 1..greedy.num_sets() {
            let outer = greedy.set(p);
            for c in greedy.set(p + 1) {
                prop_assert!(outer.contains(&c), "G_{} ⊄ G_{}", p + 1, p);
            }
        }
    }

    /// Lemma 3.6: under a weakly fair randomized schedule the run reaches
    /// exactly the predicted terminal bra-ket multiset, which is
    /// exchange-stable.
    #[test]
    fn runs_reach_the_predicted_terminal_configuration(
        (raw, k) in instance(),
        seed in any::<u64>(),
    ) {
        let inputs = to_colors(&raw);
        let protocol = CirclesProtocol::new(k).unwrap();
        let population = Population::from_inputs(&protocol, &inputs);
        let mut sim = Simulation::new(&protocol, population, ShuffledRoundsScheduler::new(), seed);
        sim.run_until_silent(50_000_000, 64).unwrap();
        let terminal = braket_config_of_population(sim.population());
        let predicted = predicted_brakets(&inputs, k).unwrap();
        prop_assert_eq!(&terminal, &predicted);
        prop_assert!(is_exchange_stable(&terminal, k));
    }

    /// Theorem 3.7: with a unique winner, every agent ends up outputting it.
    #[test]
    fn consensus_is_the_plurality_winner(
        (raw, k) in instance(),
        seed in any::<u64>(),
    ) {
        let inputs = to_colors(&raw);
        let greedy = GreedyDecomposition::from_inputs(&inputs, k).unwrap();
        prop_assume!(greedy.winner().is_some());
        let winner = circles::core::run_to_consensus(&inputs, k, seed, 50_000_000).unwrap();
        prop_assert_eq!(Some(winner), greedy.winner());
    }

    /// Engine equivalence: the counting engine reaches the same unique
    /// silent configuration as the indexed engine.
    #[test]
    fn counting_engine_terminal_matches_prediction(
        (raw, k) in large_instance(),
        seed in any::<u64>(),
    ) {
        let inputs = to_colors(&raw);
        let protocol = CirclesProtocol::new(k).unwrap();
        let mut sim = CountEngine::from_inputs(&protocol, &inputs, seed);
        sim.run_until_silent(200_000_000).unwrap();
        let predicted = predicted_brakets(&inputs, k).unwrap();
        let terminal: circles::protocol::CountConfig<circles::core::BraKet> = sim
            .config()
            .iter()
            .flat_map(|(s, c)| std::iter::repeat_n(s.braket, c))
            .collect();
        prop_assert_eq!(terminal, predicted);
    }

    /// The ordinal `g` built from an ascending weight vector orders exactly
    /// like the lexicographic potential, on random same-length vectors.
    #[test]
    fn ordinal_order_matches_lexicographic_potential(
        mut a in proptest::collection::vec(1u32..9, 1..8),
        mut raw_b in proptest::collection::vec(1u32..9, 1..8),
    ) {
        // Same-length vectors: potentials only compare within one n.
        raw_b.resize(a.len(), 1);
        a.sort_unstable();
        raw_b.sort_unstable();
        let lex = a.cmp(&raw_b);
        let ord = OmegaPolynomial::from_ascending_weights(&a)
            .cmp(&OmegaPolynomial::from_ascending_weights(&raw_b));
        prop_assert_eq!(lex, ord, "orders disagree on {:?} vs {:?}", a, raw_b);
    }

    /// Natural sums: commutative, zero-identity, and strictly monotone on
    /// the left argument.
    #[test]
    fn natural_sum_laws(
        terms_a in proptest::collection::vec((0u64..6, 0u64..9), 0..5),
        terms_b in proptest::collection::vec((0u64..6, 0u64..9), 0..5),
    ) {
        let dedup = |terms: Vec<(u64, u64)>| {
            let mut by_degree = std::collections::BTreeMap::new();
            for (d, c) in terms {
                *by_degree.entry(d).or_insert(0u64) += c;
            }
            OmegaPolynomial::from_terms(by_degree).unwrap()
        };
        let a = dedup(terms_a);
        let b = dedup(terms_b);
        prop_assert_eq!(a.natural_sum(&b), b.natural_sum(&a));
        prop_assert_eq!(a.natural_sum(&OmegaPolynomial::zero()), a.clone());
        if !b.is_zero() {
            prop_assert!(a.natural_sum(&b) > a, "x ⊕ y > x for y > 0");
        }
    }

    /// The source-epidemic expectation is increasing in the uninformed
    /// count and decreasing in the source count.
    #[test]
    fn source_epidemic_is_monotone(
        n in 4u64..200,
        s in 1u64..8,
        u in 1u64..100,
    ) {
        // The doubled-sources check below needs 2s + u to stay within the
        // population, which also covers the (n, s, u + 1) call.
        prop_assume!(2 * s + u + 1 < n);
        let base = expected_source_epidemic_interactions(n, s, u);
        prop_assert!(expected_source_epidemic_interactions(n, s, u + 1) > base);
        prop_assert!(expected_source_epidemic_interactions(n, s + 1, u) < base);
        // Exact halving when sources double.
        let halved = expected_source_epidemic_interactions(n, 2 * s, u);
        prop_assert!((halved - base / 2.0).abs() < 1e-9 * base);
    }

    /// Every row of a stochastic density trajectory is a probability vector.
    #[test]
    fn ssa_trajectories_stay_on_the_simplex(
        (raw, k) in instance(),
        seed in any::<u64>(),
    ) {
        prop_assume!(raw.len() >= 2);
        let protocol = CirclesProtocol::new(k).unwrap();
        let support: Vec<_> = (0..k).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 100_000).unwrap();
        let initial: CountConfig<_> =
            raw.iter().map(|&c| protocol.input(&Color(c))).collect();
        let times = [0.0, 0.5, 1.5, 4.0];
        let traj = count_density_trajectory(&network, &protocol, &initial, seed, &times).unwrap();
        for row in &traj.rows {
            let total: f64 = row.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9, "row mass {total}");
            prop_assert!(row.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }
}

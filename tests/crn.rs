//! Integration tests for the chemical-reaction-network view: stochastic
//! runs of the network (the count engine's exact uniform-pair chain, timed
//! in parallel time) and the mean-field ODE must agree with the paper's
//! predicted terminal configuration (Lemma 3.6) and with closed forms.

use circles::core::{prediction, weight, CirclesProtocol, CirclesState, Color};
use circles::crn::{MeanField, ReactionNetwork};
use circles::protocol::{parallel_time, CountConfig, CountEngine, Protocol};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Interaction budget for runs that must silence; Circles on these small
/// instances silences orders of magnitude sooner.
const BUDGET: u64 = 10_000_000;

fn setup(
    k: u16,
    inputs: &[u16],
) -> (
    CirclesProtocol,
    ReactionNetwork<CirclesState>,
    CountConfig<CirclesState>,
    Vec<Color>,
) {
    let protocol = CirclesProtocol::new(k).unwrap();
    let support: Vec<CirclesState> = (0..k).map(|i| protocol.input(&Color(i))).collect();
    let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000_000).unwrap();
    let colors: Vec<Color> = inputs.iter().map(|&c| Color(c)).collect();
    let initial: CountConfig<CirclesState> = colors.iter().map(|c| protocol.input(c)).collect();
    (protocol, network, initial, colors)
}

#[test]
fn ssa_terminal_brakets_match_prediction_across_instances() {
    let instances: &[(u16, &[u16])] = &[
        (2, &[0, 0, 0, 1, 1]),
        (3, &[0, 0, 1, 1, 1, 2]),
        (4, &[0, 1, 1, 2, 2, 2, 2, 3]),
        (5, &[0, 0, 0, 1, 2, 2, 3, 4, 4, 4, 4]),
    ];
    for &(k, inputs) in instances {
        let (protocol, _, initial, colors) = setup(k, inputs);
        let predicted = prediction::predicted_brakets(&colors, k).unwrap();
        for seed in 0..5 {
            let mut engine = CountEngine::from_config(&protocol, initial.clone(), seed);
            engine
                .run_until_silent(BUDGET)
                .unwrap_or_else(|e| panic!("k={k} seed={seed}: {e}"));
            assert_eq!(
                prediction::braket_config(&engine.config()),
                predicted,
                "k={k} seed={seed}: terminal bra-kets differ from Lemma 3.6"
            );
        }
    }
}

/// Two-state epidemic: any informed participant informs the other.
struct Epidemic;

impl Protocol for Epidemic {
    type State = bool;
    type Input = bool;
    type Output = bool;
    fn name(&self) -> &str {
        "epidemic"
    }
    fn input(&self, i: &bool) -> bool {
        *i
    }
    fn output(&self, s: &bool) -> bool {
        *s
    }
    fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
        let informed = *a || *b;
        (informed, informed)
    }
}

/// Parallel time (`steps_to_silence / n`) keeps the continuous-time clock's
/// mean. With `i` informed agents an interaction is productive with
/// probability `2i(n−i)/(n(n−1))`, so the expected interactions per
/// productive step are `n(n−1)/(2i(n−i))` and
/// `E[T] = Σ_{i=1}^{n−1} (n−1)/(2i(n−i))` exactly.
#[test]
fn epidemic_completion_time_matches_analytic_expectation() {
    let n = 32usize;
    let expected: f64 = (1..n)
        .map(|i| (n - 1) as f64 / (2.0 * i as f64 * (n - i) as f64))
        .sum();
    let initial: CountConfig<bool> = std::iter::once(true)
        .chain(std::iter::repeat_n(false, n - 1))
        .collect();
    let trials = 600u64;
    let mut acc = 0.0;
    for seed in 0..trials {
        let mut engine = CountEngine::from_config(&Epidemic, initial.clone(), seed);
        let report = engine.run_until_silent(BUDGET).unwrap();
        assert_eq!(
            report.state_changes,
            n as u64 - 1,
            "one infection per change"
        );
        acc += parallel_time(report.steps_to_silence, n);
    }
    let mean = acc / trials as f64;
    let rel = (mean - expected).abs() / expected;
    assert!(
        rel < 0.08,
        "mean {mean} vs expected {expected} (rel err {rel})"
    );
}

#[test]
fn ode_equilibrium_energy_is_k_times_top_density() {
    // Profiles with a strict leader: terminal energy per agent must be
    // k·p_max (c_max circles, each of total weight k).
    let k = 4u16;
    let protocol = CirclesProtocol::new(k).unwrap();
    let support: Vec<CirclesState> = (0..k).map(|i| protocol.input(&Color(i))).collect();
    let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000_000).unwrap();
    let field = MeanField::new(&network);
    for profile in [
        [0.4, 0.3, 0.2, 0.1],
        [0.7, 0.1, 0.1, 0.1],
        [0.31, 0.27, 0.22, 0.2],
    ] {
        let mut x0 = vec![0.0; network.species_count()];
        for (i, &p) in profile.iter().enumerate() {
            x0[network.species().id(&support[i]).unwrap() as usize] = p;
        }
        let (x, _) = field.run_to_equilibrium(x0, 1e-10, 0.02, 2_000.0).unwrap();
        let energy = field.observe(&x, |s| f64::from(weight(k, s.braket)));
        let floor = f64::from(k) * profile[0];
        assert!(
            (energy - floor).abs() < 1e-4,
            "profile {profile:?}: energy {energy} vs floor {floor}"
        );
    }
}

#[test]
fn ode_consensus_density_lands_on_winner() {
    let k = 3u16;
    let protocol = CirclesProtocol::new(k).unwrap();
    let support: Vec<CirclesState> = (0..k).map(|i| protocol.input(&Color(i))).collect();
    let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000_000).unwrap();
    let field = MeanField::new(&network);
    let mut x0 = vec![0.0; network.species_count()];
    let profile = [0.2, 0.45, 0.35];
    for (i, &p) in profile.iter().enumerate() {
        x0[network.species().id(&support[i]).unwrap() as usize] = p;
    }
    let (x, _) = field.run_to_equilibrium(x0, 1e-10, 0.02, 2_000.0).unwrap();
    let winner_mass = field.observe(&x, |s| f64::from(s.out == Color(1)));
    assert!(winner_mass > 1.0 - 1e-6, "winner out-mass {winner_mass}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random no-tie instances: every stochastic run silences and reaches
    /// consensus on the plurality winner (Theorem 3.7).
    #[test]
    fn ssa_always_correct_on_random_instances(
        counts in pvec(0usize..6, 3),
        seed in 0u64..1_000,
    ) {
        // Make color 0 the strict winner.
        let mut counts = counts;
        let max_other = counts.iter().skip(1).copied().max().unwrap_or(0);
        counts[0] = max_other + 1 + counts[0] % 2;
        let total: usize = counts.iter().sum();
        prop_assume!(total >= 2);
        let inputs: Vec<u16> = counts
            .iter()
            .enumerate()
            .flat_map(|(c, &n)| std::iter::repeat_n(c as u16, n))
            .collect();
        let (protocol, _, initial, _) = setup(3, &inputs);
        let mut engine = CountEngine::from_config(&protocol, initial, seed);
        let report = engine.run_until_silent(BUDGET);
        prop_assert!(report.is_ok(), "did not silence: {report:?}");
        prop_assert_eq!(engine.config().output_consensus(&protocol), Some(Color(0)));
    }

    /// Mass and the bra/ket conservation law survive arbitrary prefixes of
    /// stochastic runs.
    #[test]
    fn ssa_preserves_mass_and_conservation(
        steps in 0u64..2_000,
        seed in 0u64..1_000,
    ) {
        let (protocol, _, initial, _) = setup(4, &[0, 0, 1, 1, 2, 3, 3]);
        let mut engine = CountEngine::from_config(&protocol, initial, seed);
        engine.advance_to(steps).unwrap();
        prop_assert_eq!(engine.counts().iter().sum::<u64>(), 7);
        prop_assert_eq!(engine.audit(), Ok(()));
        let brakets = prediction::braket_config(&engine.config());
        prop_assert!(circles::core::invariants::conservation_holds(&brakets, 4));
    }
}

//! Discovery-path equivalences for the warm-start machinery.
//!
//! Three claims, over a grab-bag of symmetric and asymmetric protocols
//! (including randomly generated symmetric rules):
//!
//! 1. **Symmetric discovery is lossless**: an engine using the
//!    halved-query symmetric path produces a [`TransitionTable`]
//!    bit-identical to one discovered by brute-force over all ordered
//!    pairs (the same protocol with `is_symmetric()` masked off).
//! 2. **Warm starts replay bit-identically**: a warm-started engine driven
//!    through a cold run's recorded change-point schedule (via
//!    [`ReplayCountScheduler`]) reaches the same configuration with the
//!    same statistics — on both the sparse and compact activity indexes.
//! 3. **Concurrent exports stay complete**: engines racing their exports
//!    into one shared table leave it classifying every ordered state pair
//!    exactly as the protocol does.

use pp_protocol::{
    CompactActivity, CountConfig, CountEngine, Protocol, ReplayCountScheduler, TransitionTable,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forwards every query to the inner protocol but reports it as
/// asymmetric, forcing the all-ordered-pairs discovery path.
struct ForceAsym<'a, P>(&'a P);

impl<P: Protocol> Protocol for ForceAsym<'_, P> {
    type State = P::State;
    type Input = P::Input;
    type Output = P::Output;

    fn name(&self) -> &str {
        self.0.name()
    }

    fn input(&self, input: &Self::Input) -> Self::State {
        self.0.input(input)
    }

    fn output(&self, state: &Self::State) -> Self::Output {
        self.0.output(state)
    }

    fn transition(&self, a: &Self::State, b: &Self::State) -> (Self::State, Self::State) {
        self.0.transition(a, b)
    }

    fn is_symmetric(&self) -> bool {
        false
    }
}

/// A randomly generated *symmetric* rule over states `0..m`: each unordered
/// pair either rewrites both agents to a pair-determined target or is null.
/// Symmetric by construction (the rule reads only the unordered pair), and
/// free to livelock — runs are budget-bounded.
struct RandSym {
    m: u8,
    seed: u64,
}

fn mix(seed: u64, lo: u8, hi: u8) -> u64 {
    let mut h = seed ^ (u64::from(lo) << 8) ^ (u64::from(hi) << 20) ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl Protocol for RandSym {
    type State = u8;
    type Input = u8;
    type Output = u8;

    fn name(&self) -> &str {
        "rand-sym"
    }

    fn input(&self, i: &u8) -> u8 {
        *i % self.m
    }

    fn output(&self, s: &u8) -> u8 {
        *s
    }

    fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
        let (lo, hi) = (*a.min(b), *a.max(b));
        let h = mix(self.seed, lo, hi);
        if h.is_multiple_of(3) {
            let t = ((h >> 2) % u64::from(self.m)) as u8;
            (t, t)
        } else {
            (*a, *b)
        }
    }

    fn is_symmetric(&self) -> bool {
        true
    }
}

/// The asymmetric member of the grab bag: the responder copies the
/// initiator — order matters, no symmetric path.
struct CopyCat;

impl Protocol for CopyCat {
    type State = u8;
    type Input = u8;
    type Output = u8;

    fn name(&self) -> &str {
        "copycat"
    }

    fn input(&self, i: &u8) -> u8 {
        *i
    }

    fn output(&self, s: &u8) -> u8 {
        *s
    }

    fn transition(&self, a: &u8, _b: &u8) -> (u8, u8) {
        (*a, *a)
    }
}

const BUDGET: u64 = 200_000;

/// Runs a bounded uniform trial and returns the engine's warm table.
fn discovered_table<P: Protocol<State = u8, Input = u8>>(
    protocol: &P,
    inputs: &[u8],
    seed: u64,
) -> TransitionTable<P> {
    let mut engine = CountEngine::from_inputs(protocol, inputs, seed);
    let _ = engine.run_until_silent(BUDGET);
    engine.warm_table()
}

/// Replays `trace` through a warm-started engine on activity index `A` and
/// asserts the run is bit-identical to the cold reference.
fn assert_warm_replay_matches<P, A>(
    protocol: &P,
    config: &CountConfig<u8>,
    table: &TransitionTable<P>,
    trace: &pp_protocol::CountTrace<u8>,
    reference: &CountEngine<'_, P>,
) where
    P: Protocol<State = u8, Input = u8, Output = u8>,
    A: pp_protocol::Activity,
{
    let mut warm = CountEngine::<P, ReplayCountScheduler<u8>, A>::with_snapshot_rng(
        protocol,
        config.clone(),
        trace.clone().into_scheduler(),
        StdRng::seed_from_u64(0), // the RNG must be irrelevant under replay
        table.snapshot(),
    );
    for k in 0..trace.len() {
        assert!(warm.step().unwrap(), "traced pair {k} must be active");
    }
    assert_eq!(warm.config(), reference.config(), "final configurations");
    assert_eq!(
        warm.stats().state_changes,
        reference.stats().state_changes,
        "state-change counts"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1 for random symmetric rules: the symmetric discovery path
    /// yields a table bit-identical to brute-force ordered discovery.
    #[test]
    fn symmetric_discovery_is_bit_identical_to_bruteforce(
        rule_seed in any::<u64>(),
        inputs in proptest::collection::vec(0u8..12, 2..40),
        run_seed in any::<u64>(),
    ) {
        let protocol = RandSym { m: 12, seed: rule_seed };
        let sym = discovered_table(&protocol, &inputs, run_seed);
        let forced = ForceAsym(&protocol);
        let asym = discovered_table(&forced, &inputs, run_seed);
        prop_assert_eq!(sym.dump(), asym.dump());
    }

    /// Claim 2 across the grab bag: warm engines replay cold schedules
    /// bit-identically on every activity index.
    #[test]
    fn warm_engines_replay_cold_runs_bit_identically(
        rule_seed in any::<u64>(),
        inputs in proptest::collection::vec(0u8..10, 2..32),
        run_seed in any::<u64>(),
    ) {
        let sym = RandSym { m: 10, seed: rule_seed };
        check_warm_replay(&sym, &inputs, run_seed);
        check_warm_replay(&CopyCat, &inputs, run_seed);
    }
}

fn check_warm_replay<P: Protocol<State = u8, Input = u8, Output = u8>>(
    protocol: &P,
    inputs: &[u8],
    seed: u64,
) {
    let config: CountConfig<u8> = inputs.iter().map(|i| protocol.input(i)).collect();
    let mut cold = CountEngine::from_config(protocol, config.clone(), seed);
    cold.record_trace();
    let _ = cold.run_until_silent(BUDGET);
    let trace = cold.take_trace().expect("recording was on");
    let table = cold.warm_table();
    assert_warm_replay_matches::<_, pp_protocol::SparseActivity>(
        protocol, &config, &table, &trace, &cold,
    );
    assert_warm_replay_matches::<_, CompactActivity>(protocol, &config, &table, &trace, &cold);
}

/// Claim 3: concurrent exports from racing engines leave the shared table
/// complete and protocol-faithful.
#[test]
fn concurrent_exports_keep_the_table_complete() {
    let protocol = RandSym {
        m: 16,
        seed: 0xC0FFEE,
    };
    let table = TransitionTable::new();
    std::thread::scope(|scope| {
        for t in 0u8..4 {
            let table = &table;
            let protocol = &protocol;
            scope.spawn(move || {
                // Each thread works a different slice of the state space,
                // with overlap, so merges hit both known and unknown states.
                let inputs: Vec<u8> = (0..24).map(|i| (i + u64::from(t) * 3) as u8 % 16).collect();
                let mut engine = CountEngine::from_inputs(protocol, &inputs, u64::from(t));
                let _ = engine.run_until_silent(BUDGET);
                engine.export_to(table);
            });
        }
    });
    let dump = table.dump();
    assert!(!dump.states.is_empty());
    for (i, si) in dump.states.iter().enumerate() {
        for (j, sj) in dump.states.iter().enumerate() {
            let expected = !protocol.is_null_interaction(si, sj);
            assert_eq!(
                dump.rows[i].binary_search(&(j as u32)).is_ok(),
                expected,
                "pair ({si}, {sj}) misclassified after concurrent merges"
            );
        }
    }
    // Outcomes must agree with the protocol wherever memoized.
    for (&(i, j), &(a, b)) in dump.outcomes.iter().map(|(k, v)| (k, v)) {
        let (ta, tb) = protocol.transition(&dump.states[i as usize], &dump.states[j as usize]);
        assert_eq!((ta, tb), (dump.states[a as usize], dump.states[b as usize]));
    }
}

//! Equivalence of the indexed and count-based engines.
//!
//! Two layers:
//!
//! 1. **Replay equivalence** (exact): record an indexed run's interaction
//!    schedule, map it to the corresponding *state pair* sequence, and drive
//!    the count engine through a [`ReplayCountScheduler`] — both engines
//!    must produce identical [`RunReport`]s and final configurations.
//!    This pins the count engine's delta application, statistics and
//!    consensus bookkeeping to the indexed reference, independent of
//!    sampling.
//! 2. **Distributional equivalence** (statistical): under the
//!    uniform-random model the two engines sample differently (agent pairs
//!    vs hypergeometric state pairs with geometric change-point skips) but
//!    must agree in distribution; compare steps-to-silence statistics over
//!    many seeds.

use pp_protocol::{
    CountConfig, CountEngine, Population, Protocol, ReplayCountScheduler, Simulation,
    SparseActivity, UniformPairScheduler,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Max;

impl Protocol for Max {
    type State = u8;
    type Input = u8;
    type Output = u8;

    fn name(&self) -> &str {
        "max"
    }

    fn input(&self, i: &u8) -> u8 {
        *i
    }

    fn output(&self, s: &u8) -> u8 {
        *s
    }

    fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
        let m = *a.max(b);
        (m, m)
    }

    fn is_symmetric(&self) -> bool {
        true
    }
}

/// Runs the indexed engine to silence with trace recording and returns the
/// report plus the interaction schedule as state pairs.
fn indexed_reference(inputs: &[u8], seed: u64) -> (pp_protocol::RunReport<u8>, Vec<(u8, u8)>) {
    let population = Population::from_inputs(&Max, inputs);
    let mut sim = Simulation::new(&Max, population, UniformPairScheduler::new(), seed);
    sim.record_trace();
    let report = sim.run_until_silent(10_000_000, 16).expect("max silences");
    let trace = sim.take_trace().expect("trace was recorded");

    // Map agent pairs to the states they held at interaction time.
    let mut replay = Population::from_inputs(&Max, inputs);
    let mut state_pairs = Vec::with_capacity(trace.pairs().len());
    for &(i, j) in trace.pairs() {
        state_pairs.push((replay[i], replay[j]));
        replay.interact(&Max, i, j).expect("valid trace");
    }
    (report, state_pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replaying an indexed run's state-pair schedule through the count
    /// engine reproduces the exact same `RunReport` and final multiset.
    #[test]
    fn replayed_runs_produce_identical_reports(
        inputs in proptest::collection::vec(0u8..6, 2..24),
        seed in any::<u64>(),
    ) {
        let (reference, state_pairs) = indexed_reference(&inputs, seed);
        let steps = state_pairs.len() as u64;

        let config = inputs.iter().copied().collect();
        let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &Max,
            config,
            ReplayCountScheduler::new(state_pairs),
            StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF), // the RNG must be irrelevant under replay
        );
        for _ in 0..steps {
            engine.step().unwrap();
            prop_assert_eq!(engine.audit(), Ok(()));
        }
        prop_assert_eq!(engine.report(), reference);
        prop_assert!(engine.is_silent());

        // A silent max-protocol population is unanimous at the input max.
        let max_in = *inputs.iter().max().unwrap();
        prop_assert_eq!(engine.config().to_state_vec(), vec![max_in; inputs.len()]);
    }

    /// The batched uniform path conserves the population multiset size and
    /// reaches the same consensus as the indexed engine for every seed.
    #[test]
    fn batched_uniform_run_matches_indexed_consensus(
        inputs in proptest::collection::vec(0u8..6, 2..24),
        seed in any::<u64>(),
    ) {
        let (reference, _) = indexed_reference(&inputs, seed);
        let mut engine = CountEngine::from_inputs(&Max, &inputs, seed);
        let report = engine.run_until_silent(10_000_000).unwrap();
        prop_assert_eq!(report.consensus, reference.consensus);
        prop_assert_eq!(engine.config().n(), inputs.len());
    }
}

/// The `u128` mass path: populations past `u32::MAX`, whose pair weights
/// overflow the former `u64` arithmetic, sample and update exactly.
#[test]
fn u128_mass_path_handles_populations_past_u32_max() {
    // Two states with 4·10^9 agents each: n = 8·10^9 > u32::MAX, and the
    // active mass 2 · (4·10^9)² = 3.2·10^19 > u64::MAX.
    let big = 4_000_000_000usize;
    let mut config = CountConfig::new();
    config.insert(1u8, big);
    config.insert(2u8, big);
    let mut engine = CountEngine::from_config(&Max, config, 42);
    assert_eq!(engine.n(), 8_000_000_000);
    let expected_mass = 2 * (big as u128) * (big as u128);
    assert!(expected_mass > u128::from(u64::MAX), "must exceed u64");
    assert_eq!(engine.mass(), expected_mass);

    // Drive real change-points through the u128 sampler: every interaction
    // between the two states is active, so a small budget executes ~half
    // as many state changes.
    let err = engine.run_until_silent(10_000).unwrap_err();
    assert_eq!(
        err,
        pp_protocol::FrameworkError::MaxStepsExceeded { max_steps: 10_000 }
    );
    let stats = engine.stats();
    assert_eq!(stats.steps, 10_000);
    assert!(stats.state_changes > 2_000, "p = mass/total ≈ 1/2");
    let config = engine.config();
    assert_eq!(config.n(), 2 * big, "agents conserved at 8·10^9");
    let moved = config.count(&2) - big;
    assert_eq!(
        moved as u64, stats.state_changes,
        "each change moves exactly one agent from 1 to 2"
    );
    // Mass stays exact after u128 updates.
    let c1 = config.count(&1) as u128;
    let c2 = config.count(&2) as u128;
    assert_eq!(engine.mass(), 2 * c1 * c2);
    assert_eq!(engine.audit(), Ok(()));
}

/// A protocol that is one interaction away from silence: the single `1`
/// turns into an inert `2` on first contact, everything else is null.
struct Quench;

impl Protocol for Quench {
    type State = u8;
    type Input = u8;
    type Output = u8;

    fn name(&self) -> &str {
        "quench"
    }

    fn input(&self, i: &u8) -> u8 {
        *i
    }

    fn output(&self, s: &u8) -> u8 {
        *s
    }

    fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
        match (*a, *b) {
            (1, 0) => (2, 0),
            (0, 1) => (0, 2),
            other => other,
        }
    }
}

/// Near-silent configurations at huge `n` skip astronomically many null
/// interactions in one geometric draw without overflowing the step budget.
#[test]
fn geometric_skip_survives_astronomical_null_stretches() {
    // One lonely 1 among 5·10^9 zeros: only pairs touching the 1 are
    // active (weight ≈ 10^10 of ~2.5·10^19 total), so the expected skip to
    // the single state change is ~2.5·10^9 null interactions — all
    // consumed by one geometric draw.
    let n0 = 5_000_000_000usize;
    let mut config = CountConfig::new();
    config.insert(0u8, n0);
    config.insert(1u8, 1);
    let mut engine = CountEngine::from_config(&Quench, config, 3);
    let report = engine.run_until_silent(u64::MAX).unwrap();
    assert!(engine.is_silent());
    assert_eq!(report.state_changes, 1, "exactly one quenching interaction");
    assert!(
        report.steps > 1_000_000,
        "nulls must have been skipped in bulk, steps = {}",
        report.steps
    );
    assert_eq!(engine.config().count(&2), 1);
    assert_eq!(engine.config().count(&0), n0);
}

/// Mean and standard error of a sample.
fn mean_se(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

/// Steps-to-silence distributions of the two engines agree at small `n`
/// under the uniform-random model: a two-sample z-style check on the means
/// over many seeds, with a deterministic seed set.
#[test]
fn steps_to_silence_distributions_agree() {
    let inputs: Vec<u8> = (0..20).map(|i| (i % 4) as u8).collect();
    let seeds = 400u64;

    let indexed: Vec<f64> = (0..seeds)
        .map(|seed| {
            let population = Population::from_inputs(&Max, &inputs);
            let mut sim = Simulation::new(&Max, population, UniformPairScheduler::new(), seed);
            sim.run_until_silent(10_000_000, 16)
                .expect("max silences")
                .steps_to_silence as f64
        })
        .collect();
    let counted: Vec<f64> = (0..seeds)
        .map(|seed| {
            let mut engine = CountEngine::from_inputs(&Max, &inputs, seed);
            engine
                .run_until_silent(10_000_000)
                .expect("max silences")
                .steps_to_silence as f64
        })
        .collect();

    let (mi, si) = mean_se(&indexed);
    let (mc, sc) = mean_se(&counted);
    let gap = (mi - mc).abs();
    let se = si.hypot(sc);
    // Under H0 the standardized gap is ~N(0, 1); allow 4σ plus a small
    // absolute slack so the deterministic seed set cannot flake.
    assert!(
        gap <= 4.0 * se + 0.02 * mi.max(mc),
        "steps-to-silence means diverge: indexed {mi:.1}±{si:.1} vs count {mc:.1}±{sc:.1}"
    );
}

/// The unbatched (`step`) and batched (`run_until_silent`) uniform paths of
/// the count engine agree in distribution too — they share the sampler but
/// exercise different code paths.
#[test]
fn stepped_and_batched_count_paths_agree() {
    let inputs: Vec<u8> = (0..16).map(|i| (i % 5) as u8).collect();
    let seeds = 400u64;

    let stepped: Vec<f64> = (0..seeds)
        .map(|seed| {
            let mut engine = CountEngine::from_inputs(&Max, &inputs, seed);
            while !engine.is_silent() {
                engine.step().unwrap();
            }
            engine.report().steps_to_silence as f64
        })
        .collect();
    let batched: Vec<f64> = (0..seeds)
        .map(|seed| {
            let mut engine = CountEngine::from_inputs(&Max, &inputs, seed ^ 0x5EED);
            engine
                .run_until_silent(10_000_000)
                .expect("max silences")
                .steps_to_silence as f64
        })
        .collect();

    let (ms, ss) = mean_se(&stepped);
    let (mb, sb) = mean_se(&batched);
    let gap = (ms - mb).abs();
    let se = ss.hypot(sb);
    assert!(
        gap <= 4.0 * se + 0.02 * ms.max(mb),
        "stepped vs batched means diverge: {ms:.1}±{ss:.1} vs {mb:.1}±{sb:.1}"
    );
}

//! Bit-reproducibility of seeded uniform runs.
//!
//! The canonical-slot-order contract: for a fixed seed, the engine's
//! trajectory — `RunReport`, final configuration, counters — is identical
//! across cold starts, warm starts from *any* table (including tables whose
//! id order was produced by a different seed's trajectory, or by another
//! protocol run entirely), and both activity indexes. Warm tables are
//! lookup oracles, never orderings, so nothing the table contains may
//! perturb a single draw.

use pp_protocol::{
    CompactActivity, CountConfig, CountEngine, Protocol, RunReport, SimStats, SparseActivity,
    TransitionTable, UniformCountScheduler,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A randomly generated *symmetric* rule over states `0..m`: each unordered
/// pair either rewrites both agents to a pair-determined target or is null.
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

/// The asymmetric member: the responder copies the initiator.
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

/// Runs a warm engine on activity index `A` and asserts it is bit-identical
/// to the cold reference of the same seed.
fn assert_warm_matches_cold<P, A>(
    protocol: &P,
    config: &CountConfig<u8>,
    seed: u64,
    table: &TransitionTable<P>,
    report: &RunReport<u8>,
    final_config: &CountConfig<u8>,
    stats: SimStats,
) where
    P: Protocol<State = u8, Input = u8, Output = u8>,
    A: pp_protocol::Activity,
{
    let mut warm = CountEngine::<P, UniformCountScheduler, A>::with_snapshot_rng(
        protocol,
        config.clone(),
        UniformCountScheduler::new(),
        StdRng::seed_from_u64(seed),
        table.snapshot(),
    );
    let _ = warm.run_until_silent(BUDGET);
    assert_eq!(&warm.report(), report, "RunReport diverged");
    assert_eq!(&warm.config(), final_config, "final configuration diverged");
    assert_eq!(warm.stats(), stats, "counters diverged");
}

fn check_bit_identity<P: Protocol<State = u8, Input = u8, Output = u8>>(
    protocol: &P,
    inputs: &[u8],
    run_seed: u64,
    scout_seed: u64,
) {
    let config: CountConfig<u8> = inputs.iter().map(|i| protocol.input(i)).collect();
    // Cold reference trajectory.
    let mut cold = CountEngine::from_config(protocol, config.clone(), run_seed);
    let _ = cold.run_until_silent(BUDGET);
    let report = cold.report();
    let final_config = cold.config();
    let stats = cold.stats();

    // A table discovered by a *different* seed's trajectory generally holds
    // its states in a different id order (and possibly more of them) — the
    // warm run must not notice.
    let mut scout = CountEngine::from_config(protocol, config.clone(), scout_seed);
    let _ = scout.run_until_silent(BUDGET);
    let table = scout.warm_table();

    assert_warm_matches_cold::<P, SparseActivity>(
        protocol,
        &config,
        run_seed,
        &table,
        &report,
        &final_config,
        stats,
    );
    assert_warm_matches_cold::<P, CompactActivity>(
        protocol,
        &config,
        run_seed,
        &table,
        &report,
        &final_config,
        stats,
    );

    // An empty table (cold path through the warm constructor) agrees too.
    let empty = TransitionTable::new();
    assert_warm_matches_cold::<P, SparseActivity>(
        protocol,
        &config,
        run_seed,
        &empty,
        &report,
        &final_config,
        stats,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// For random symmetric rules and the asymmetric copycat: the same
    /// seed's uniform run is bit-identical warm vs cold, on every activity
    /// index, for tables of any origin.
    #[test]
    fn warm_and_cold_runs_of_the_same_seed_are_bit_identical(
        rule_seed in any::<u64>(),
        inputs in proptest::collection::vec(0u8..10, 2..32),
        run_seed in any::<u64>(),
        scout_seed in any::<u64>(),
    ) {
        let sym = RandSym { m: 10, seed: rule_seed };
        check_bit_identity(&sym, &inputs, run_seed, scout_seed);
        check_bit_identity(&CopyCat, &inputs, run_seed, scout_seed);
    }

    /// A table that keeps growing mid-sweep (exports from other seeds)
    /// still never perturbs a given seed's trajectory.
    #[test]
    fn growing_tables_do_not_perturb_trajectories(
        rule_seed in any::<u64>(),
        inputs in proptest::collection::vec(0u8..8, 2..24),
        run_seed in any::<u64>(),
    ) {
        let protocol = RandSym { m: 8, seed: rule_seed };
        let config: CountConfig<u8> = inputs.iter().map(|i| protocol.input(i)).collect();
        let mut cold = CountEngine::from_config(&protocol, config.clone(), run_seed);
        let _ = cold.run_until_silent(BUDGET);

        let table = TransitionTable::new();
        let mut last: Option<RunReport<u8>> = None;
        // Three rounds: the table is empty, then partially, then fully
        // populated — the warm run's report must never move.
        for round in 0..3u64 {
            let mut warm = CountEngine::<_, _, SparseActivity, _>::with_snapshot_rng(
                &protocol,
                config.clone(),
                UniformCountScheduler::new(),
                StdRng::seed_from_u64(run_seed),
                table.snapshot(),
            );
            let _ = warm.run_until_silent(BUDGET);
            prop_assert_eq!(warm.report(), cold.report(), "round {}", round);
            if let Some(prev) = &last {
                prop_assert_eq!(prev, &warm.report());
            }
            last = Some(warm.report());
            // Grow the table: this round's run plus an unrelated seed.
            warm.export_to(&table);
            let mut other = CountEngine::from_config(&protocol, config.clone(), run_seed ^ (round + 1));
            let _ = other.run_until_silent(BUDGET);
            other.export_to(&table);
        }
    }
}

//! Property-based tests for the §4 extensions: label-range safety, leader
//! uniqueness dynamics, the undo machinery's conservation guarantee, and
//! the hazard layer's mass-conservation and zero-overhead contracts.

use circles_core::{CirclesProtocol, Color};
use pp_extensions::hazards::{run_with_hazards, Hazard, HazardKind, HazardPlan};
use pp_extensions::ordering::{OrderingProtocol, OrderingState, Role};
use pp_extensions::unordered::{UnorderedCircles, UnorderedPhase};
use pp_protocol::{
    Activity, CompactActivity, CountConfig, CountEngine, Population, Protocol, RunReport,
    Simulation, SparseActivity, TransitionTable, UniformCountScheduler, UniformPairScheduler,
};
use proptest::prelude::*;
use rand::rngs::Philox4x32;

/// Runs a hazard-free plan on the given activity index, cold or warm from
/// `table`, and returns the measurement report.
fn hazard_free_report<A: Activity>(
    protocol: &CirclesProtocol,
    inputs: &[Color],
    seed: u64,
    table: Option<&TransitionTable<CirclesProtocol>>,
) -> RunReport<Color> {
    let config: CountConfig<_> = inputs.iter().map(|c| protocol.input(c)).collect();
    let scheduler = UniformCountScheduler::new();
    let rng = Philox4x32::stream(0, seed);
    let mut engine = match table {
        Some(table) => CountEngine::<_, _, A, _>::with_snapshot_rng(
            protocol,
            config,
            scheduler,
            rng,
            table.snapshot(),
        ),
        None => CountEngine::<_, _, A, _>::with_rng(protocol, config, scheduler, rng),
    };
    let mut hazard_rng = Philox4x32::stream(0, seed | 1 << 63);
    let outcome = run_with_hazards(
        &mut engine,
        &HazardPlan::new(),
        &[],
        &mut hazard_rng,
        u64::MAX / 2,
    )
    .unwrap();
    assert!(outcome.stabilized);
    outcome.report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ordering: labels always stay in [0, k); per color, the number of
    /// leaders never increases and never reaches zero.
    #[test]
    fn ordering_leader_counts_monotone(
        raw in proptest::collection::vec(0u16..4, 2..10),
        seed in any::<u64>(),
        steps in 1u64..500,
    ) {
        let k = 4u16;
        let inputs: Vec<Color> = raw.iter().map(|&c| Color(c + 7)).collect();
        let protocol = OrderingProtocol::new(k);
        let population = Population::from_inputs(&protocol, &inputs);
        let leaders_per_color = |p: &Population<OrderingState>| {
            let mut m = std::collections::HashMap::new();
            for s in p.iter() {
                if s.role == Role::Leader {
                    *m.entry(s.color).or_insert(0usize) += 1;
                }
            }
            m
        };
        let mut last = leaders_per_color(&population);
        let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), seed);
        for _ in 0..steps {
            let _ = sim.step().unwrap();
            prop_assert!(sim.population().iter().all(|s| s.label < k));
            let now = leaders_per_color(sim.population());
            for (color, count) in &now {
                prop_assert!(count <= last.get(color).unwrap_or(&0));
                prop_assert!(*count >= 1, "color {color:?} lost all leaders");
            }
            last = now;
        }
    }

    /// Unordered composition: per-label conservation holds at every step of
    /// every run (the key invariant the undo machinery protects), and every
    /// color keeps at least one leader.
    #[test]
    fn unordered_conservation_and_leadership(
        raw in proptest::collection::vec(0u16..3, 2..8),
        seed in any::<u64>(),
        steps in 1u64..600,
    ) {
        let k = 3u16;
        let inputs: Vec<Color> = raw.iter().map(|&c| Color(c * 31 + 5)).collect();
        let protocol = UnorderedCircles::new(k);
        let population = Population::from_inputs(&protocol, &inputs);
        let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), seed);
        for _ in 0..steps {
            let _ = sim.step().unwrap();
            prop_assert!(
                UnorderedCircles::conservation_holds(sim.population(), k),
                "conservation broken at step {}",
                sim.stats().steps
            );
            // Each color retains a leader (Active or Undoing).
            let mut colors: std::collections::HashMap<Color, bool> =
                std::collections::HashMap::new();
            for s in sim.population().iter() {
                let is_leader = matches!(
                    s.phase,
                    UnorderedPhase::Active(Role::Leader) | UnorderedPhase::Undoing(Role::Leader)
                );
                let entry = colors.entry(s.color).or_insert(false);
                *entry |= is_leader;
            }
            for (color, has_leader) in colors {
                prop_assert!(has_leader, "color {color:?} lost its leader");
            }
        }
    }

    /// Unordered composition: outputs are always labels in range, and
    /// Active agents' bras stay in range.
    #[test]
    fn unordered_states_stay_in_label_space(
        raw in proptest::collection::vec(0u16..3, 2..8),
        seed in any::<u64>(),
    ) {
        let k = 3u16;
        let inputs: Vec<Color> = raw.iter().map(|&c| Color(c + 1000)).collect();
        let protocol = UnorderedCircles::new(k);
        let population = Population::from_inputs(&protocol, &inputs);
        let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), seed);
        for _ in 0..400 {
            let _ = sim.step().unwrap();
            for s in sim.population().iter() {
                prop_assert!(s.out < k);
                if s.holds_braket() {
                    prop_assert!(s.braket.bra.0 < k && s.braket.ket.0 < k);
                }
            }
        }
    }

    /// Hazards: every non-churn hazard (crash, corruption, stuck-agent)
    /// conserves total mass — the population observable to grading (active
    /// plus quarantined) never changes size.
    #[test]
    fn non_churn_hazards_conserve_total_mass(
        raw in proptest::collection::vec(0u16..3, 2..40),
        schedule in proptest::collection::vec((0u64..2_000, 0u8..3), 0..8),
        seed in any::<u64>(),
    ) {
        let k = 3u16;
        let protocol = CirclesProtocol::new(k).unwrap();
        let inputs: Vec<Color> = raw.iter().map(|&c| Color(c)).collect();
        let mut pool: std::collections::BTreeMap<Color, u64> = std::collections::BTreeMap::new();
        for &c in &inputs {
            *pool.entry(c).or_insert(0) += 1;
        }
        let pool: Vec<(Color, u64)> = pool.into_iter().collect();
        let mut plan = HazardPlan::new();
        for &(at_step, kind) in &schedule {
            plan.push(Hazard {
                at_step,
                kind: match kind {
                    0 => HazardKind::Crash,
                    1 => HazardKind::Corrupt,
                    _ => HazardKind::Stick,
                },
            });
        }
        let config: CountConfig<_> = inputs.iter().map(|c| protocol.input(c)).collect();
        let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &protocol,
            config,
            UniformCountScheduler::new(),
            Philox4x32::stream(0, seed),
        );
        let mut hazard_rng = Philox4x32::stream(1, seed);
        let outcome =
            run_with_hazards(&mut engine, &plan, &pool, &mut hazard_rng, u64::MAX / 2).unwrap();
        prop_assert_eq!(outcome.final_n, inputs.len() as u64);
        prop_assert_eq!(outcome.observable_config().n(), inputs.len());
    }

    /// Hazards: a hazard-free plan produces `RunReport`s byte-identical to
    /// the plain engine run of the same seed, across
    /// {flat, compact} × {cold, warm}.
    #[test]
    fn hazard_free_plans_are_invisible_across_engines(
        raw in proptest::collection::vec(0u16..3, 2..40),
        seed in any::<u64>(),
    ) {
        let k = 3u16;
        let protocol = CirclesProtocol::new(k).unwrap();
        let inputs: Vec<Color> = raw.iter().map(|&c| Color(c)).collect();
        // The reference: a plain flat-index run, no hazard layer at all.
        let config: CountConfig<_> = inputs.iter().map(|c| protocol.input(c)).collect();
        let mut plain = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &protocol,
            config,
            UniformCountScheduler::new(),
            Philox4x32::stream(0, seed),
        );
        let reference = plain.run_until_silent(u64::MAX / 2).unwrap();
        // Warm runs read the table this cold run discovered.
        let table = TransitionTable::new();
        plain.export_to(&table);
        let flat_cold = hazard_free_report::<SparseActivity>(&protocol, &inputs, seed, None);
        let compact_cold = hazard_free_report::<CompactActivity>(&protocol, &inputs, seed, None);
        let flat_warm =
            hazard_free_report::<SparseActivity>(&protocol, &inputs, seed, Some(&table));
        let compact_warm =
            hazard_free_report::<CompactActivity>(&protocol, &inputs, seed, Some(&table));
        prop_assert_eq!(&flat_cold, &reference);
        prop_assert_eq!(&compact_cold, &reference);
        prop_assert_eq!(&flat_warm, &reference);
        prop_assert_eq!(&compact_warm, &reference);
    }
}

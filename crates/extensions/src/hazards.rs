//! Count-level hazard injection: anonymous faults, churn and adversarial
//! starts for the batched [`CountEngine`].
//!
//! The indexed fault layer ([`faults`](crate::faults)) addresses individual
//! agents, which caps robustness experiments at populations small enough to
//! index. Agents are anonymous, though: "crash a uniformly random agent" is
//! exactly "move one unit of count mass from a count-weighted random slot",
//! so every fault the indexed layer can express has a count-level analogue
//! that scales to `n = 10^9`. This module provides that analogue:
//!
//! - **Crash-and-restart** ([`HazardKind::Crash`]): one unit of mass moves
//!   from a sampled occupied slot back to an input state drawn from the
//!   restart pool — the agent forgets everything, violating bra-ket
//!   conservation (Lemma 3.3) exactly like the indexed restart.
//! - **Transient corruption** ([`HazardKind::Corrupt`]): one unit of mass
//!   moves to a uniformly random *known* slot — a bit-flip into an arbitrary
//!   reachable memory.
//! - **Stuck agents** ([`HazardKind::Stick`]): one unit of mass leaves the
//!   engine for a quarantine ledger, removing it from the pair sampler
//!   forever while still counting toward the final output tally — a
//!   fail-stop agent that keeps its last memory.
//! - **Churn** ([`HazardKind::Depart`] / [`HazardKind::Arrive`]): agents
//!   leave outright or join as fresh inputs, changing `n` mid-run.
//!
//! Victim sampling is count-weighted (a uniformly random agent, by
//! anonymity) and every random choice comes from the caller-supplied hazard
//! RNG — under the Philox `(sweep_seed, trial_seed, hazard stream)`
//! discipline of `pp_analysis::runner::hazard_rng`, hazard schedules are as
//! thread-count- and sweep-order-insensitive as the trials they perturb.
//!
//! Adversarial *initial* configurations (worst-case output floods, near-tie
//! margins seeded with broken conservation, self-loop-free ket scrambles)
//! are generated by [`self_loop_flood`], [`near_tie_broken_conservation`]
//! and [`scrambled_kets`]; they build `CountConfig`s directly from counts,
//! so `n = 10^9` starts cost `O(k)` memory.

use circles_core::invariants::BraKetTally;
use circles_core::{BraKet, CirclesProtocol, CirclesState, Color};
use pp_protocol::{
    Activity, CountConfig, CountEngine, CountScheduler, FrameworkError, Protocol, RunReport,
};
use rand::{RngCore, RngExt};

/// What a scheduled hazard does to the population when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HazardKind {
    /// One count-weighted random unit of mass forgets everything and
    /// restarts as a fresh input drawn from the restart pool.
    Crash,
    /// One count-weighted random unit of mass is overwritten with a
    /// uniformly random *known* state (a slot the engine has observed).
    Corrupt,
    /// One count-weighted random unit of mass is quarantined: it leaves the
    /// pair sampler permanently but keeps its state and still counts toward
    /// the final output tally.
    Stick,
    /// One count-weighted random unit of mass leaves the population; `n`
    /// shrinks.
    Depart,
    /// One fresh agent joins as an input drawn from the restart pool; `n`
    /// grows.
    Arrive,
}

impl HazardKind {
    /// Whether firing this hazard draws a fresh state from the restart pool.
    pub fn needs_pool(self) -> bool {
        matches!(self, HazardKind::Crash | HazardKind::Arrive)
    }
}

/// One scheduled hazard: after `at_step` interactions, `kind` fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hazard {
    /// Interaction count at which the hazard fires (the run is advanced to
    /// exactly this step before the perturbation is applied).
    pub at_step: u64,
    /// The perturbation to apply.
    pub kind: HazardKind,
}

/// A batch of hazards to inject into one count-engine run, kept sorted by
/// step (stable: hazards at equal steps fire in insertion order).
///
/// Unlike the indexed [`FaultPlan`](crate::faults::FaultPlan), duplicates
/// are meaningful and kept: hazards are anonymous, so two crashes at the
/// same step are two distinct units of crashing mass, not a repeated reset
/// of one agent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HazardPlan {
    events: Vec<Hazard>,
}

impl HazardPlan {
    /// Creates an empty plan. Running with an empty plan is byte-identical
    /// to running the engine directly (the hazard RNG is never drawn from).
    pub fn new() -> Self {
        HazardPlan { events: Vec::new() }
    }

    /// A plan of crash-and-restart hazards at the given steps.
    pub fn crashes(at_steps: impl IntoIterator<Item = u64>) -> Self {
        let mut plan = HazardPlan::new();
        for at_step in at_steps {
            plan.push(Hazard {
                at_step,
                kind: HazardKind::Crash,
            });
        }
        plan
    }

    /// Adds a hazard, inserting in position (`O(log len)` search plus the
    /// tail shift) so the plan stays sorted by step without re-sorting.
    pub fn push(&mut self, hazard: Hazard) {
        let at = self.events.partition_point(|e| e.at_step <= hazard.at_step);
        self.events.insert(at, hazard);
    }

    /// The scheduled hazards in firing order.
    pub fn events(&self) -> &[Hazard] {
        &self.events
    }

    /// Number of scheduled hazards.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The protocol-agnostic outcome of a hazardous count-engine run.
#[derive(Debug, Clone)]
pub struct HazardOutcome<P: Protocol> {
    /// The engine's report at the end of the run. `consensus` covers only
    /// the *active* population; use [`final_config`](Self::final_config) +
    /// [`quarantined`](Self::quarantined) for tallies that include stuck
    /// agents.
    pub report: RunReport<P::Output>,
    /// Whether the run reached silence within budget **with every scheduled
    /// hazard fired**. Hazards scheduled past `max_steps` never fire, and a
    /// run with unfired hazards is not stabilized — its terminal
    /// configuration was never exposed to the full schedule.
    pub stabilized: bool,
    /// How many hazards actually fired.
    pub applied: usize,
    /// Interaction count when the last hazard fired (0 when none did).
    pub last_hazard_step: u64,
    /// Interactions from the last fired hazard to the final state change —
    /// the recovery time in change-point terms. Equals the whole run's
    /// `steps_to_silence` when no hazard fired.
    pub recovery_steps: u64,
    /// State-changing interactions after the last fired hazard.
    pub recovery_changes: u64,
    /// The final *active* configuration (quarantined mass excluded).
    pub final_config: CountConfig<P::State>,
    /// Mass removed from the sampler by [`HazardKind::Stick`], in the state
    /// each unit was stuck in.
    pub quarantined: CountConfig<P::State>,
    /// Active plus quarantined agents — the population an external observer
    /// would query (departed agents excluded).
    pub final_n: u64,
}

impl<P: Protocol> HazardOutcome<P> {
    /// The final configuration including quarantined (stuck) mass — what an
    /// external observer querying every non-departed agent would see.
    pub fn observable_config(&self) -> CountConfig<P::State> {
        let mut config = self.final_config.clone();
        for (s, c) in self.quarantined.iter() {
            config.insert(s.clone(), c);
        }
        config
    }
}

/// Runs `engine` to silence under `plan`, perturbing it at the scheduled
/// steps. `pool` is the restart/arrival input distribution (weights need not
/// be normalized) that [`HazardKind::Crash`] and [`HazardKind::Arrive`] draw
/// from; `hazard_rng` drives every random hazard choice and is consumed in
/// schedule order, so the run is a pure function of `(engine construction,
/// plan, pool, hazard_rng)`.
///
/// Hazards at steps past `max_steps` do not fire and force
/// `stabilized == false` (mirroring the indexed layer's pending-fault rule).
/// A hazard on an empty or single-agent population still fires where
/// meaningful (arrivals can repopulate a drained engine); victim-sampling
/// hazards on an empty engine are no-ops.
///
/// # Errors
///
/// Propagates non-budget framework errors, including a perturbation the
/// engine rejects (an arrival past the `2^63 − 1` agent cap); budget
/// exhaustion is recorded as `stabilized == false`.
///
/// # Panics
///
/// Panics when the plan contains pool-drawing hazards and `pool` is empty or
/// zero-weight.
pub fn run_with_hazards<P, CS, A, R, H>(
    engine: &mut CountEngine<'_, P, CS, A, R>,
    plan: &HazardPlan,
    pool: &[(P::Input, u64)],
    hazard_rng: &mut H,
    max_steps: u64,
) -> Result<HazardOutcome<P>, FrameworkError>
where
    P: Protocol,
    CS: CountScheduler<P::State>,
    A: Activity,
    R: RngCore,
    H: RngCore,
{
    let pool_total: u64 = pool.iter().map(|(_, w)| w).sum();
    assert!(
        pool_total > 0 || plan.events().iter().all(|h| !h.kind.needs_pool()),
        "hazard plan draws restart states but the pool is empty"
    );
    let mut quarantined: CountConfig<P::State> = CountConfig::new();
    let mut applied = 0usize;
    let mut last_hazard_step = 0u64;
    let mut changes_at_last_hazard = 0u64;
    for hazard in plan.events() {
        if hazard.at_step > max_steps {
            break;
        }
        if engine.n() >= 2 {
            engine.advance_to(hazard.at_step)?;
        }
        apply_hazard(
            engine,
            hazard.kind,
            pool,
            pool_total,
            hazard_rng,
            &mut quarantined,
        )?;
        debug_assert_eq!(engine.audit(), Ok(()));
        applied += 1;
        last_hazard_step = engine.steps().max(hazard.at_step);
        changes_at_last_hazard = engine.stats().state_changes;
    }
    let (report, silent) = match engine.run_until_silent(max_steps) {
        Ok(report) => (report, true),
        Err(FrameworkError::MaxStepsExceeded { .. }) => (engine.report(), false),
        Err(e) => return Err(e),
    };
    let final_config = engine.config();
    let final_n = engine.n() + quarantined.n() as u64;
    Ok(HazardOutcome {
        recovery_steps: report.steps_to_silence.saturating_sub(last_hazard_step),
        recovery_changes: report.state_changes - changes_at_last_hazard,
        stabilized: silent && applied == plan.len(),
        report,
        applied,
        last_hazard_step,
        final_config,
        quarantined,
        final_n,
    })
}

/// Applies one hazard to the engine. Draw order is fixed (victim first, then
/// pool/target) so schedules are reproducible. Crate-visible so the
/// checkpointed driver ([`crate::hazard_checkpoint`]) fires hazards
/// identically to this module's uninterrupted loop.
pub(crate) fn apply_hazard<P, CS, A, R, H>(
    engine: &mut CountEngine<'_, P, CS, A, R>,
    kind: HazardKind,
    pool: &[(P::Input, u64)],
    pool_total: u64,
    rng: &mut H,
    quarantined: &mut CountConfig<P::State>,
) -> Result<(), FrameworkError>
where
    P: Protocol,
    CS: CountScheduler<P::State>,
    A: Activity,
    R: RngCore,
    H: RngCore,
{
    match kind {
        HazardKind::Crash => {
            let Some(victim) = sample_victim(engine.counts(), engine.n(), rng) else {
                return Ok(());
            };
            let input = sample_pool(pool, pool_total, rng);
            let fresh = engine.protocol().input(&input);
            let victim_state = engine.known_states()[victim].clone();
            engine.perturb_transfer(&victim_state, fresh, 1)
        }
        HazardKind::Corrupt => {
            let Some(victim) = sample_victim(engine.counts(), engine.n(), rng) else {
                return Ok(());
            };
            let target = rng.random_range(0..engine.slots());
            let target_state = engine.known_states()[target].clone();
            let victim_state = engine.known_states()[victim].clone();
            engine.perturb_transfer(&victim_state, target_state, 1)
        }
        HazardKind::Stick => {
            let Some(victim) = sample_victim(engine.counts(), engine.n(), rng) else {
                return Ok(());
            };
            let victim_state = engine.known_states()[victim].clone();
            engine.perturb_remove(&victim_state, 1)?;
            quarantined.insert(victim_state, 1);
            Ok(())
        }
        HazardKind::Depart => {
            let Some(victim) = sample_victim(engine.counts(), engine.n(), rng) else {
                return Ok(());
            };
            let victim_state = engine.known_states()[victim].clone();
            engine.perturb_remove(&victim_state, 1)
        }
        HazardKind::Arrive => {
            let input = sample_pool(pool, pool_total, rng);
            let fresh = engine.protocol().input(&input);
            engine.perturb_add(fresh, 1)
        }
    }
}

/// Samples a slot with probability proportional to its count — a uniformly
/// random agent, by anonymity. `None` on an empty population.
fn sample_victim<H: RngCore>(counts: &[u64], n: u64, rng: &mut H) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let mut r = rng.random_range(0..n);
    for (slot, &c) in counts.iter().enumerate() {
        if r < c {
            return Some(slot);
        }
        r -= c;
    }
    unreachable!("slot counts sum to n")
}

/// Draws an input from the weighted restart pool.
fn sample_pool<I: Clone, H: RngCore>(pool: &[(I, u64)], total: u64, rng: &mut H) -> I {
    debug_assert!(total > 0, "empty restart pool");
    let mut r = rng.random_range(0..total);
    for (input, w) in pool {
        if r < *w {
            return input.clone();
        }
        r -= w;
    }
    unreachable!("pool weights sum to total")
}

/// The Circles-specific verdict of a hazardous run — the count-level
/// counterpart of [`FaultReport`](crate::faults::FaultReport), extended with
/// conservation damage and recovery time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardReport {
    /// Whether the run reached silence within budget with every hazard
    /// fired.
    pub stabilized: bool,
    /// The final unanimous output over active *and* quarantined agents, if
    /// any.
    pub consensus: Option<Color>,
    /// Whether the final consensus equals the expected plurality winner of
    /// the *original* inputs.
    pub correct: bool,
    /// Whether bra-ket conservation (Lemma 3.3) holds over the observable
    /// final configuration — crashes and corruption usually break it
    /// permanently.
    pub conserved_at_end: bool,
    /// Total conservation damage: `Σ_c |#bras(c) − #kets(c)|` over the
    /// observable final configuration (0 iff conserved).
    pub conservation_damage: u64,
    /// Hazards that actually fired.
    pub hazards_applied: usize,
    /// Interactions executed.
    pub steps: u64,
    /// Interactions from the last fired hazard to the final state change.
    pub recovery_steps: u64,
    /// State-changing interactions after the last fired hazard.
    pub recovery_changes: u64,
    /// Final population (active + quarantined; departures excluded).
    pub final_n: u64,
}

/// Runs a Circles count engine under `plan` and grades the outcome against
/// `truth` (the plurality winner of the original inputs, or `None` when the
/// workload has no unique winner). See [`run_with_hazards`] for the
/// execution semantics; consensus, correctness and conservation are judged
/// over the *observable* final configuration (active + quarantined mass).
///
/// # Errors
///
/// Propagates non-budget framework errors.
pub fn run_circles_hazards<CS, A, R, H>(
    engine: &mut CountEngine<'_, CirclesProtocol, CS, A, R>,
    truth: Option<Color>,
    plan: &HazardPlan,
    pool: &[(Color, u64)],
    hazard_rng: &mut H,
    max_steps: u64,
) -> Result<HazardReport, FrameworkError>
where
    CS: CountScheduler<CirclesState>,
    A: Activity,
    R: RngCore,
    H: RngCore,
{
    let k = engine.protocol().k();
    let protocol = CirclesProtocol::new(k).expect("engine holds a valid k");
    let outcome = run_with_hazards(engine, plan, pool, hazard_rng, max_steps)?;
    let observable = outcome.observable_config();
    let consensus = observable.output_consensus(&protocol);
    let damage = conservation_damage(&observable, k);
    Ok(HazardReport {
        stabilized: outcome.stabilized,
        correct: truth.is_some() && consensus == truth,
        consensus,
        conserved_at_end: damage == 0,
        conservation_damage: damage,
        hazards_applied: outcome.applied,
        steps: outcome.report.steps,
        recovery_steps: outcome.recovery_steps,
        recovery_changes: outcome.recovery_changes,
        final_n: outcome.final_n,
    })
}

/// Projects a Circles configuration onto its bra-kets.
pub fn braket_config(config: &CountConfig<CirclesState>) -> CountConfig<BraKet> {
    let mut out = CountConfig::new();
    for (s, c) in config.iter() {
        out.insert(s.braket, c);
    }
    out
}

/// Total bra-ket conservation damage of a Circles configuration:
/// `Σ_c |#bras(c) − #kets(c)|`. Zero exactly when Lemma 3.3 holds.
pub fn conservation_damage(config: &CountConfig<CirclesState>, k: u16) -> u64 {
    let tally = BraKetTally::of(&braket_config(config), k);
    tally
        .bras
        .iter()
        .zip(&tally.kets)
        .map(|(&b, &kt)| b.abs_diff(kt) as u64)
        .sum()
}

/// Splits `n` agents over `k` colors so that color 0 leads color 1 by at
/// least `margin` agents and colors `1..k` share the rest as evenly as
/// possible (earlier colors take the remainder). The common count-level
/// margin race used by the adversarial generators.
///
/// # Panics
///
/// Panics when `k == 0` or `margin >= n`.
fn margin_split(n: u64, k: u16, margin: u64) -> Vec<u64> {
    assert!(k > 0, "k must be positive");
    assert!(margin < n, "margin must leave agents to race");
    let rest = n - margin;
    let k64 = u64::from(k);
    let base = rest / k64;
    let rem = rest % k64;
    let mut counts: Vec<u64> = (0..k64).map(|c| base + u64::from(c < rem)).collect();
    counts[0] += margin;
    counts
}

/// Worst-case *output flood*: every agent starts as the legal self-loop of
/// its color (bra-ket conservation holds), but **every** out register —
/// including the winning color's — points at the runner-up color 1. Color 0
/// wins the underlying race by `margin`, yet the entire output layer starts
/// unanimously wrong, so the protocol must repair ~`n` out registers before
/// the true consensus can emerge. A self-stabilizing start for the output
/// layer only.
///
/// # Panics
///
/// Panics when `k < 2` or `margin >= n`.
pub fn self_loop_flood(n: u64, k: u16, margin: u64) -> CountConfig<CirclesState> {
    assert!(k >= 2, "an output flood needs a runner-up color");
    let mut config = CountConfig::new();
    for (c, &count) in margin_split(n, k, margin).iter().enumerate() {
        let color = Color(c as u16);
        let mut state = CirclesState::initial(color);
        state.out = Color(1);
        config.insert(state, count as usize);
    }
    config
}

/// Near-tie margin race seeded with broken conservation: color 0 leads color
/// 1 by exactly one agent, and `corrupted` of the runner-up's agents have
/// their *ket* overwritten to color 0 (each duplicates a winner ket while
/// its own ket disappears — the damage signature of a crash). Conservation
/// is broken from step 0 by `2 × corrupted`, on the workload where a single
/// misplaced self-loop can flip the winner.
///
/// # Panics
///
/// Panics when `k < 2`, `n < 2`, or `corrupted` exceeds the runner-up's
/// agent count.
pub fn near_tie_broken_conservation(n: u64, k: u16, corrupted: u64) -> CountConfig<CirclesState> {
    assert!(k >= 2, "a near tie needs two colors");
    assert!(n >= 2, "a race needs agents");
    let counts = margin_split(n, k, 1);
    assert!(
        corrupted <= counts[1],
        "cannot corrupt {corrupted} of {} runner-up agents",
        counts[1]
    );
    let mut config = CountConfig::new();
    for (c, &count) in counts.iter().enumerate() {
        let color = Color(c as u16);
        let intact = if c == 1 { count - corrupted } else { count };
        config.insert(CirclesState::initial(color), intact as usize);
    }
    if corrupted > 0 {
        let corrupt = CirclesState {
            braket: BraKet {
                bra: Color(1),
                ket: Color(0),
            },
            out: Color(1),
        };
        config.insert(corrupt, corrupted as usize);
    }
    config
}

/// Self-loop-free adversarial start: agent bras follow the margin race, but
/// every ket is rotated one color forward (`⟨c|c+1 mod k⟩`), so the initial
/// configuration contains **zero** self-loops and — whenever the color
/// counts are unequal — globally broken conservation.
///
/// This is the worst case outright: every bra-ket has weight 1, the minimum
/// a non-self-loop can have, so no ket exchange can ever fire (exchanges
/// must *strictly decrease* the minimum weight) and the configuration is
/// **silent from step 0 with split outputs** — the executable form of the
/// paper's Lemma 3.2/3.6 observation that weight-1 cycles are terminal.
/// Circles is not self-stabilizing, and this start proves it: experiments
/// use it to check that harnesses *detect* a stalled no-consensus terminal
/// configuration (`stabilized == true`, `consensus == None`) rather than to
/// watch a recovery. Hazards (a single crash injecting a fresh self-loop)
/// are what un-stick it.
///
/// # Panics
///
/// Panics when `k < 2` or `margin >= n`.
pub fn scrambled_kets(n: u64, k: u16, margin: u64) -> CountConfig<CirclesState> {
    assert!(k >= 2, "ket rotation needs at least two colors");
    let mut config = CountConfig::new();
    for (c, &count) in margin_split(n, k, margin).iter().enumerate() {
        let state = CirclesState {
            braket: BraKet {
                bra: Color(c as u16),
                ket: Color(((c as u16) + 1) % k),
            },
            out: Color(c as u16),
        };
        config.insert(state, count as usize);
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_protocol::{SparseActivity, UniformCountScheduler};
    use rand::rngs::Philox4x32;

    fn engine_from(
        protocol: &CirclesProtocol,
        config: CountConfig<CirclesState>,
        seed: u64,
    ) -> CountEngine<'_, CirclesProtocol, UniformCountScheduler, SparseActivity, Philox4x32> {
        CountEngine::<_, _, SparseActivity, _>::with_rng(
            protocol,
            config,
            UniformCountScheduler::new(),
            Philox4x32::stream(0, seed),
        )
    }

    fn margin_pool(n: u64, k: u16, margin: u64) -> Vec<(Color, u64)> {
        margin_split(n, k, margin)
            .into_iter()
            .enumerate()
            .map(|(c, count)| (Color(c as u16), count))
            .collect()
    }

    fn margin_config(n: u64, k: u16, margin: u64) -> CountConfig<CirclesState> {
        let mut config = CountConfig::new();
        for (color, count) in margin_pool(n, k, margin) {
            config.insert(CirclesState::initial(color), count as usize);
        }
        config
    }

    #[test]
    fn plan_push_keeps_step_order_and_duplicates() {
        let mut plan = HazardPlan::new();
        for (step, kind) in [
            (50, HazardKind::Crash),
            (10, HazardKind::Depart),
            (50, HazardKind::Arrive),
            (10, HazardKind::Crash),
        ] {
            plan.push(Hazard {
                at_step: step,
                kind,
            });
        }
        let steps: Vec<u64> = plan.events().iter().map(|h| h.at_step).collect();
        assert_eq!(steps, vec![10, 10, 50, 50]);
        // Stable among equals: insertion order is preserved.
        assert_eq!(plan.events()[0].kind, HazardKind::Depart);
        assert_eq!(plan.events()[1].kind, HazardKind::Crash);
        assert_eq!(plan.events()[2].kind, HazardKind::Crash);
        assert_eq!(plan.events()[3].kind, HazardKind::Arrive);
        assert_eq!(plan.len(), 4);
    }

    #[test]
    fn hazard_free_run_matches_plain_engine_exactly() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let mut plain = engine_from(&protocol, margin_config(90, 3, 12), 7);
        let expected = plain.run_until_silent(u64::MAX).unwrap();

        let mut hazarded = engine_from(&protocol, margin_config(90, 3, 12), 7);
        let mut rng = Philox4x32::stream(99, 1);
        let outcome =
            run_with_hazards(&mut hazarded, &HazardPlan::new(), &[], &mut rng, u64::MAX).unwrap();
        assert_eq!(outcome.report, expected);
        assert!(outcome.stabilized);
        assert_eq!(outcome.applied, 0);
        assert_eq!(outcome.final_n, 90);
        assert!(outcome.quarantined.is_empty());
    }

    #[test]
    fn crashes_conserve_population_and_usually_break_conservation() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let mut engine = engine_from(&protocol, margin_config(120, 3, 20), 3);
        let pool = margin_pool(120, 3, 20);
        let plan = HazardPlan::crashes([40, 90, 150, 260]);
        let mut rng = Philox4x32::stream(5, 11);
        let report = run_circles_hazards(
            &mut engine,
            Some(Color(0)),
            &plan,
            &pool,
            &mut rng,
            u64::MAX,
        )
        .unwrap();
        assert!(report.stabilized);
        assert_eq!(report.hazards_applied, 4);
        assert_eq!(report.final_n, 120, "crashes do not change n");
        assert!(report.consensus.is_some(), "stabilized runs are unanimous");
        assert!(report.recovery_steps <= report.steps);
    }

    #[test]
    fn churn_changes_n_and_still_stabilizes() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let mut engine = engine_from(&protocol, margin_config(100, 3, 30), 9);
        let pool = vec![(Color(0), 1)];
        let mut plan = HazardPlan::new();
        for step in [10, 20, 30] {
            plan.push(Hazard {
                at_step: step,
                kind: HazardKind::Arrive,
            });
        }
        for step in [40, 50] {
            plan.push(Hazard {
                at_step: step,
                kind: HazardKind::Depart,
            });
        }
        let mut rng = Philox4x32::stream(5, 12);
        let report = run_circles_hazards(
            &mut engine,
            Some(Color(0)),
            &plan,
            &pool,
            &mut rng,
            u64::MAX,
        )
        .unwrap();
        assert!(report.stabilized);
        assert_eq!(report.final_n, 101, "+3 arrivals, -2 departures");
        assert!(report.correct, "color-0 arrivals only help the leader");
    }

    #[test]
    fn stuck_mass_is_quarantined_but_observable() {
        let protocol = CirclesProtocol::new(2).unwrap();
        let mut engine = engine_from(&protocol, margin_config(60, 2, 20), 4);
        let mut plan = HazardPlan::new();
        plan.push(Hazard {
            at_step: 5,
            kind: HazardKind::Stick,
        });
        let mut rng = Philox4x32::stream(5, 13);
        let outcome = run_with_hazards(&mut engine, &plan, &[], &mut rng, u64::MAX).unwrap();
        assert_eq!(outcome.quarantined.n(), 1);
        assert_eq!(outcome.final_config.n(), 59, "engine runs without it");
        assert_eq!(outcome.final_n, 60);
        assert_eq!(outcome.observable_config().n(), 60);
        assert_eq!(engine.n(), 59);
    }

    #[test]
    fn rejected_arrival_propagates_as_a_typed_error() {
        let protocol = CirclesProtocol::new(2).unwrap();
        let cap = (1u64 << 63) - 1;
        let mut config = CountConfig::new();
        config.insert(CirclesState::initial(Color(0)), cap as usize);
        let mut engine = engine_from(&protocol, config, 1);
        let mut plan = HazardPlan::new();
        plan.push(Hazard {
            at_step: 0,
            kind: HazardKind::Arrive,
        });
        let mut rng = Philox4x32::stream(5, 15);
        let pool = [(Color(0), 1)];
        let err = run_with_hazards(&mut engine, &plan, &pool, &mut rng, u64::MAX).unwrap_err();
        assert_eq!(err, FrameworkError::PopulationOverflow { n: cap, added: 1 });
        assert_eq!(engine.audit(), Ok(()));
        assert_eq!(engine.n(), cap);
    }

    #[test]
    fn hazards_past_budget_forbid_stabilized() {
        let protocol = CirclesProtocol::new(2).unwrap();
        let mut engine = engine_from(&protocol, margin_config(40, 2, 10), 2);
        let pool = margin_pool(40, 2, 10);
        // The run silences far before step 10^6; the pending crash at 10^9
        // never fires, so the run must not be reported stabilized.
        let plan = HazardPlan::crashes([1_000_000_000]);
        let mut rng = Philox4x32::stream(5, 14);
        let outcome = run_with_hazards(&mut engine, &plan, &pool, &mut rng, 1_000_000).unwrap();
        assert!(!outcome.stabilized, "a pending hazard is not a stable run");
        assert_eq!(outcome.applied, 0);
    }

    #[test]
    fn corruption_targets_known_slots_only() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let mut engine = engine_from(&protocol, margin_config(80, 3, 10), 6);
        let mut plan = HazardPlan::new();
        for step in [15, 35, 75] {
            plan.push(Hazard {
                at_step: step,
                kind: HazardKind::Corrupt,
            });
        }
        let mut rng = Philox4x32::stream(5, 15);
        let outcome = run_with_hazards(&mut engine, &plan, &[], &mut rng, u64::MAX).unwrap();
        assert!(outcome.stabilized);
        assert_eq!(outcome.final_n, 80, "corruption moves mass, never n");
    }

    #[test]
    fn adversarial_generators_have_documented_shape() {
        let flood = self_loop_flood(1_000, 4, 100);
        assert_eq!(flood.n(), 1_000);
        assert_eq!(conservation_damage(&flood, 4), 0, "flood is legal");
        let protocol = CirclesProtocol::new(4).unwrap();
        let outs = flood.output_counts(&protocol);
        assert_eq!(outs.get(&Color(1)), Some(&1_000), "all outputs flooded");

        let tie = near_tie_broken_conservation(1_001, 4, 30);
        assert_eq!(tie.n(), 1_001);
        assert_eq!(conservation_damage(&tie, 4), 60, "2 per corrupted ket");

        let scrambled = scrambled_kets(1_000, 4, 100);
        assert_eq!(scrambled.n(), 1_000);
        assert!(conservation_damage(&scrambled, 4) > 0);
        assert!(
            scrambled.states().all(|s| !s.braket.is_self_loop()),
            "no self-loops anywhere"
        );
    }

    #[test]
    fn circles_recovers_the_winner_from_an_output_flood() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let mut engine = engine_from(&protocol, self_loop_flood(300, 3, 60), 21);
        let report = engine.run_until_silent(u64::MAX).unwrap();
        assert_eq!(
            report.consensus,
            Some(Color(0)),
            "margin-60 leader must win despite the flooded output layer"
        );
        assert!(report.state_changes > 0, "the flood is not terminal");
    }

    #[test]
    fn scrambled_kets_stall_silent_without_consensus_until_a_crash() {
        // The rotated start is terminal: weight-1 bra-kets everywhere, so no
        // exchange can fire — silent at step 0 with split outputs. One crash
        // injects a fresh self-loop and un-sticks the whole population.
        let protocol = CirclesProtocol::new(3).unwrap();
        let mut engine = engine_from(&protocol, scrambled_kets(300, 3, 60), 21);
        assert!(engine.is_silent(), "the rotation is a fixed point");
        let report = engine.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, None, "stalled with split outputs");
        assert_eq!(report.state_changes, 0);

        let mut stuck = engine_from(&protocol, scrambled_kets(300, 3, 60), 22);
        let pool = margin_pool(300, 3, 60);
        let plan = HazardPlan::crashes([0]);
        let mut rng = Philox4x32::stream(5, 16);
        let outcome = run_with_hazards(&mut stuck, &plan, &pool, &mut rng, u64::MAX).unwrap();
        assert!(outcome.stabilized);
        assert!(
            outcome.report.state_changes > 0,
            "one crash re-arms the stalled population"
        );
    }

    #[test]
    fn hazard_runs_are_reproducible() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let pool = margin_pool(100, 3, 15);
        let plan = HazardPlan::crashes([25, 60, 125]);
        let run = || {
            let mut engine = engine_from(&protocol, margin_config(100, 3, 15), 8);
            let mut rng = Philox4x32::stream(77, 8);
            run_circles_hazards(
                &mut engine,
                Some(Color(0)),
                &plan,
                &pool,
                &mut rng,
                u64::MAX,
            )
            .unwrap()
        };
        assert_eq!(run(), run(), "same streams, same verdict");
    }
}

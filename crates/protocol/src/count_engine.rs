//! The batched count-based simulation engine.
//!
//! Agents with equal states are interchangeable, so under count-level
//! scheduling an execution is a Markov chain over anonymous configurations
//! (the [`CountConfig`] multisets of Definition 1.1). [`CountEngine`]
//! maintains per-state counts instead of an indexed agent vector and asks a
//! [`CountScheduler`] for interactions as *state pairs*; with the default
//! [`UniformCountScheduler`] it advances between change-points in a single
//! geometric draw, so a silent-heavy run costs one cheap update per
//! state-*changing* interaction instead of one per interaction. Empirically
//! the Circles protocol performs `Θ(n)` state changes but super-linearly many
//! interactions, which is what makes populations of `10^6`–`10^9`+ agents
//! tractable here and hopeless for the indexed engine.
//!
//! # Activity bookkeeping
//!
//! Which slot pairs are *active* (state-changing), how much sampling weight
//! they carry and how a conditional change-pair is drawn is delegated to an
//! [`Activity`] index — [`SparseActivity`] by default (per-slot adjacency
//! lists; each count delta walks one in-row and moves the 64-row block sums
//! directly, with no settlement pass; draws compute one block's row masses
//! in `O(slots/64 + 64 + deg)` per change-point), or [`CompactActivity`] for
//! large slot tables; see [`activity`](crate::activity) for the cost model.
//! All pair-weight arithmetic is `u128`, so populations up to `2^63 − 1`
//! agents are supported — far past the former `u32::MAX` cap.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::hashing::FxBuildHasher;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::activity::{Activity, AdjRows, CompactActivity, SparseActivity};
use crate::config::CountConfig;
use crate::count_trace::CountTrace;
use crate::error::FrameworkError;
use crate::protocol::Protocol;
use crate::run_checkpoint::{CheckpointError, ResumableRng, RunCheckpoint};
use crate::scheduler::{CountScheduler, CountView, UniformCountScheduler};
use crate::simulation::{RunReport, SimStats};
use crate::transition_table::{Rows, Segment, TableSnapshot, TransitionTable};

/// Count-based, change-point-batched simulation engine.
///
/// Exposes the same [`RunReport`]/[`SimStats`] measurement surface as the
/// indexed [`Simulation`](crate::Simulation); driven by any
/// [`CountScheduler`] (the uniform-random one by default) over any
/// [`Activity`] index (the sparse one by default). Equivalence with the
/// indexed engine is covered by replay proptests and distributional tests in
/// `tests/engine_equivalence.rs`.
///
/// The engine discovers one slot per *distinct state ever observed* and
/// queries the protocol's transition once per ordered slot pair, so it suits
/// protocols with a bounded state space (for Circles, at most `k³` states
/// regardless of `n`). Populations are limited to `2^63 − 1` agents so that
/// pair-weight arithmetic (`≤ n(n−1)`) fits `u128` with signed deltas.
///
/// # Example
///
/// ```
/// # use pp_protocol::{CountEngine, Protocol};
/// # struct Max;
/// # impl Protocol for Max {
/// #     type State = u8; type Input = u8; type Output = u8;
/// #     fn name(&self) -> &str { "max" }
/// #     fn input(&self, i: &u8) -> u8 { *i }
/// #     fn output(&self, s: &u8) -> u8 { *s }
/// #     fn transition(&self, a: &u8, b: &u8) -> (u8, u8) { let m = *a.max(b); (m, m) }
/// # }
/// let inputs: Vec<u8> = (0..1_000_000).map(|i| (i % 7) as u8).collect();
/// let mut engine = CountEngine::from_inputs(&Max, &inputs, 42);
/// let report = engine.run_until_silent(u64::MAX)?;
/// assert_eq!(report.consensus, Some(6));
/// # Ok::<(), pp_protocol::FrameworkError>(())
/// ```
pub struct CountEngine<'p, P: Protocol, CS = UniformCountScheduler, A = SparseActivity, R = StdRng>
{
    protocol: &'p P,
    scheduler: CS,
    rng: R,
    /// Dense slot arrays; slots are append-only so ids stay stable.
    states: Vec<P::State>,
    counts: Vec<u64>,
    index: HashMap<P::State, usize, FxBuildHasher>,
    n: u64,
    activity: A,
    stats: SimStats,
    /// Output class id of each slot; slots with equal outputs share one.
    out_class: Vec<u32>,
    /// Output → class id, for every output some slot has carried.
    classes: BTreeMap<P::Output, u32>,
    /// Agents per output class, by class id.
    class_counts: Vec<u64>,
    /// Number of output classes holding agents.
    live_classes: usize,
    last_disagreement: Option<u64>,
    /// When recording, the state pairs of every applied change-point.
    trace: Option<Vec<(P::State, P::State)>>,
    /// Whether the protocol declared itself symmetric — halves discovery
    /// (one transition call per unordered pair) and lets symmetric-aware
    /// activity indexes share row storage.
    symmetric: bool,
    /// Memoized transition outcomes of applied active pairs,
    /// `(i, j) → (target_i, target_j)` by slot id. Populated lazily; seeded
    /// from a [`TransitionTable`] on warm starts.
    outcomes: HashMap<(u32, u32), (u32, u32), FxBuildHasher>,
    /// Outcomes memoized by *this* engine from protocol calls (not from a
    /// warm snapshot), so exports back to the source table merge `O(new)`
    /// entries instead of re-proposing the whole memo.
    new_outcomes: Vec<((u32, u32), (u32, u32))>,
    /// The warm-start oracle: a snapshot of a [`TransitionTable`] plus the
    /// engine↔table id maps, present only on warm engines. Slot numbering
    /// never depends on it — it only replaces protocol calls with lookups,
    /// which is what keeps warm trajectories bit-identical to cold ones.
    warm: Option<WarmState<P::State>>,
}

/// The warm-start lookup state of a [`CountEngine`]: the shared epoch
/// snapshot handle and the lazily grown engine-slot ↔ table-id
/// correspondence.
struct WarmState<S> {
    snap: Arc<TableSnapshot<S>>,
    /// Engine slot → table id; [`NO_ID`] for states the table never saw.
    tids: Vec<u32>,
    /// Table id → engine slot; [`NO_ID`] while unmaterialized.
    slot_of_tid: Vec<u32>,
    /// Engine slots whose state the snapshot does not know — the (rare)
    /// cross-classification partners that still need protocol calls.
    novel: Vec<u32>,
    /// Scratch: candidate responder/initiator slots of the slot being
    /// materialized, sorted ascending before ingestion.
    out_buf: Vec<u32>,
    in_buf: Vec<u32>,
}

/// Sentinel for "no corresponding id" in [`WarmState`] maps.
const NO_ID: u32 = u32::MAX;

impl<S> WarmState<S> {
    fn new(snap: Arc<TableSnapshot<S>>) -> Self {
        let len = snap.len();
        WarmState {
            snap,
            tids: Vec::new(),
            slot_of_tid: vec![NO_ID; len],
            novel: Vec::new(),
            out_buf: Vec::new(),
            in_buf: Vec::new(),
        }
    }
}

/// The count engine over the [`CompactActivity`] index — compressed
/// adjacency rows for slot tables too large for the flat 8-bytes-per-pair
/// layout (full-discovery Circles toward `k = 40`).
pub type CompactCountEngine<'p, P, CS = UniformCountScheduler, R = StdRng> =
    CountEngine<'p, P, CS, CompactActivity, R>;

/// Upper bound on memoized transition outcomes per engine (~4M entries,
/// tens of MB with hash-map overhead). Long runs over very dense activity
/// could otherwise grow the memo toward the full active-pair set; past the
/// cap, applications recompute through the protocol — slower, never wrong.
const OUTCOME_MEMO_CAP: usize = 1 << 22;

/// Builds the scheduler-facing view from engine fields. A macro rather than
/// a method so the scheduler and RNG fields stay independently borrowable.
macro_rules! view {
    ($self:ident) => {
        CountView {
            states: &$self.states,
            counts: &$self.counts,
            n: $self.n,
            mass: $self.activity.mass(),
            sampler: &$self.activity,
        }
    };
}

/// Which quantity [`CountEngine::audit`] found out of sync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditQuantity {
    /// A slot's in-column sum `col_in[i]`, against `Σ_{j ∈ out(i)} c_j`
    /// over the activity index's own adjacency.
    ColIn,
    /// A 64-row block's mass sum, against the recomputed row masses
    /// `c_i · Σ_{j ∈ out(i)} (c_j − [i = j])` of its slots.
    BlockMass,
    /// The total mass, against the sum of the recomputed row masses.
    Mass,
    /// The population size `n`, against the sum of the slot counts.
    Population,
    /// An output class's size, against the summed counts of the slots
    /// carrying that output; or the number of classes holding agents.
    OutputHistogram,
}

/// The first disagreement [`CountEngine::audit`] found between the engine's
/// incremental bookkeeping and a from-scratch recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditError {
    /// The quantity out of sync.
    pub quantity: AuditQuantity,
    /// The slot of a `col_in` entry, the first slot of a block, or the
    /// lowest slot carrying an output class; `None` for totals and for the
    /// number of classes holding agents.
    pub slot: Option<usize>,
    /// The engine's incrementally maintained value.
    pub stored: u128,
    /// The recomputed value.
    pub recomputed: u128,
}

impl AuditError {
    /// `Ok` when the two values agree, else the mismatch.
    pub(crate) fn check(
        quantity: AuditQuantity,
        slot: Option<usize>,
        stored: u128,
        recomputed: u128,
    ) -> Result<(), Self> {
        if stored == recomputed {
            return Ok(());
        }
        Err(AuditError {
            quantity,
            slot,
            stored,
            recomputed,
        })
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.quantity)?;
        if let Some(slot) = self.slot {
            write!(f, " of slot {slot}")?;
        }
        write!(f, " is {}, recomputed {}", self.stored, self.recomputed)
    }
}

impl std::error::Error for AuditError {}

impl<'p, P: Protocol> CountEngine<'p, P, UniformCountScheduler, SparseActivity> {
    /// Creates a uniform-random engine from input symbols.
    ///
    /// # Panics
    ///
    /// Panics when more than `2^63 − 1` agents are supplied (see the
    /// [type-level docs](CountEngine)).
    pub fn from_inputs(protocol: &'p P, inputs: &[P::Input], seed: u64) -> Self {
        let config: CountConfig<P::State> = inputs.iter().map(|i| protocol.input(i)).collect();
        Self::from_config(protocol, config, seed)
    }

    /// Creates a uniform-random engine from an anonymous configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration holds more than `2^63 − 1` agents.
    pub fn from_config(protocol: &'p P, config: CountConfig<P::State>, seed: u64) -> Self {
        Self::with_rng(
            protocol,
            config,
            UniformCountScheduler::new(),
            StdRng::seed_from_u64(seed),
        )
    }
}

impl<'p, P, CS, A, R> CountEngine<'p, P, CS, A, R>
where
    P: Protocol,
    CS: CountScheduler<P::State>,
    A: Activity,
    R: RngCore,
{
    /// Creates a cold engine over `config`, driven by `scheduler` and
    /// `rng` — `StdRng::seed_from_u64(seed)` for a plain seed, or a
    /// counter-based trial stream
    /// ([`Philox4x32::stream`](rand::rngs::Philox4x32::stream)) whose
    /// identity is richer than one `u64`. The activity index is the type
    /// parameter `A`: [`SparseActivity`] by default, [`CompactActivity`]
    /// through [`CompactCountEngine`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration holds more than `2^63 − 1` agents —
    /// pair weights (`≤ n(n−1)`) and their signed deltas must fit `u128`.
    pub fn with_rng(protocol: &'p P, config: CountConfig<P::State>, scheduler: CS, rng: R) -> Self {
        let mut engine = Self::empty(protocol, scheduler, rng, config.distinct());
        engine.seed_config(config);
        engine
    }

    /// Like [`with_rng`](Self::with_rng), but warm-started from `snapshot`
    /// — a [`TransitionTable::snapshot`] handle, used as a *lookup oracle*:
    /// states the snapshot knows materialize their activity rows and
    /// transition outcomes from it with zero protocol calls, while unknown
    /// states pay ordinary per-pair discovery. Construction is an `Arc`
    /// refcount bump, so a sweep captures one snapshot per epoch and shares
    /// it across every trial of the epoch.
    ///
    /// **Canonical slot order.** The snapshot never affects slot
    /// numbering: slots are created exactly when (and in the order that) a
    /// cold run of the same generator would create them, and lookups return
    /// exactly what the protocol would. A warm run is therefore
    /// **bit-identical** to the cold run — same trajectory, same
    /// `RunReport`, same RNG stream — regardless of the table's id order,
    /// how many states it holds, which epoch's snapshot a trial got, or
    /// which other engines are exporting into the table concurrently.
    ///
    /// # Panics
    ///
    /// Panics when the configuration holds more than `2^63 − 1` agents.
    pub fn with_snapshot_rng(
        protocol: &'p P,
        config: CountConfig<P::State>,
        scheduler: CS,
        rng: R,
        snapshot: Arc<TableSnapshot<P::State>>,
    ) -> Self {
        let mut engine = Self::empty(protocol, scheduler, rng, config.distinct());
        if !snapshot.is_empty() {
            debug_assert_eq!(
                snapshot.symmetric(),
                engine.symmetric,
                "snapshot and engine disagree on adjacency symmetry"
            );
            engine.warm = Some(WarmState::new(snapshot));
        }
        engine.seed_config(config);
        engine
    }

    /// An engine with no slots and no agents yet.
    fn empty(protocol: &'p P, scheduler: CS, rng: R, distinct: usize) -> Self {
        let symmetric = protocol.is_symmetric();
        let mut activity = A::default();
        if symmetric {
            activity.declare_symmetric();
        }
        CountEngine {
            protocol,
            scheduler,
            rng,
            states: Vec::with_capacity(distinct),
            counts: Vec::with_capacity(distinct),
            index: HashMap::with_capacity_and_hasher(distinct, FxBuildHasher::default()),
            n: 0,
            activity,
            stats: SimStats::default(),
            out_class: Vec::with_capacity(distinct),
            classes: BTreeMap::new(),
            class_counts: Vec::new(),
            live_classes: 0,
            last_disagreement: None,
            trace: None,
            symmetric,
            outcomes: HashMap::with_hasher(FxBuildHasher::default()),
            new_outcomes: Vec::new(),
            warm: None,
        }
    }

    /// Registers `config`'s states as slots (discovering any the engine does
    /// not already know) and applies its counts.
    fn seed_config(&mut self, config: CountConfig<P::State>) {
        assert!(
            (config.n() as u128) < (1u128 << 63),
            "CountEngine supports at most 2^63 - 1 agents, got {}",
            config.n()
        );
        self.n = config.n() as u64;
        for (s, _) in config.iter() {
            self.ensure_slot(s.clone());
        }
        for (s, c) in config.iter() {
            let slot = self.index[s];
            self.counts[slot] = c as u64;
            self.activity.count_changed(slot, c as i64);
            self.add_output(slot, c as u64);
        }
        if self.live_classes > 1 {
            self.last_disagreement = Some(0);
        }
    }

    /// Number of agents.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of slots: distinct states ever observed, including states
    /// whose count has since returned to zero.
    pub fn slots(&self) -> usize {
        self.states.len()
    }

    /// Every state ever observed, by slot id — useful for
    /// [priming](Self::prime_states) another engine with the same state set.
    pub fn known_states(&self) -> &[P::State] {
        &self.states
    }

    /// Total sampling weight of active (state-changing) ordered agent pairs;
    /// zero exactly when the configuration is silent.
    pub fn mass(&self) -> u128 {
        self.activity.mass()
    }

    /// Interactions executed so far.
    pub fn steps(&self) -> u64 {
        self.stats.steps
    }

    /// Current counters, on the same [`SimStats`] surface as the indexed
    /// engine.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// The protocol driving this engine.
    pub fn protocol(&self) -> &P {
        self.protocol
    }

    /// Histogram of current outputs, built on demand from the per-class
    /// counts; outputs no agent holds are absent.
    pub fn output_counts(&self) -> BTreeMap<P::Output, usize> {
        self.classes
            .iter()
            .filter(|&(_, &class)| self.class_counts[class as usize] > 0)
            .map(|(out, &class)| (out.clone(), self.class_counts[class as usize] as usize))
            .collect()
    }

    /// Pre-registers states as slots (with zero agents), forcing their
    /// pairwise transition discovery now instead of lazily mid-run.
    ///
    /// Slot ids — and therefore the engine's sampling order and exact RNG
    /// stream — depend on registration order, so priming two engines with
    /// the same sequence makes their runs comparable draw-for-draw. The
    /// `backend` bench uses this to measure steady-state per-change-point
    /// cost without the one-time discovery mixed in.
    pub fn prime_states(&mut self, states: impl IntoIterator<Item = P::State>) {
        for s in states {
            self.ensure_slot(s);
        }
    }

    /// Recomputes the engine's incremental bookkeeping from scratch and
    /// compares: the activity index's own sums
    /// ([`Activity::audit_sums`]), the total [`mass`](Self::mass) from
    /// `counts` and the index's adjacency ([`Activity::walk_out`]),
    /// `Σ counts` against [`n`](Self::n), and the output histogram from the
    /// slot counts. `O(slots + active pairs)`.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch as an [`AuditError`] naming the quantity
    /// and the slot: the index's sums in its own order, then the totals,
    /// then the output classes by their lowest slot and the number of
    /// classes holding agents.
    pub fn audit(&self) -> Result<(), AuditError> {
        use AuditQuantity::*;
        self.activity.audit_sums(&self.counts)?;
        let mut mass = 0u128;
        for (i, &ci) in self.counts.iter().enumerate() {
            let mut responders = 0u128;
            self.activity.walk_out(i, &mut |j| {
                responders += u128::from(self.counts[j].saturating_sub(u64::from(i == j)));
            });
            mass += u128::from(ci) * responders;
        }
        AuditError::check(Mass, None, self.activity.mass(), mass)?;
        let counted = self.counts.iter().map(|&c| u128::from(c)).sum();
        AuditError::check(Population, None, u128::from(self.n), counted)?;
        // Class id → (lowest slot carrying it, summed counts). Ids follow
        // slot creation, so they ascend with their lowest slot.
        let mut histogram = vec![(usize::MAX, 0u128); self.class_counts.len()];
        for (slot, (&class, &c)) in self.out_class.iter().zip(&self.counts).enumerate() {
            let entry = &mut histogram[class as usize];
            entry.0 = entry.0.min(slot);
            entry.1 += u128::from(c);
        }
        for (&stored, &(slot, recomputed)) in self.class_counts.iter().zip(&histogram) {
            AuditError::check(OutputHistogram, Some(slot), stored.into(), recomputed)?;
        }
        let live = histogram.iter().filter(|&&(_, c)| c > 0).count() as u128;
        AuditError::check(OutputHistogram, None, self.live_classes as u128, live)
    }

    /// Starts recording the state pairs of applied change-points; see
    /// [`take_trace`](Self::take_trace).
    pub fn record_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// Stops recording and returns the change-point schedule recorded since
    /// [`record_trace`](Self::record_trace), if any — the count-level trace
    /// replayed by a
    /// [`ReplayCountScheduler`](crate::ReplayCountScheduler) (null
    /// interactions are not recorded; see [`CountTrace`]).
    pub fn take_trace(&mut self) -> Option<CountTrace<P::State>> {
        self.trace
            .take()
            .map(|pairs| CountTrace::new(self.n, pairs))
    }

    /// The current anonymous configuration.
    pub fn config(&self) -> CountConfig<P::State> {
        let mut config = CountConfig::new();
        for (s, &c) in self.states.iter().zip(&self.counts) {
            if c > 0 {
                config.insert(s.clone(), c as usize);
            }
        }
        config
    }

    /// Whether the configuration is silent. Exact and `O(1)`: the engine
    /// maintains the total weight of state-changing pairs.
    pub fn is_silent(&self) -> bool {
        self.activity.mass() == 0
    }

    /// A [`RunReport`] snapshot of the execution so far.
    pub fn report(&self) -> RunReport<P::Output> {
        let consensus = if self.live_classes == 1 {
            self.classes
                .iter()
                .find(|&(_, &class)| self.class_counts[class as usize] > 0)
                .map(|(out, _)| out.clone())
        } else {
            None
        };
        RunReport {
            steps: self.stats.steps,
            steps_to_silence: self.stats.last_change_step,
            steps_to_consensus: self.last_disagreement.map_or(0, |t| t + 1),
            state_changes: self.stats.state_changes,
            consensus,
        }
    }

    /// Executes one scheduled interaction. Returns whether any state
    /// changed.
    ///
    /// This is the unbatched path — useful for scripted schedulers and
    /// lock-step comparisons; [`run_until_silent`](Self::run_until_silent)
    /// uses the batched path instead.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::PopulationTooSmall`] for populations with
    /// fewer than two agents.
    pub fn step(&mut self) -> Result<bool, FrameworkError> {
        if self.n < 2 {
            return Err(FrameworkError::PopulationTooSmall { n: self.n as usize });
        }
        let view = view!(self);
        let (i, j) = self.scheduler.next_slot_pair(&view, &mut self.rng);
        debug_assert!(
            self.counts[i] >= 1 && self.counts[j] > u64::from(i == j),
            "scheduler drew an unrealizable slot pair"
        );
        self.stats.steps += 1;
        let changed = self.activity.is_active(i, j);
        if changed {
            self.stats.state_changes += 1;
            self.stats.last_change_step = self.stats.steps;
            self.apply(i, j);
        }
        if self.live_classes > 1 {
            self.last_disagreement = Some(self.stats.steps);
        }
        Ok(changed)
    }

    /// Runs until the configuration is silent, jumping between change-points
    /// in batched draws. Silence detection is exact (no check interval is
    /// needed): the run stops at the precise step after which no pair can
    /// change state.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::MaxStepsExceeded`] when the budget is
    /// exhausted before silence.
    pub fn run_until_silent(
        &mut self,
        max_steps: u64,
    ) -> Result<RunReport<P::Output>, FrameworkError> {
        loop {
            if self.is_silent() {
                return Ok(self.report());
            }
            let remaining = max_steps.saturating_sub(self.stats.steps);
            if remaining == 0 {
                return Err(FrameworkError::MaxStepsExceeded { max_steps });
            }
            self.advance_one_change(remaining);
        }
    }

    /// Runs exactly until `target_steps` total interactions have elapsed (or
    /// silence makes the remainder provably null, in which case the step
    /// counter jumps to `target_steps` directly). Useful for sampling
    /// trajectories on a parallel-time grid.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::PopulationTooSmall`] for populations with
    /// fewer than two agents (which cannot interact at all).
    pub fn advance_to(&mut self, target_steps: u64) -> Result<(), FrameworkError> {
        if self.n < 2 {
            if target_steps > self.stats.steps {
                return Err(FrameworkError::PopulationTooSmall { n: self.n as usize });
            }
            return Ok(());
        }
        while self.stats.steps < target_steps {
            if self.is_silent() {
                // Every remaining interaction is null.
                self.stats.steps = target_steps;
                return Ok(());
            }
            self.advance_one_change(target_steps - self.stats.steps);
        }
        Ok(())
    }

    /// [`run_until_silent`](Self::run_until_silent) with a periodic
    /// checkpoint hook: after every `every_changes` state changes the hook
    /// observes the engine at a change-point boundary — the natural place to
    /// call [`checkpoint`](Self::checkpoint) and persist it. A hook
    /// returning [`ControlFlow::Break`](std::ops::ControlFlow::Break) pauses
    /// the run (supervisors use this for deadlines and graceful shutdown);
    /// `every_changes == 0` disables the hook entirely.
    ///
    /// The hook runs strictly *between* change-points and never touches the
    /// engine's RNG, so a hooked run — paused or not — follows the exact
    /// trajectory of the unhooked run of the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::MaxStepsExceeded`] when the budget is
    /// exhausted before silence, and [`FrameworkError::Interrupted`] when
    /// the hook breaks — the engine then sits at a change-point, resumable
    /// from its latest checkpoint (or in place).
    pub fn run_until_silent_checkpointed<F>(
        &mut self,
        max_steps: u64,
        every_changes: u64,
        mut hook: F,
    ) -> Result<RunReport<P::Output>, FrameworkError>
    where
        F: FnMut(&Self) -> std::ops::ControlFlow<()>,
    {
        let mut last_hook_changes = self.stats.state_changes;
        loop {
            if self.is_silent() {
                return Ok(self.report());
            }
            let remaining = max_steps.saturating_sub(self.stats.steps);
            if remaining == 0 {
                return Err(FrameworkError::MaxStepsExceeded { max_steps });
            }
            self.advance_one_change(remaining);
            if every_changes > 0 && self.stats.state_changes - last_hook_changes >= every_changes {
                last_hook_changes = self.stats.state_changes;
                if hook(self).is_break() {
                    return Err(FrameworkError::Interrupted {
                        steps: self.stats.steps,
                    });
                }
            }
        }
    }

    /// [`advance_to`](Self::advance_to) with the periodic checkpoint hook of
    /// [`run_until_silent_checkpointed`](Self::run_until_silent_checkpointed)
    /// — same cadence, same trajectory-neutrality contract.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::PopulationTooSmall`] for populations with
    /// fewer than two agents, and [`FrameworkError::Interrupted`] when the
    /// hook breaks.
    pub fn advance_to_checkpointed<F>(
        &mut self,
        target_steps: u64,
        every_changes: u64,
        mut hook: F,
    ) -> Result<(), FrameworkError>
    where
        F: FnMut(&Self) -> std::ops::ControlFlow<()>,
    {
        if self.n < 2 {
            if target_steps > self.stats.steps {
                return Err(FrameworkError::PopulationTooSmall { n: self.n as usize });
            }
            return Ok(());
        }
        let mut last_hook_changes = self.stats.state_changes;
        while self.stats.steps < target_steps {
            if self.is_silent() {
                // Every remaining interaction is null.
                self.stats.steps = target_steps;
                return Ok(());
            }
            self.advance_one_change(target_steps - self.stats.steps);
            if every_changes > 0 && self.stats.state_changes - last_hook_changes >= every_changes {
                last_hook_changes = self.stats.state_changes;
                if hook(self).is_break() {
                    return Err(FrameworkError::Interrupted {
                        steps: self.stats.steps,
                    });
                }
            }
        }
        Ok(())
    }

    /// Consumes up to `budget` interactions: the skipped nulls plus (when the
    /// budget allows) the next state-changing one.
    pub(crate) fn advance_one_change(&mut self, budget: u64) {
        let view = view!(self);
        let draw = self.scheduler.next_change(&view, budget, &mut self.rng);
        let disagreeing = self.live_classes > 1;
        self.stats.steps += draw.skipped;
        if disagreeing && draw.skipped > 0 {
            // Outputs cannot change during null interactions, so the
            // disagreement persisted through every skipped step.
            self.last_disagreement = Some(self.stats.steps);
        }
        if let Some((i, j)) = draw.pair {
            self.stats.steps += 1;
            self.stats.state_changes += 1;
            self.stats.last_change_step = self.stats.steps;
            self.apply(i, j);
            if self.live_classes > 1 {
                self.last_disagreement = Some(self.stats.steps);
            }
        }
    }

    /// Applies the transition of active pair `(i, j)` to the counts, output
    /// histogram and activity index. First applications resolve the
    /// transition through the warm snapshot's outcome memo when both states
    /// are table-known, else through the protocol (discovering target slots
    /// as needed), and memoize the slot-level outcome; repeats replay the
    /// memo. All three sources agree state-for-state, so which one answers
    /// never affects the trajectory. The memo is bounded by
    /// [`OUTCOME_MEMO_CAP`]: past that, misses simply recompute
    /// (correctness never depends on a hit).
    fn apply(&mut self, i: usize, j: usize) {
        let key = (i as u32, j as u32);
        let (ai, bi) = if let Some(&(a, b)) = self.outcomes.get(&key) {
            (a as usize, b as usize)
        } else if let Some((a, b)) = self.warm_outcome(i, j) {
            let ai = self.ensure_slot(a);
            let bi = self.ensure_slot(b);
            if self.outcomes.len() < OUTCOME_MEMO_CAP {
                // Not pushed to `new_outcomes`: the snapshot's source
                // segments already publish this entry, so exporting it
                // again would only be deduplicated away.
                self.outcomes.insert(key, (ai as u32, bi as u32));
            }
            (ai, bi)
        } else {
            let (a, b) = self.protocol.transition(&self.states[i], &self.states[j]);
            debug_assert!(
                a != self.states[i] || b != self.states[j],
                "apply called on a null pair"
            );
            let ai = self.ensure_slot(a);
            let bi = self.ensure_slot(b);
            if self.outcomes.len() < OUTCOME_MEMO_CAP {
                self.outcomes.insert(key, (ai as u32, bi as u32));
                self.new_outcomes.push((key, (ai as u32, bi as u32)));
            }
            (ai, bi)
        };
        if let Some(trace) = &mut self.trace {
            trace.push((self.states[i].clone(), self.states[j].clone()));
        }
        // Output histogram: the two participating agents leave their old
        // output classes and join the new ones.
        self.shift_output(i, ai, 1);
        self.shift_output(j, bi, 1);
        // Coalesced count deltas (slots may repeat, e.g. a diagonal pair).
        let mut deltas: [(usize, i64); 4] = [(i, -1), (j, -1), (ai, 1), (bi, 1)];
        for idx in 0..4 {
            for prev in 0..idx {
                if deltas[prev].0 == deltas[idx].0 {
                    deltas[prev].1 += deltas[idx].1;
                    deltas[idx].1 = 0;
                    break;
                }
            }
        }
        for &(t, d) in &deltas {
            if d == 0 {
                continue;
            }
            self.counts[t] = self.counts[t]
                .checked_add_signed(d)
                .expect("state count underflow");
            self.activity.count_changed(t, d);
        }
        // A no-op kept for the benchmark's timing wrapper; see `Activity::settle`.
        self.activity.settle(&self.counts);
    }

    /// Resolves the transition of engine-slot pair `(i, j)` from the warm
    /// snapshot's outcome memo, returning the target *states* (so the caller
    /// materializes their slots in canonical order). `None` when the engine
    /// is cold, either state is not table-known, or the table never applied
    /// this pair.
    fn warm_outcome(&self, i: usize, j: usize) -> Option<(P::State, P::State)> {
        let warm = self.warm.as_ref()?;
        let (ti, tj) = (warm.tids[i], warm.tids[j]);
        if ti == NO_ID || tj == NO_ID {
            return None;
        }
        let (ta, tb) = warm.snap.outcome((ti, tj))?;
        Some((warm.snap.state(ta).clone(), warm.snap.state(tb).clone()))
    }

    /// Returns the slot of `state`, creating it when unseen — in exactly the
    /// order a cold run would, which is what makes slot numbering canonical.
    /// Warm engines ingest the activity of table-known states from the
    /// snapshot in `O(deg)` (zero protocol calls); unknown states — and all
    /// states on cold engines — discover against every existing slot through
    /// the protocol, where symmetric protocols pay one transition call per
    /// unordered pair instead of two.
    fn ensure_slot(&mut self, state: P::State) -> usize {
        if let Some(&idx) = self.index.get(&state) {
            return idx;
        }
        let idx = self.states.len();
        self.index.insert(state.clone(), idx);
        let next = self.class_counts.len() as u32;
        let class = *self
            .classes
            .entry(self.protocol.output(&state))
            .or_insert(next);
        if class == next {
            self.class_counts.push(0);
        }
        self.out_class.push(class);
        self.states.push(state);
        self.counts.push(0);
        if let Some(warm) = &mut self.warm {
            let tid = warm.snap.id_of(&self.states[idx]);
            if let Some(tid) = tid {
                warm.tids.push(tid);
                warm.slot_of_tid[tid as usize] = idx as u32;
                // Candidate responders/initiators: materialized table
                // states from the snapshot rows, plus novel slots
                // classified through the protocol. Sorted ascending so the
                // activity index receives them in canonical slot order.
                let states = &self.states;
                let slot_of_tid = &warm.slot_of_tid;
                warm.out_buf.clear();
                warm.in_buf.clear();
                {
                    let out_buf = &mut warm.out_buf;
                    warm.snap.walk_out(tid, |jt| {
                        let e = slot_of_tid[jt];
                        if e != NO_ID && e != idx as u32 {
                            out_buf.push(e);
                        }
                        true
                    });
                }
                if self.symmetric {
                    warm.in_buf.extend_from_slice(&warm.out_buf);
                } else {
                    let in_buf = &mut warm.in_buf;
                    warm.snap.walk_in(tid, |it| {
                        let e = slot_of_tid[it];
                        if e != NO_ID && e != idx as u32 {
                            in_buf.push(e);
                        }
                        true
                    });
                }
                for &e in &warm.novel {
                    let (s_new, s_old) = (&states[idx], &states[e as usize]);
                    if !self.protocol.is_null_interaction(s_new, s_old) {
                        warm.out_buf.push(e);
                    }
                    let mirrored = if self.symmetric {
                        warm.out_buf.last() == Some(&e)
                    } else {
                        !self.protocol.is_null_interaction(s_old, s_new)
                    };
                    if mirrored {
                        warm.in_buf.push(e);
                    }
                }
                let diag = warm.snap.contains(tid, tid);
                warm.out_buf.sort_unstable();
                warm.in_buf.sort_unstable();
                self.activity
                    .add_slot_from_lists(&self.counts, &warm.out_buf, &warm.in_buf, diag);
                return idx;
            }
            warm.tids.push(NO_ID);
            warm.novel.push(idx as u32);
        }
        let protocol = self.protocol;
        let states = &self.states;
        let active = |r: usize, c: usize| !protocol.is_null_interaction(&states[r], &states[c]);
        if self.symmetric {
            self.activity.add_slot_symmetric(&self.counts, active);
        } else {
            self.activity.add_slot(&self.counts, active);
        }
        idx
    }

    /// Per-slot agent counts, aligned with [`known_states`](Self::known_states)
    /// — `counts()[s]` agents currently hold `known_states()[s]`. Slots whose
    /// count returned to zero stay listed (slot ids are append-only).
    ///
    /// Hazard layers use this to sample a *victim slot* weighted by count,
    /// which is exactly a uniformly random agent under anonymity.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Moves `amount` agents' worth of mass from state `from` to state `to`,
    /// outside the protocol's transition relation — the count-level analogue
    /// of overwriting `amount` agents' memory (crash-and-restart, transient
    /// corruption). Counts, the output histogram and the activity index are
    /// updated exactly as a transition would update them, so pair masses are
    /// re-derived for every touched slot and silence re-arms: a silent engine
    /// perturbed into an active configuration resumes running.
    ///
    /// Out-of-model by design: `steps`/`state_changes` are **not** advanced
    /// (a hazard is not an interaction) and the change-point trace does not
    /// record it, so a recorded trace of a hazardous run is not replayable.
    /// `to` may be a state the engine has never seen; its slot is discovered
    /// in the ordinary canonical order.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::UnknownState`] when `from` is unknown to
    /// the engine and [`FrameworkError::InsufficientAgents`] when it holds
    /// fewer than `amount` agents. A rejected call changes nothing.
    pub fn perturb_transfer(
        &mut self,
        from: &P::State,
        to: P::State,
        amount: u64,
    ) -> Result<(), FrameworkError> {
        if amount == 0 {
            return Ok(());
        }
        let from_slot = self.slot_holding(from, amount)?;
        let to_slot = self.ensure_slot(to);
        if to_slot == from_slot {
            return Ok(());
        }
        self.shift_output(from_slot, to_slot, amount);
        self.counts[from_slot] -= amount;
        self.activity.count_changed(from_slot, -(amount as i64));
        self.counts[to_slot] += amount;
        self.activity.count_changed(to_slot, amount as i64);
        self.note_disagreement();
        Ok(())
    }

    /// Adds `amount` fresh agents in `state` — the arrival half of churn.
    /// `n` grows; the activity index and output histogram follow. See
    /// [`perturb_transfer`](Self::perturb_transfer) for the out-of-model
    /// bookkeeping contract.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::PopulationOverflow`] when the grown
    /// population would exceed `2^63 − 1` agents. A rejected call changes
    /// nothing.
    pub fn perturb_add(&mut self, state: P::State, amount: u64) -> Result<(), FrameworkError> {
        if amount == 0 {
            return Ok(());
        }
        self.n = self.n.checked_add(amount).filter(|&n| n < 1 << 63).ok_or(
            FrameworkError::PopulationOverflow {
                n: self.n,
                added: amount,
            },
        )?;
        let slot = self.ensure_slot(state);
        self.add_output(slot, amount);
        self.counts[slot] += amount;
        self.activity.count_changed(slot, amount as i64);
        self.note_disagreement();
        Ok(())
    }

    /// Removes `amount` agents holding `state` from the population — the
    /// departure half of churn, and the quarantine primitive for stuck
    /// agents (the caller keeps the removed mass in its own ledger). `n`
    /// shrinks. See [`perturb_transfer`](Self::perturb_transfer) for the
    /// out-of-model bookkeeping contract.
    ///
    /// # Errors
    ///
    /// As [`perturb_transfer`](Self::perturb_transfer)'s `from`: unknown
    /// states and over-large removals are rejected and change nothing.
    pub fn perturb_remove(&mut self, state: &P::State, amount: u64) -> Result<(), FrameworkError> {
        if amount == 0 {
            return Ok(());
        }
        let slot = self.slot_holding(state, amount)?;
        self.n -= amount;
        self.remove_output(slot, amount);
        self.counts[slot] -= amount;
        self.activity.count_changed(slot, -(amount as i64));
        self.note_disagreement();
        Ok(())
    }

    /// The slot of `state`, provided it holds at least `amount` agents.
    fn slot_holding(&self, state: &P::State, amount: u64) -> Result<usize, FrameworkError> {
        let slot = *self
            .index
            .get(state)
            .ok_or_else(|| FrameworkError::UnknownState {
                state: format!("{state:?}"),
            })?;
        let held = self.counts[slot];
        if held < amount {
            return Err(FrameworkError::InsufficientAgents {
                held,
                requested: amount,
            });
        }
        Ok(slot)
    }

    /// Moves `amount` agents from slot `from`'s output class to slot
    /// `to`'s.
    fn shift_output(&mut self, from: usize, to: usize, amount: u64) {
        if self.out_class[from] != self.out_class[to] {
            self.remove_output(from, amount);
            self.add_output(to, amount);
        }
    }

    /// Adds `amount > 0` agents to slot `slot`'s output class.
    fn add_output(&mut self, slot: usize, amount: u64) {
        debug_assert!(amount > 0, "an empty shift would miscount live classes");
        let held = &mut self.class_counts[self.out_class[slot] as usize];
        self.live_classes += usize::from(*held == 0);
        *held += amount;
    }

    /// Removes `amount` agents from slot `slot`'s output class.
    fn remove_output(&mut self, slot: usize, amount: u64) {
        let held = &mut self.class_counts[self.out_class[slot] as usize];
        *held = held
            .checked_sub(amount)
            .expect("output histogram out of sync");
        self.live_classes -= usize::from(*held == 0);
    }

    /// Records an output disagreement at the current step, keeping
    /// `steps_to_consensus` honest after a perturbation re-splits outputs.
    fn note_disagreement(&mut self) {
        if self.live_classes > 1 {
            self.last_disagreement = Some(self.stats.steps);
        }
    }

    /// Number of states the warm-start snapshot can materialize without
    /// protocol calls — the table's size at construction; `0` for cold
    /// engines. (Slots themselves are created lazily, in canonical
    /// trajectory order; see [`slots`](Self::slots) for how many actually
    /// materialized.)
    pub fn warm_slots(&self) -> usize {
        self.warm.as_ref().map_or(0, |w| w.snap.len())
    }

    /// Active ordered slot pairs currently indexed.
    pub fn active_pairs(&self) -> usize {
        self.activity.active_pairs()
    }

    /// Heap bytes the activity index devotes to pair adjacency — the
    /// footprint the compact index minimizes (see
    /// [`CompactActivity`]).
    pub fn adjacency_bytes(&self) -> usize {
        self.activity.adjacency_bytes()
    }

    /// Builds a fresh [`TransitionTable`] holding everything this engine has
    /// discovered — states (in slot order), pair activity and applied
    /// transition outcomes. Equivalent to exporting into an empty table.
    pub fn warm_table(&self) -> TransitionTable<P> {
        let table = TransitionTable::new();
        self.export_to(&table);
        table
    }

    /// Publishes this engine's discovered structure — novel states, pair
    /// activity, applied transition outcomes — into `table`, so later
    /// engines can [warm-start](Self::with_snapshot_rng) from it.
    ///
    /// Publication is lock-free: the engine captures the table's current
    /// tip, builds one immutable segment extending it (novel states in
    /// canonical slot order; states the table holds that this engine never
    /// materialized are classified against the novel ones with direct
    /// protocol calls, keeping the table complete over all its states), and
    /// appends it with a compare-and-swap-style install. Losing a race to
    /// another publisher costs a rebuild against the new tip — typically
    /// cheaper, because the winner's segment resolves most states by hash
    /// lookup. A fully-known engine with no new outcomes publishes nothing.
    /// Exports never affect any engine's trajectory — tables are lookup
    /// oracles, not slot orderings — so racing exports from a
    /// multi-threaded sweep stay safe.
    pub fn export_to(&self, table: &TransitionTable<P>) {
        loop {
            let tip = table.capture();
            let Some(seg) = self.build_segment(&tip) else {
                return;
            };
            if table.try_install(tip.segment_count(), seg) {
                return;
            }
        }
    }

    /// Builds the segment extending `tip` with everything this engine knows
    /// that `tip` does not; `None` when there is nothing to publish.
    fn build_segment(&self, tip: &TableSnapshot<P::State>) -> Option<Segment<P::State>> {
        let slots = self.slots();
        let base = tip.len() as u32;
        // `engine_of[gid]` is the engine slot of table state `gid`, if the
        // engine knows it; `tid_of[slot]` maps every engine slot to its
        // global id (existing, or freshly assigned past `base`).
        let mut engine_of: Vec<u32> = vec![NO_ID; base as usize];
        let mut tid_of: Vec<u32> = vec![NO_ID; slots];
        tip.for_each_state(|gid, s| {
            if let Some(&slot) = self.index.get(s) {
                engine_of[gid as usize] = slot as u32;
                tid_of[slot] = gid;
            }
        });
        let novel: Vec<u32> = (0..slots as u32)
            .filter(|&s| tid_of[s as usize] == NO_ID)
            .collect();
        for (r, &s) in novel.iter().enumerate() {
            tid_of[s as usize] = base + r as u32;
        }
        // Protocol-discovered outcomes the tip does not already publish.
        let mut outcomes = HashMap::with_hasher(FxBuildHasher::default());
        for &((i, j), (a, b)) in &self.new_outcomes {
            let key = (tid_of[i as usize], tid_of[j as usize]);
            if tip.outcome(key).is_none() {
                outcomes
                    .entry(key)
                    .or_insert((tid_of[a as usize], tid_of[b as usize]));
            }
        }
        if novel.is_empty() && outcomes.is_empty() {
            return None;
        }
        let mut rows = AdjRows::new();
        for _ in 0..novel.len() {
            rows.push_slot();
        }
        let mut ext = AdjRows::new();
        if !novel.is_empty() {
            for _ in 0..base {
                ext.push_slot();
            }
        }
        // Tip states this engine never materialized (raced in by other
        // publishers): their pairs against the novel states are classified
        // through the protocol directly, keeping the table complete.
        let unknown: Vec<u32> = (0..base)
            .filter(|&g| engine_of[g as usize] == NO_ID)
            .collect();
        let mut out_buf: Vec<u32> = Vec::new();
        let mut in_buf: Vec<u32> = Vec::new();
        for (r, &slot) in novel.iter().enumerate() {
            let u = slot as usize;
            out_buf.clear();
            in_buf.clear();
            self.activity.walk_out(u, &mut |e| out_buf.push(tid_of[e]));
            self.activity.walk_in(u, &mut |e| in_buf.push(tid_of[e]));
            let su = &self.states[u];
            for &g in &unknown {
                let sv = tip.state(g);
                if !self.protocol.is_null_interaction(su, sv) {
                    out_buf.push(g);
                }
                let mirrored = if self.symmetric {
                    out_buf.last() == Some(&g)
                } else {
                    !self.protocol.is_null_interaction(sv, su)
                };
                if mirrored {
                    in_buf.push(g);
                }
            }
            // Engine-slot order is not global-id order, so the mapped ids
            // need one sort before the ascending row appends.
            out_buf.sort_unstable();
            in_buf.sort_unstable();
            for &j in &out_buf {
                rows.push(r, j as usize);
            }
            for &i in &in_buf {
                // In-edges from novel initiators live in those initiators'
                // own out-rows; only earlier ids extend `ext`.
                if i < base {
                    ext.push(i as usize, base as usize + r);
                }
            }
        }
        let states = novel
            .iter()
            .map(|&s| self.states[s as usize].clone())
            .collect();
        Some(Segment::new(
            base,
            states,
            Rows::Flat(rows),
            ext,
            outcomes,
            self.symmetric,
        ))
    }
}

impl<'p, P, CS, A, R> CountEngine<'p, P, CS, A, R>
where
    P: Protocol,
    CS: CountScheduler<P::State>,
    A: Activity,
    R: ResumableRng,
{
    /// Captures this engine's resumable state as a [`RunCheckpoint`] —
    /// `O(slots)` of data: the canonical slot→state list, per-slot counts,
    /// the step/stats counters, the RNG stream position and the recorded
    /// change-point trace (when recording). Everything else — the activity
    /// index, the output histogram, the transition memo — is derivable and
    /// deliberately not captured; [`resume`](Self::resume) rebuilds it.
    ///
    /// The capture happens at whatever point the engine currently sits;
    /// call it from a
    /// [`run_until_silent_checkpointed`](Self::run_until_silent_checkpointed)
    /// hook to guarantee a change-point boundary. Layers above the engine
    /// (hazard drivers, supervisors) attach their own state through
    /// [`RunCheckpoint::set_aux`].
    pub fn checkpoint(&self) -> RunCheckpoint<P::State> {
        let trace = self.trace.as_ref().map(|pairs| {
            pairs
                .iter()
                .map(|(a, b)| (self.index[a] as u32, self.index[b] as u32))
                .collect()
        });
        RunCheckpoint {
            protocol: self.protocol.name().to_string(),
            fingerprint: crate::transition_store::fingerprint(self.protocol),
            param: self.protocol.fingerprint_param(),
            symmetric: self.symmetric,
            n: self.n,
            stats: self.stats,
            last_disagreement: self.last_disagreement,
            states: self.states.clone(),
            counts: self.counts.clone(),
            rng_kind: R::RNG_KIND,
            rng_words: self.rng.save_words(),
            trace,
            aux: Vec::new(),
        }
    }

    /// Reconstructs an engine from `checkpoint`, cold (no warm snapshot).
    /// See [`resume_with_snapshot`](Self::resume_with_snapshot) for the
    /// resume contract.
    ///
    /// # Errors
    ///
    /// See [`resume_with_snapshot`](Self::resume_with_snapshot).
    pub fn resume(
        protocol: &'p P,
        scheduler: CS,
        checkpoint: &RunCheckpoint<P::State>,
    ) -> Result<Self, CheckpointError> {
        Self::resume_inner(protocol, scheduler, checkpoint, None)
    }

    /// Reconstructs an engine from `checkpoint`, warm-started from
    /// `snapshot` (used as a lookup oracle, exactly as in
    /// [`with_snapshot_rng`](Self::with_snapshot_rng)).
    ///
    /// **Resume contract.** The resumed engine continues the checkpointed
    /// run bit-identically: slots are re-registered in their canonical
    /// (checkpointed) order, the activity index and output histogram are
    /// rebuilt deterministically from the counts, and the RNG resumes at
    /// its exact saved stream position — so the remainder of the run
    /// (trajectory, `RunReport`, recorded trace, RNG draws) matches the
    /// uninterrupted run regardless of which snapshot (or none) the resumed
    /// engine is warmed from. The transition memo restarts empty; misses
    /// recompute through the snapshot or the protocol, which never affects
    /// the trajectory. The scheduler must be stateless (as
    /// [`UniformCountScheduler`] is) — a scheduler with history of its own
    /// is not captured by checkpoints.
    ///
    /// # Errors
    ///
    /// - [`CheckpointError::IdentityMismatch`] when the checkpoint was taken
    ///   for a different protocol parameterization.
    /// - [`CheckpointError::RngMismatch`] when it was taken under a
    ///   different generator family than `R`.
    /// - [`CheckpointError::Corrupt`] when the checkpoint is internally
    ///   inconsistent (name/symmetry disagreement, duplicate states,
    ///   undecodable RNG words, counts not summing to `n`).
    pub fn resume_with_snapshot(
        protocol: &'p P,
        scheduler: CS,
        checkpoint: &RunCheckpoint<P::State>,
        snapshot: Arc<TableSnapshot<P::State>>,
    ) -> Result<Self, CheckpointError> {
        Self::resume_inner(protocol, scheduler, checkpoint, Some(snapshot))
    }

    fn resume_inner(
        protocol: &'p P,
        scheduler: CS,
        checkpoint: &RunCheckpoint<P::State>,
        snapshot: Option<Arc<TableSnapshot<P::State>>>,
    ) -> Result<Self, CheckpointError> {
        checkpoint.validate()?;
        let expected = crate::transition_store::fingerprint(protocol);
        if checkpoint.fingerprint != expected {
            return Err(CheckpointError::IdentityMismatch {
                stored: checkpoint.fingerprint,
                expected,
            });
        }
        if checkpoint.protocol != protocol.name() {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint names protocol {:?}, expected {:?}",
                checkpoint.protocol,
                protocol.name()
            )));
        }
        if checkpoint.symmetric != protocol.is_symmetric() {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint symmetry flag {} disagrees with the protocol",
                checkpoint.symmetric
            )));
        }
        if checkpoint.rng_kind != R::RNG_KIND {
            return Err(CheckpointError::RngMismatch {
                stored: checkpoint.rng_kind,
                expected: R::RNG_KIND,
            });
        }
        let rng = R::load_words(&checkpoint.rng_words).ok_or_else(|| {
            CheckpointError::Corrupt("rng state words do not decode to a generator state".into())
        })?;

        let mut engine = Self::empty(protocol, scheduler, rng, checkpoint.states.len());
        if let Some(snap) = snapshot {
            if !snap.is_empty() {
                debug_assert_eq!(
                    snap.symmetric(),
                    engine.symmetric,
                    "snapshot and engine disagree on adjacency symmetry"
                );
                engine.warm = Some(WarmState::new(snap));
            }
        }
        // Re-register every slot in checkpointed (canonical) order —
        // discovery, warm-ingestion and activity rows all rebuild here.
        for (i, s) in checkpoint.states.iter().enumerate() {
            let slot = engine.ensure_slot(s.clone());
            if slot != i {
                return Err(CheckpointError::Corrupt(format!(
                    "state {i} duplicates slot {slot}"
                )));
            }
        }
        engine.n = checkpoint.n;
        for (slot, &c) in checkpoint.counts.iter().enumerate() {
            if c == 0 {
                // Zero-count slots stay registered but must not enter the
                // output histogram — a spurious entry would mask consensus.
                continue;
            }
            engine.counts[slot] = c;
            engine.activity.count_changed(slot, c as i64);
            engine.add_output(slot, c);
        }
        engine.stats = checkpoint.stats;
        engine.last_disagreement = checkpoint.last_disagreement;
        if let Some(pairs) = &checkpoint.trace {
            // Slot ids were validated `< slots` by `validate()`.
            engine.trace = Some(
                pairs
                    .iter()
                    .map(|&(a, b)| {
                        (
                            engine.states[a as usize].clone(),
                            engine.states[b as usize].clone(),
                        )
                    })
                    .collect(),
            );
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn converges_to_max_on_large_population() {
        let inputs: Vec<u8> = (0..1_000_000).map(|i| (i % 11) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 9);
        let report = engine.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, Some(10));
        assert!(engine.is_silent());
        assert_eq!(report.steps, report.steps_to_silence);
    }

    #[test]
    fn batched_and_stepped_bookkeeping_agree() {
        let inputs: Vec<u8> = (0..60).map(|i| (i % 6) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 3);
        for _ in 0..2_000 {
            let _ = engine.step().unwrap();
            assert_eq!(engine.audit(), Ok(()));
            if engine.is_silent() {
                break;
            }
        }
        assert!(engine.is_silent(), "max protocol silences 60 agents fast");
    }

    #[test]
    fn mass_invariant_holds_across_batched_run() {
        let inputs: Vec<u8> = (0..5_000).map(|i| (i % 13) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 5);
        while !engine.is_silent() {
            engine.advance_one_change(u64::MAX);
            assert_eq!(engine.audit(), Ok(()));
        }
        assert_eq!(engine.config().n(), 5_000);
        assert_eq!(engine.report().consensus, Some(12));
    }

    #[test]
    fn compact_engine_mass_invariant_holds_too() {
        let inputs: Vec<u8> = (0..1_000).map(|i| (i % 9) as u8).collect();
        let config: CountConfig<u8> = inputs.iter().copied().collect();
        let mut engine = CompactCountEngine::with_rng(
            &Max,
            config,
            UniformCountScheduler::new(),
            StdRng::seed_from_u64(5),
        );
        while !engine.is_silent() {
            engine.advance_one_change(u64::MAX);
            assert_eq!(engine.audit(), Ok(()));
        }
        assert_eq!(engine.report().consensus, Some(8));
    }

    /// 160 states span three 64-row blocks of the activity index; the
    /// audit must hold after every change while low states drain, leaving
    /// zero-mass rows and then a zero-mass block behind.
    #[test]
    fn audit_holds_across_blocks_at_many_slots() {
        let inputs: Vec<u8> = (0..1_200).map(|i| (i % 160) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 13);
        assert_eq!(engine.slots(), 160);
        assert_eq!(engine.audit(), Ok(()));
        while !engine.is_silent() {
            engine.advance_one_change(u64::MAX);
            assert_eq!(engine.audit(), Ok(()));
        }
        assert_eq!(engine.report().consensus, Some(159));
    }

    /// Each corrupted quantity is reported by name, with its slot.
    #[test]
    fn audit_names_the_first_mismatch() {
        let fresh = || CountEngine::from_inputs(&Max, &[1u8, 2, 3], 1);
        let mismatch = |quantity, slot, stored, recomputed| {
            Err(AuditError {
                quantity,
                slot,
                stored,
                recomputed,
            })
        };
        let mut engine = fresh();
        assert_eq!(engine.audit(), Ok(()));
        // One agent too many in state 3: slot 0 (state 1) sees it first.
        engine.counts[2] += 1;
        assert_eq!(
            engine.audit(),
            mismatch(AuditQuantity::ColIn, Some(0), 2, 3)
        );

        // Every pair of distinct states is active: each slot's col_in is 2
        // and each row mass 1 · 2, so the one block sums to 6.
        let mut engine = fresh();
        engine.activity.col_in[1] += 1;
        assert_eq!(
            engine.audit(),
            mismatch(AuditQuantity::ColIn, Some(1), 3, 2)
        );

        let mut engine = fresh();
        engine.activity.block_mass[0] += 1;
        assert_eq!(
            engine.audit(),
            mismatch(AuditQuantity::BlockMass, Some(0), 7, 6)
        );

        let mut engine = fresh();
        engine.n += 1;
        assert_eq!(
            engine.audit(),
            mismatch(AuditQuantity::Population, None, 4, 3)
        );

        let mut engine = fresh();
        engine.class_counts[1] += 1;
        let err = engine.audit().unwrap_err();
        assert_eq!(
            Err(err),
            mismatch(AuditQuantity::OutputHistogram, Some(1), 2, 1)
        );
        assert_eq!(
            err.to_string(),
            "OutputHistogram of slot 1 is 2, recomputed 1"
        );

        let mut engine = fresh();
        engine.live_classes += 1;
        assert_eq!(
            engine.audit(),
            mismatch(AuditQuantity::OutputHistogram, None, 4, 3)
        );
    }

    #[test]
    fn silent_configuration_detected_immediately() {
        let mut engine = CountEngine::from_inputs(&Max, &[4, 4, 4], 1);
        let report = engine.run_until_silent(100).unwrap();
        assert_eq!(report.steps, 0);
        assert_eq!(report.consensus, Some(4));
    }

    #[test]
    fn tiny_population_errors_on_step() {
        let mut engine = CountEngine::from_inputs(&Max, &[4], 1);
        assert!(matches!(
            engine.step(),
            Err(FrameworkError::PopulationTooSmall { n: 1 })
        ));
        // ... but is vacuously silent for the batched runner.
        assert!(engine.run_until_silent(10).is_ok());
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let inputs: Vec<u8> = (0..64).map(|i| (i % 8) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 2);
        let err = engine.run_until_silent(1).unwrap_err();
        assert_eq!(err, FrameworkError::MaxStepsExceeded { max_steps: 1 });
        assert_eq!(engine.steps(), 1);
    }

    #[test]
    fn advance_to_runs_exactly_that_many_interactions() {
        let inputs: Vec<u8> = (0..40).map(|i| (i % 5) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 7);
        engine.advance_to(123).unwrap();
        assert_eq!(engine.steps(), 123);
        // Past silence the counter still advances (all-null tail).
        engine.advance_to(1_000_000_000).unwrap();
        assert_eq!(engine.steps(), 1_000_000_000);
        assert!(engine.is_silent());
    }

    #[test]
    fn config_round_trips() {
        let inputs = [1u8, 1, 2, 3];
        let engine = CountEngine::from_inputs(&Max, &inputs, 1);
        let config = engine.config();
        assert_eq!(config.n(), 4);
        assert_eq!(config.count(&1), 2);
    }

    #[test]
    fn slot_growth_preserves_activity() {
        // Start with many distinct states so growth paths are exercised.
        let inputs: Vec<u8> = (0..200).map(|i| (i % 97) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 5);
        let report = engine.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, Some(96));
        assert_eq!(engine.config().n(), 200);
    }

    #[test]
    fn report_before_running_reflects_initial_configuration() {
        let engine = CountEngine::from_inputs(&Max, &[1, 2], 1);
        let report = engine.report();
        assert_eq!(report.steps, 0);
        assert_eq!(report.consensus, None);
        assert_eq!(report.steps_to_consensus, 1);
    }

    #[test]
    fn priming_registers_zero_count_slots() {
        let mut engine = CountEngine::from_inputs(&Max, &[1, 2], 1);
        assert_eq!(engine.slots(), 2);
        engine.prime_states([9u8, 7, 1]);
        assert_eq!(engine.slots(), 4, "known states are not re-registered");
        assert_eq!(engine.config().n(), 2, "priming adds no agents");
        let report = engine.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, Some(2), "primed states stay inert");
    }

    /// A default-index engine warm-started from a snapshot of `table`,
    /// seeded like [`CountEngine::from_config`].
    fn warm_engine<'p, P: Protocol>(
        protocol: &'p P,
        config: CountConfig<P::State>,
        seed: u64,
        table: &TransitionTable<P>,
    ) -> CountEngine<'p, P> {
        CountEngine::with_snapshot_rng(
            protocol,
            config,
            UniformCountScheduler::new(),
            StdRng::seed_from_u64(seed),
            table.snapshot(),
        )
    }

    /// Symmetric toy: both agents adopt the maximum (same rule as [`Max`]
    /// but declared symmetric, exercising the halved discovery path).
    struct SymMax;

    impl Protocol for SymMax {
        type State = u8;
        type Input = u8;
        type Output = u8;

        fn name(&self) -> &str {
            "sym-max"
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

    #[test]
    fn warm_restart_replays_cold_run_bit_identically_under_uniform() {
        // Slot numbering is canonical (trajectory order), so a warm restart
        // consumes the identical RNG stream whatever the table's id order:
        // reports must be bit-equal, not just statistically equal.
        let inputs: Vec<u8> = (0..500).map(|i| (i % 23) as u8).collect();
        let mut cold = CountEngine::from_inputs(&SymMax, &inputs, 77);
        let cold_report = cold.run_until_silent(u64::MAX).unwrap();
        let table = cold.warm_table();
        assert_eq!(table.len(), cold.slots());
        assert_eq!(table.active_pairs(), cold.active_pairs());

        let config: CountConfig<u8> = inputs.iter().copied().collect();
        let mut warm = warm_engine(&SymMax, config, 77, &table);
        assert_eq!(warm.warm_slots(), table.len());
        let warm_report = warm.run_until_silent(u64::MAX).unwrap();
        assert_eq!(warm_report, cold_report);
        assert_eq!(warm.config(), cold.config());
    }

    #[test]
    fn warm_start_from_empty_table_equals_cold_start() {
        let inputs: Vec<u8> = (0..200).map(|i| (i % 9) as u8).collect();
        let table = TransitionTable::new();
        let config: CountConfig<u8> = inputs.iter().copied().collect();
        let mut warm = warm_engine(&Max, config, 5, &table);
        assert_eq!(warm.warm_slots(), 0);
        let warm_report = warm.run_until_silent(u64::MAX).unwrap();
        let mut cold = CountEngine::from_inputs(&Max, &inputs, 5);
        assert_eq!(cold.run_until_silent(u64::MAX).unwrap(), warm_report);
    }

    #[test]
    fn export_merges_racing_engines_into_a_complete_table() {
        // Engines over disjoint-ish state sets export into one table; the
        // slow merge path must classify every cross pair via the protocol.
        let table = TransitionTable::new();
        let mut a = CountEngine::from_inputs(&Max, &[1, 2, 3], 1);
        a.run_until_silent(u64::MAX).unwrap();
        a.export_to(&table);
        // Engine `b` never saw the table: its export takes the slow path.
        let mut b = CountEngine::from_inputs(&Max, &[5, 6, 2], 2);
        b.run_until_silent(u64::MAX).unwrap();
        b.export_to(&table);

        let dump = table.dump();
        assert_eq!(dump.states.len(), 5, "1,2,3 from a; 5,6 from b");
        // Every ordered pair over the merged states must match brute force.
        for (i, si) in dump.states.iter().enumerate() {
            for (j, sj) in dump.states.iter().enumerate() {
                let expected = !Max.is_null_interaction(si, sj);
                assert_eq!(
                    dump.rows[i].binary_search(&(j as u32)).is_ok(),
                    expected,
                    "pair ({si}, {sj})"
                );
            }
        }
        // A warm engine over the union of states makes no protocol calls for
        // table-known pairs; slots materialize lazily, so only the states
        // the trajectory actually visits get one (state 3 stays virtual).
        let config: CountConfig<u8> = [1u8, 2, 5, 6].iter().copied().collect();
        let mut warm = warm_engine(&Max, config, 3, &table);
        assert_eq!(warm.warm_slots(), 5);
        assert_eq!(warm.slots(), 4, "only the config states materialized");
        let report = warm.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, Some(6));
        assert_eq!(warm.slots(), 4, "max targets are existing states");
        // Re-exporting adds nothing.
        let before = table.dump();
        warm.export_to(&table);
        assert_eq!(table.dump().states, before.states);
        assert_eq!(table.dump().rows, before.rows);
    }

    #[test]
    fn export_into_an_unrelated_same_size_table_takes_the_merge_path() {
        // A warm engine exporting into a table unrelated to its snapshot
        // must never take the append fast path (it would write rows under
        // mismatched ids) — the general merge keeps B complete.
        let mut a = CountEngine::from_inputs(&Max, &[1, 2], 1);
        a.run_until_silent(u64::MAX).unwrap();
        let table_a = a.warm_table();
        let mut b = CountEngine::from_inputs(&Max, &[5, 6], 1);
        b.run_until_silent(u64::MAX).unwrap();
        let table_b = b.warm_table();
        assert_eq!(table_a.len(), table_b.len(), "lengths must coincide");

        let config: CountConfig<u8> = [1u8, 2].iter().copied().collect();
        let warm = warm_engine(&Max, config, 3, &table_a);
        warm.export_to(&table_b);
        let dump = table_b.dump();
        assert_eq!(dump.states.len(), 4, "5,6 from b; 1,2 merged in");
        for (i, si) in dump.states.iter().enumerate() {
            for (j, sj) in dump.states.iter().enumerate() {
                assert_eq!(
                    dump.rows[i].binary_search(&(j as u32)).is_ok(),
                    !Max.is_null_interaction(si, sj),
                    "pair ({si}, {sj})"
                );
            }
        }
    }

    #[test]
    fn warm_engine_discovers_novel_states_beyond_the_table() {
        let mut scout = CountEngine::from_inputs(&Max, &[1, 2], 1);
        scout.run_until_silent(u64::MAX).unwrap();
        let table = scout.warm_table();
        assert_eq!(table.len(), 2);
        // The warm engine's config introduces state 9, unknown to the table.
        let config: CountConfig<u8> = [1u8, 2, 9].iter().copied().collect();
        let mut warm = warm_engine(&Max, config, 4, &table);
        assert_eq!(warm.warm_slots(), 2);
        assert_eq!(warm.slots(), 3, "state 9 discovered past the warm prefix");
        let report = warm.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, Some(9));
        warm.export_to(&table);
        assert_eq!(table.len(), 3);
        assert!(table.outcome_count() > 0, "applied outcomes are exported");
    }

    #[test]
    fn perturbation_rearms_silence_and_keeps_histograms_consistent() {
        // Reach silence, then knock one agent out of consensus: mass must
        // re-arm, the run must resume, and all bookkeeping must stay exact.
        let inputs: Vec<u8> = (0..100).map(|i| (i % 5) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 11);
        engine.run_until_silent(u64::MAX).unwrap();
        assert!(engine.is_silent());
        assert_eq!(engine.report().consensus, Some(4));

        engine.perturb_transfer(&4u8, 0u8, 3).unwrap();
        assert!(!engine.is_silent(), "perturbation re-armed activity");
        assert_eq!(engine.audit(), Ok(()));
        assert_eq!(engine.config().n(), 100, "transfer conserves agents");
        assert_eq!(engine.output_counts().len(), 2);
        let steps_before = engine.steps();
        let report = engine.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, Some(4), "max protocol re-heals");
        assert!(engine.steps() > steps_before);
        // Consensus was re-broken at the perturbation step, so the consensus
        // time reflects the *recovery*, not the first convergence.
        assert!(report.steps_to_consensus > steps_before);
    }

    #[test]
    fn churn_perturbations_track_population_size() {
        let mut engine = CountEngine::from_inputs(&Max, &[1u8, 2, 3], 5);
        engine.perturb_add(9, 4).unwrap();
        assert_eq!(engine.n(), 7);
        assert_eq!(engine.config().n(), 7);
        assert_eq!(engine.audit(), Ok(()));
        engine.perturb_remove(&9u8, 3).unwrap();
        assert_eq!(engine.n(), 4);
        assert_eq!(engine.audit(), Ok(()));
        let out_total: usize = engine.output_counts().values().sum();
        assert_eq!(out_total, 4);
        let report = engine.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, Some(9), "the surviving 9 still wins");
    }

    #[test]
    fn perturb_to_unknown_state_discovers_its_slot() {
        let mut engine = CountEngine::from_inputs(&Max, &[1u8, 2], 3);
        assert_eq!(engine.slots(), 2);
        engine.perturb_transfer(&1u8, 7u8, 1).unwrap();
        assert_eq!(engine.slots(), 3, "target slot discovered");
        assert_eq!(engine.audit(), Ok(()));
        let report = engine.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report.consensus, Some(7));
    }

    #[test]
    fn zero_amount_perturbations_are_no_ops() {
        let mut engine = CountEngine::from_inputs(&Max, &[1u8, 2], 3);
        let mass = engine.mass();
        engine.perturb_transfer(&1u8, 2u8, 0).unwrap();
        engine.perturb_add(9, 0).unwrap();
        engine.perturb_remove(&1u8, 0).unwrap();
        assert_eq!(engine.mass(), mass);
        assert_eq!(engine.slots(), 2, "no slot discovered for amount 0");
        assert_eq!(engine.n(), 2);
    }

    /// A rejected perturbation returns its typed error and leaves every
    /// count, slot and index entry as it was.
    fn assert_rejected_unchanged(
        engine: &CountEngine<'_, Max>,
        result: Result<(), FrameworkError>,
        expected: FrameworkError,
    ) {
        assert_eq!(result, Err(expected));
        assert_eq!(engine.audit(), Ok(()));
        assert_eq!(engine.slots(), 2, "no slot discovered by a rejected call");
        assert_eq!(engine.n(), 2);
        assert_eq!(engine.counts(), &[1, 1]);
    }

    #[test]
    fn perturbing_an_unseen_state_is_a_typed_error() {
        let mut engine = CountEngine::from_inputs(&Max, &[1u8, 2], 3);
        let unknown = || FrameworkError::UnknownState { state: "5".into() };
        let result = engine.perturb_transfer(&5u8, 7u8, 1);
        assert_rejected_unchanged(&engine, result, unknown());
        let result = engine.perturb_remove(&5u8, 1);
        assert_rejected_unchanged(&engine, result, unknown());
    }

    #[test]
    fn perturbing_more_agents_than_a_state_holds_is_a_typed_error() {
        let mut engine = CountEngine::from_inputs(&Max, &[1u8, 2], 3);
        let short = FrameworkError::InsufficientAgents {
            held: 1,
            requested: 2,
        };
        let result = engine.perturb_remove(&1u8, 2);
        assert_rejected_unchanged(&engine, result, short.clone());
        let result = engine.perturb_transfer(&1u8, 7u8, 2);
        assert_rejected_unchanged(&engine, result, short);
    }

    #[test]
    fn perturb_add_past_the_agent_cap_is_a_typed_error() {
        let mut engine = CountEngine::from_inputs(&Max, &[1u8, 2], 3);
        let added = (1u64 << 63) - 2;
        let result = engine.perturb_add(9, added);
        assert_rejected_unchanged(
            &engine,
            result,
            FrameworkError::PopulationOverflow { n: 2, added },
        );
        let result = engine.perturb_add(9, u64::MAX);
        assert_rejected_unchanged(
            &engine,
            result,
            FrameworkError::PopulationOverflow {
                n: 2,
                added: u64::MAX,
            },
        );
        engine.perturb_add(9, added - 1).unwrap();
        assert_eq!(engine.n(), (1 << 63) - 1, "the cap itself is reachable");
        assert_eq!(engine.audit(), Ok(()));
    }

    #[test]
    fn checkpoint_resume_mid_run_is_bit_identical() {
        use rand::rngs::Philox4x32;
        use std::ops::ControlFlow;

        let inputs: Vec<u8> = (0..2_000).map(|i| (i % 17) as u8).collect();
        let config: CountConfig<u8> = inputs.iter().copied().collect();
        let mut reference = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &Max,
            config.clone(),
            UniformCountScheduler::new(),
            Philox4x32::stream(7, 1),
        );
        reference.record_trace();
        let ref_report = reference.run_until_silent(u64::MAX).unwrap();
        let ref_trace = reference.take_trace().unwrap();

        let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &Max,
            config,
            UniformCountScheduler::new(),
            Philox4x32::stream(7, 1),
        );
        engine.record_trace();
        let mut saved = None;
        let err = engine
            .run_until_silent_checkpointed(u64::MAX, 100, |e| {
                saved = Some(e.checkpoint());
                ControlFlow::Break(())
            })
            .unwrap_err();
        assert!(matches!(err, FrameworkError::Interrupted { .. }));
        let ck = saved.expect("hook fired before silence");
        assert!(ck.stats.steps > 0 && !ck.counts.is_empty());

        let mut resumed = CountEngine::<_, _, SparseActivity, Philox4x32>::resume(
            &Max,
            UniformCountScheduler::new(),
            &ck,
        )
        .unwrap();
        let report = resumed.run_until_silent(u64::MAX).unwrap();
        assert_eq!(report, ref_report);
        assert_eq!(resumed.take_trace().unwrap(), ref_trace);
        assert_eq!(resumed.config(), reference.config());
    }

    #[test]
    fn interrupted_engine_continues_in_place_identically() {
        use rand::rngs::Philox4x32;
        use std::ops::ControlFlow;

        let inputs: Vec<u8> = (0..500).map(|i| (i % 13) as u8).collect();
        let config: CountConfig<u8> = inputs.iter().copied().collect();
        let mut reference = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &Max,
            config.clone(),
            UniformCountScheduler::new(),
            Philox4x32::stream(3, 2),
        );
        let ref_report = reference.run_until_silent(u64::MAX).unwrap();

        // Pause every 50 changes, continuing in place each time — the hook
        // must be trajectory-neutral.
        let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &Max,
            config,
            UniformCountScheduler::new(),
            Philox4x32::stream(3, 2),
        );
        let report = loop {
            match engine.run_until_silent_checkpointed(u64::MAX, 50, |_| ControlFlow::Break(())) {
                Ok(report) => break report,
                Err(FrameworkError::Interrupted { steps }) => {
                    assert_eq!(steps, engine.steps());
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(report, ref_report);
    }

    #[test]
    fn resume_rejects_mismatched_identity_and_rng() {
        use crate::run_checkpoint::CheckpointError;
        use rand::rngs::Philox4x32;

        let engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &Max,
            [1u8, 2, 3].iter().copied().collect(),
            UniformCountScheduler::new(),
            Philox4x32::stream(0, 0),
        );
        let ck = engine.checkpoint();
        // Wrong protocol parameterization (SymMax fingerprints differently).
        assert!(matches!(
            CountEngine::<_, _, SparseActivity, Philox4x32>::resume(
                &SymMax,
                UniformCountScheduler::new(),
                &ck
            ),
            Err(CheckpointError::IdentityMismatch { .. })
        ));
        // Wrong generator family.
        assert!(matches!(
            CountEngine::<_, _, SparseActivity, StdRng>::resume(
                &Max,
                UniformCountScheduler::new(),
                &ck
            ),
            Err(CheckpointError::RngMismatch {
                stored: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn recorded_trace_replays_to_the_same_configuration() {
        let inputs: Vec<u8> = (0..30).map(|i| (i % 4) as u8).collect();
        let mut engine = CountEngine::from_inputs(&Max, &inputs, 13);
        engine.record_trace();
        engine.run_until_silent(u64::MAX).unwrap();
        let trace = engine.take_trace().expect("recording was on");
        assert_eq!(trace.len() as u64, engine.stats().state_changes);

        let config: CountConfig<u8> = inputs.iter().copied().collect();
        let mut replayed = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &Max,
            config,
            trace.clone().into_scheduler(),
            StdRng::seed_from_u64(0), // RNG is irrelevant under replay
        );
        for _ in 0..trace.len() {
            assert!(replayed.step().unwrap(), "every traced pair is active");
        }
        assert_eq!(replayed.config(), engine.config());
        assert!(replayed.is_silent());
    }
}

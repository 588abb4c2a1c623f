//! One-shot protocol trials with a uniform measurement record, the
//! backend-dispatching [`TrialRunner`], and its crash-tolerant
//! [`SupervisedRunner`] wrapper (panic isolation, per-trial deadlines with
//! checkpointed retry, journaled sweep resume).

use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use circles_core::Color;
use pp_protocol::{
    CompactCountEngine, CountConfig, CountEngine, FrameworkError, Population, Protocol, RunReport,
    Scheduler, SimStats, Simulation, SparseActivity, TableSnapshot, TransitionTable,
    UniformCountScheduler, UniformPairScheduler,
};
use rand::RngCore;

use crate::journal::{JournalEntry, SweepJournal};
use crate::runner::{default_threads, run_seeded, trial_rng};
use crate::table_cache::TableCache;

/// The measurements every experiment cares about, protocol-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialResult {
    /// Interactions until the last state change (exact).
    pub steps_to_silence: u64,
    /// Interactions until outputs were unanimous forever (exact).
    pub steps_to_consensus: u64,
    /// Number of state-changing interactions.
    pub state_changes: u64,
    /// Whether the run reached silence within budget.
    pub stabilized: bool,
    /// Whether the final unanimous output equals the expected winner.
    pub correct: bool,
}

impl TrialResult {
    /// Grades a run's outcome: a report is a stabilized trial, correct when
    /// its consensus is `expected`. Budget exhaustion is a *finding*, not an
    /// error — `stabilized == false, correct == false`, with the counters
    /// (`stats`) the run reached. Other framework errors propagate.
    fn from_run(
        outcome: Result<RunReport<Color>, FrameworkError>,
        stats: SimStats,
        expected: Color,
        max_steps: u64,
    ) -> Result<Self, FrameworkError> {
        match outcome {
            Ok(report) => Ok(TrialResult {
                steps_to_silence: report.steps_to_silence,
                steps_to_consensus: report.steps_to_consensus,
                state_changes: report.state_changes,
                stabilized: true,
                correct: report.consensus == Some(expected),
            }),
            Err(FrameworkError::MaxStepsExceeded { .. }) => Ok(TrialResult {
                steps_to_silence: stats.last_change_step,
                steps_to_consensus: max_steps,
                state_changes: stats.state_changes,
                stabilized: false,
                correct: false,
            }),
            Err(e) => Err(e),
        }
    }
}

/// What a *supervised* trial settled to; see [`SupervisedRunner`].
///
/// Where the unsupervised [`TrialRunner::run`] panics the whole sweep when
/// one trial dies, supervision confines every failure to its seed and
/// records it as a typed verdict, so one bad trial costs one row — never
/// the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrialVerdict {
    /// The trial ran to its normal conclusion (which may still be a
    /// `stabilized == false` budget-exhaustion finding).
    Completed(TrialResult),
    /// The trial panicked (or failed on a framework error); `message` is
    /// the panic payload or error rendering. Poisoning is deterministic in
    /// the seed, so a resumed sweep does **not** retry it.
    Poisoned {
        /// The captured panic message or framework-error rendering.
        message: String,
    },
    /// The trial overran its per-trial deadline `attempts` times (each
    /// retry resuming from the in-memory checkpoint taken when the previous
    /// deadline fired) and supervision gave up. Deadlines measure machine
    /// load, not the trial, so a resumed sweep retries these seeds.
    DeadlineExceeded {
        /// How many attempts were made before giving up (`>= 1`).
        attempts: u32,
    },
}

impl TrialVerdict {
    /// The completed result, when there is one.
    pub fn result(&self) -> Option<&TrialResult> {
        match self {
            TrialVerdict::Completed(result) => Some(result),
            _ => None,
        }
    }

    /// Whether the trial ran to its normal conclusion.
    pub fn is_completed(&self) -> bool {
        matches!(self, TrialVerdict::Completed(_))
    }
}

/// Which simulation engine executes a trial.
///
/// Both backends expose the same measurement surface
/// ([`RunReport`]-shaped), so experiments can sweep
/// them interchangeably; see the README's "Choosing a backend" section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The agent-indexed engine ([`Simulation`]) under the uniform-random
    /// scheduler: `O(1)` per interaction, pays for every silent interaction.
    Indexed,
    /// The batched count engine ([`CountEngine`]): one cheap update per
    /// state-*changing* interaction — the only practical choice for
    /// `n ≳ 10^5`.
    Count,
}

/// The outcome of a backend-dispatched run to silence: the measurement
/// report, the final anonymous configuration (so experiments can inspect
/// terminal states — self-loops, conservation, output multisets — without
/// caring which engine ran), and whether silence was reached within budget.
#[derive(Debug, Clone)]
pub struct SilenceOutcome<P: Protocol> {
    /// Report snapshot at silence (or at budget exhaustion).
    pub report: RunReport<P::Output>,
    /// The final configuration as a state multiset.
    pub config: CountConfig<P::State>,
    /// Whether the run actually reached silence within `max_steps`.
    pub stabilized: bool,
}

impl Backend {
    /// Both backends, for sweeps.
    pub const ALL: [Backend; 2] = [Backend::Indexed, Backend::Count];

    /// Stable name used in tables, benches and reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Indexed => "indexed",
            Backend::Count => "count",
        }
    }

    /// Runs `protocol` from `inputs` to silence on this backend under
    /// uniform-random scheduling, returning report and final configuration.
    /// The RNG is the counter-based trial stream `(0, seed)` (see
    /// [`trial_rng`](crate::runner::trial_rng())), so the trajectory is a
    /// pure function of the seed. Budget exhaustion is a recorded finding
    /// (`stabilized == false`), not an error — matching [`run_trial`]'s
    /// convention.
    ///
    /// This is the protocol-agnostic entry point experiments use when they
    /// need the *terminal configuration* and not just `TrialResult` numbers
    /// (E7 inspects surviving self-loops, E8 checks bra-ket conservation).
    ///
    /// # Errors
    ///
    /// Propagates non-budget framework errors (scheduler misbehaviour).
    pub fn run_to_silence<P>(
        self,
        protocol: &P,
        inputs: &[P::Input],
        seed: u64,
        max_steps: u64,
    ) -> Result<SilenceOutcome<P>, FrameworkError>
    where
        P: Protocol,
    {
        match self {
            Backend::Indexed => {
                let population = Population::from_inputs(protocol, inputs);
                let check_interval = (population.len() as u64).max(16);
                let mut sim = Simulation::with_rng(
                    protocol,
                    population,
                    UniformPairScheduler::new(),
                    trial_rng(0, seed),
                );
                let stabilized = match sim.run_until_silent(max_steps, check_interval) {
                    Ok(_) => true,
                    Err(FrameworkError::MaxStepsExceeded { .. }) => false,
                    Err(e) => return Err(e),
                };
                Ok(SilenceOutcome {
                    report: sim.report(),
                    config: sim.into_population().to_count_config(),
                    stabilized,
                })
            }
            Backend::Count => {
                let config: CountConfig<P::State> =
                    inputs.iter().map(|i| protocol.input(i)).collect();
                let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
                    protocol,
                    config,
                    UniformCountScheduler::new(),
                    trial_rng(0, seed),
                );
                let stabilized = match engine.run_until_silent(max_steps) {
                    Ok(_) => true,
                    Err(FrameworkError::MaxStepsExceeded { .. }) => false,
                    Err(e) => return Err(e),
                };
                Ok(SilenceOutcome {
                    report: engine.report(),
                    config: engine.config(),
                    stabilized,
                })
            }
        }
    }

    /// Runs one uniform-random trial on this backend, drawing from the
    /// counter-based stream `(sweep_seed, seed)` ([`trial_rng`]) — the
    /// entry point [`TrialRunner`] fans out, and that experiments sweep over
    /// a `Params::backend` field. The result depends only on the key pair,
    /// never on threading or sweep order.
    ///
    /// # Errors
    ///
    /// Propagates non-budget framework errors (budget exhaustion is a
    /// recorded finding, as in [`run_trial`]).
    pub fn trial<P>(
        self,
        protocol: &P,
        inputs: &[P::Input],
        sweep_seed: u64,
        seed: u64,
        expected: Color,
        max_steps: u64,
    ) -> Result<TrialResult, FrameworkError>
    where
        P: Protocol<Output = Color>,
    {
        let rng = trial_rng(sweep_seed, seed);
        match self {
            Backend::Indexed => run_trial(
                protocol,
                inputs,
                UniformPairScheduler::new(),
                rng,
                expected,
                max_steps,
            ),
            Backend::Count => count_trial(protocol, inputs, rng, expected, max_steps, None),
        }
    }

    /// Runs to silence on this backend like
    /// [`run_to_silence`](Self::run_to_silence), invoking `observer` once
    /// per *state-changing* interaction with
    /// `(initiator_before, responder_before, initiator_after,
    /// responder_after)`, in execution order — the protocol-agnostic hook
    /// E4-style work measurements need.
    ///
    /// On the indexed backend the observer runs inline. On the count
    /// backend the engine records its change-point trace (state pairs) and
    /// the observer replays it afterwards, recomputing each outcome through
    /// the protocol — same observations, same order, `O(state changes)`
    /// memory.
    ///
    /// # Errors
    ///
    /// Propagates non-budget framework errors.
    pub fn run_observed<P, F>(
        self,
        protocol: &P,
        inputs: &[P::Input],
        seed: u64,
        max_steps: u64,
        mut observer: F,
    ) -> Result<SilenceOutcome<P>, FrameworkError>
    where
        P: Protocol,
        F: FnMut(&P::State, &P::State, &P::State, &P::State),
    {
        match self {
            Backend::Indexed => {
                let population = Population::from_inputs(protocol, inputs);
                let check_interval = (population.len() as u64).max(16);
                let mut sim = Simulation::with_rng(
                    protocol,
                    population,
                    UniformPairScheduler::new(),
                    trial_rng(0, seed),
                );
                let observe = |step: &pp_protocol::StepReport<P::State>| {
                    if step.changed() {
                        observer(&step.before.0, &step.before.1, &step.after.0, &step.after.1);
                    }
                };
                let stabilized =
                    match sim.run_until_silent_observed(max_steps, check_interval, observe) {
                        Ok(_) => true,
                        Err(FrameworkError::MaxStepsExceeded { .. }) => false,
                        Err(e) => return Err(e),
                    };
                Ok(SilenceOutcome {
                    report: sim.report(),
                    config: sim.into_population().to_count_config(),
                    stabilized,
                })
            }
            Backend::Count => {
                let config: CountConfig<P::State> =
                    inputs.iter().map(|i| protocol.input(i)).collect();
                let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
                    protocol,
                    config,
                    UniformCountScheduler::new(),
                    trial_rng(0, seed),
                );
                engine.record_trace();
                let stabilized = match engine.run_until_silent(max_steps) {
                    Ok(_) => true,
                    Err(FrameworkError::MaxStepsExceeded { .. }) => false,
                    Err(e) => return Err(e),
                };
                let trace = engine.take_trace().expect("recording was on");
                for (a, b) in trace.pairs() {
                    let (ta, tb) = protocol.transition(a, b);
                    observer(a, b, &ta, &tb);
                }
                Ok(SilenceOutcome {
                    report: engine.report(),
                    config: engine.config(),
                    stabilized,
                })
            }
        }
    }
}

/// Runs batches of independent seeded trials for one backend, fanning out
/// over OS threads (`std::thread::scope` via [`run_seeded`] — no external
/// thread-pool dependency).
///
/// # Determinism
///
/// Each trial draws from the counter-based stream `(sweep_seed, seed)`
/// ([`trial_rng`]), and count-engine slot numbering is canonical, so the
/// `TrialResult` of a seed is a pure function of `(protocol, inputs,
/// sweep_seed, seed, max_steps, backend)`: identical at 1, 2 or 64 worker
/// threads, under any seed order, and — for warm sweeps — whatever the
/// shared table happened to contain. This is asserted by the
/// `determinism` integration tests and CI's byte-for-byte report diff.
///
/// # Example
///
/// ```
/// use circles_core::{CirclesProtocol, Color};
/// use pp_analysis::trial::{Backend, TrialRunner};
///
/// let protocol = CirclesProtocol::new(2).unwrap();
/// let inputs: Vec<Color> = (0..40).map(|i| Color(u16::from(i < 15))).collect();
/// let results = TrialRunner::new(Backend::Count)
///     .seeds(8)
///     .run(&protocol, &inputs, Color(0));
/// assert!(results.iter().all(|r| r.stabilized && r.correct));
/// ```
#[derive(Debug, Clone)]
pub struct TrialRunner {
    backend: Backend,
    threads: usize,
    max_steps: u64,
    seeds: Vec<u64>,
    sweep_seed: u64,
    table_cache: Option<std::path::PathBuf>,
}

impl TrialRunner {
    /// Creates a runner for `backend` with all available CPUs, an
    /// effectively unlimited step budget, seeds `0..32` and sweep seed `0`.
    pub fn new(backend: Backend) -> Self {
        TrialRunner {
            backend,
            threads: default_threads(),
            max_steps: u64::MAX / 2,
            seeds: (0..32).collect(),
            sweep_seed: 0,
            table_cache: None,
        }
    }

    /// The backend this runner dispatches to.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Sets the number of worker threads (at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the per-trial interaction budget.
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Uses seeds `0..count`.
    pub fn seeds(mut self, count: u64) -> Self {
        self.seeds = (0..count).collect();
        self
    }

    /// Uses an explicit seed list.
    pub fn seed_list(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Selects the sweep-level stream key (default `0`): trials draw from
    /// the counter-based stream `(sweep_seed, seed)`, so two sweeps with
    /// different sweep seeds are statistically independent even over the
    /// same trial seeds.
    pub fn sweep_seed(mut self, sweep_seed: u64) -> Self {
        self.sweep_seed = sweep_seed;
        self
    }

    /// Sets the directory [`run_cached`](Self::run_cached) persists
    /// discovered transition tables in, keyed by protocol identity
    /// fingerprint — see [`TableCache`].
    /// Without this, `run_cached` falls back to the `PP_TABLE_CACHE`
    /// environment variable, and with neither set behaves exactly like
    /// [`run_with_table`](Self::run_with_table) on a fresh table.
    pub fn table_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.table_cache = Some(dir.into());
        self
    }

    /// Runs one trial per seed in parallel and returns results in seed
    /// order.
    ///
    /// # Panics
    ///
    /// Panics when a trial fails on a framework error (scheduler
    /// misbehaviour) — budget exhaustion is a recorded finding, not an
    /// error.
    pub fn run<P>(&self, protocol: &P, inputs: &[P::Input], expected: Color) -> Vec<TrialResult>
    where
        P: Protocol<Output = Color> + Sync,
        P::Input: Sync,
        P::State: Send + Sync,
    {
        let backend = self.backend;
        let max_steps = self.max_steps;
        let sweep = self.sweep_seed;
        run_seeded(&self.seeds, self.threads, |seed| {
            backend
                .trial(protocol, inputs, sweep, seed, expected, max_steps)
                .expect("trial failed")
        })
    }

    /// Like [`run`](Self::run) on the count backend, but warm-starting
    /// every trial from `table` and exporting each trial's discoveries back
    /// into it. When the table is empty the first seed runs alone (filling
    /// the table) before the rest fan out, so a sweep pays the one-time
    /// discovery exactly once; passing an already-warm table (e.g. from a
    /// previous sweep at the same `k`) skips even that.
    ///
    /// Falls back to [`run`](Self::run) semantics on the indexed backend,
    /// which has no discovery to share.
    ///
    /// # Panics
    ///
    /// Panics when a trial fails on a framework error.
    pub fn run_with_table<P>(
        &self,
        protocol: &P,
        inputs: &[P::Input],
        expected: Color,
        table: &TransitionTable<P>,
    ) -> Vec<TrialResult>
    where
        P: Protocol<Output = Color> + Sync,
        P::Input: Sync,
        P::State: Send + Sync,
    {
        if self.backend != Backend::Count {
            // No discovery to share on the indexed engine; run() cannot
            // re-enter the warm path for a non-Count backend.
            return self.run(protocol, inputs, expected);
        }
        let max_steps = self.max_steps;
        let sweep = self.sweep_seed;
        let mut results = Vec::with_capacity(self.seeds.len());
        let mut rest = &self.seeds[..];
        if table.is_empty() {
            if let Some((&first, tail)) = self.seeds.split_first() {
                results.push(
                    count_trial(
                        protocol,
                        inputs,
                        trial_rng(sweep, first),
                        expected,
                        max_steps,
                        Some((table.snapshot(), table)),
                    )
                    .expect("trial failed"),
                );
                rest = tail;
            }
        }
        // The sweep's epoch snapshot: one cheap handle captured here, shared
        // by every fanned-out trial. Trials still export their discoveries to
        // `table` as they finish, but none of them re-derive a snapshot — the
        // per-epoch view is what keeps warm materialization identical across
        // thread counts.
        let snap = table.snapshot();
        results.extend(run_seeded(rest, self.threads, |seed| {
            count_trial(
                protocol,
                inputs,
                trial_rng(sweep, seed),
                expected,
                max_steps,
                Some((Arc::clone(&snap), table)),
            )
            .expect("trial failed")
        }));
        results
    }

    /// Like [`run_with_table`](Self::run_with_table), but the table comes
    /// from (and returns to) the on-disk cache configured with
    /// [`table_cache_dir`](Self::table_cache_dir) (or ambiently via
    /// `PP_TABLE_CACHE`): a valid store for this protocol's identity
    /// fingerprint loads with **zero protocol calls** and every seed runs
    /// warm; a missing or invalid store degrades to cold discovery (invalid
    /// files are reported to stderr, never trusted), and the table is
    /// written back whenever the sweep grew it. Results are bit-identical
    /// in all three cases — the cache can only save time.
    ///
    /// With no cache configured this is exactly
    /// [`run_with_table`](Self::run_with_table) on a fresh table, and on the
    /// indexed backend (which has no discovery to persist) exactly
    /// [`run`](Self::run).
    ///
    /// The extra `Display`/`FromStr` bounds are the store's state codec;
    /// they are why this is a separate method rather than `run` behaviour.
    ///
    /// # Panics
    ///
    /// Panics when a trial fails on a framework error.
    pub fn run_cached<P>(
        &self,
        protocol: &P,
        inputs: &[P::Input],
        expected: Color,
    ) -> Vec<TrialResult>
    where
        P: Protocol<Output = Color> + Sync,
        P::Input: Sync,
        P::State: Send + Sync + std::fmt::Display + std::str::FromStr,
        <P::State as std::str::FromStr>::Err: std::fmt::Display,
    {
        let cache = match &self.table_cache {
            Some(dir) => Some(TableCache::new(dir.clone())),
            None => TableCache::from_env(),
        };
        let Some(cache) = cache else {
            return self.run_with_table(protocol, inputs, expected, &TransitionTable::new());
        };
        if self.backend != Backend::Count {
            return self.run(protocol, inputs, expected);
        }
        let (table, _status) = cache.load_or_empty(protocol);
        let loaded = (table.len(), table.active_pairs(), table.outcome_count());
        let results = self.run_with_table(protocol, inputs, expected, &table);
        if (table.len(), table.active_pairs(), table.outcome_count()) != loaded {
            // Best-effort persistence: a read-only cache dir degrades the
            // next sweep to cold discovery, nothing more.
            if let Err(e) = cache.store(protocol, &table) {
                eprintln!(
                    "table cache: could not persist {}: {e}",
                    cache.path_for(protocol).display()
                );
            }
        }
        results
    }

    /// Fans `f(seed)` out over this runner's seed list and thread pool,
    /// returning results in seed order — the escape hatch for experiments
    /// whose per-seed work is not a plain [`TrialResult`] trial (fault
    /// injection, model checking, …). The backend plays no role here; only
    /// the seed/thread configuration is used.
    pub fn run_with<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        run_seeded(&self.seeds, self.threads, f)
    }

    /// Wraps this runner in a [`SupervisedRunner`]: same seeds, threads and
    /// backend, but every trial is panic-isolated, optionally
    /// deadline-bounded, and optionally journaled for crash-tolerant sweep
    /// resume.
    pub fn supervised(self) -> SupervisedRunner {
        SupervisedRunner {
            runner: self,
            deadline: None,
            checkpoint_every: 1 << 12,
            max_attempts: 3,
            journal: None,
        }
    }
}

/// A [`TrialRunner`] with a supervision layer: per-trial `catch_unwind`
/// isolation (a panicking trial settles as
/// [`TrialVerdict::Poisoned`] instead of aborting the sweep), an optional
/// per-trial wall-clock [`deadline`](Self::deadline) with bounded
/// retry-from-checkpoint, and an optional JSONL results
/// [`journal`](Self::journal) that makes the sweep itself resumable: a
/// killed sweep re-run against the same journal skips every seed that
/// already settled.
///
/// Supervision never changes *what* a trial computes: completed verdicts
/// are bit-identical to the unsupervised [`TrialRunner::run`] results of
/// the same seeds (the deadline hook observes the engine without drawing
/// from its RNG, and checkpoint resume is exact).
#[derive(Debug, Clone)]
pub struct SupervisedRunner {
    runner: TrialRunner,
    deadline: Option<Duration>,
    checkpoint_every: u64,
    max_attempts: u32,
    journal: Option<SweepJournal>,
}

impl SupervisedRunner {
    /// Bounds each trial's wall-clock time. A trial that overruns is paused
    /// at its next checkpoint cadence and retried from that in-memory
    /// checkpoint with a fresh clock (progress is never lost — the retry
    /// continues bit-exactly where the deadline fired), up to
    /// [`max_attempts`](Self::max_attempts) total attempts, after which the
    /// seed settles as [`TrialVerdict::DeadlineExceeded`].
    ///
    /// Deadlines require checkpoint support and therefore apply on the
    /// [`Backend::Count`] backend only; on the indexed backend the deadline
    /// is ignored (trials run unbounded, as unsupervised).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the deadline-check cadence in state-*changing* interactions
    /// (default `4096`, clamped to at least 1): the engine offers a pause
    /// point to the deadline clock every this many changes. Smaller values
    /// bound overrun tighter; larger values cost less per change.
    pub fn checkpoint_every(mut self, changes: u64) -> Self {
        self.checkpoint_every = changes.max(1);
        self
    }

    /// Sets the total attempt budget per trial under a
    /// [`deadline`](Self::deadline) (default 3, clamped to at least 1).
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Journals every settled verdict to the JSONL file at `path` and, on a
    /// later run against the same path, skips seeds the journal already
    /// settles (see [`SweepJournal::settled_for`] for what "settled"
    /// means). Journal I/O failures degrade to an unjournaled sweep with a
    /// stderr report — they never fail trials.
    pub fn journal(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.journal = Some(SweepJournal::new(path));
        self
    }

    /// The wrapped runner's configuration.
    pub fn runner(&self) -> &TrialRunner {
        &self.runner
    }

    /// Runs one supervised trial per seed and returns verdicts in seed
    /// order. Trials run exactly as [`TrialRunner::run`] would (same
    /// `(sweep_seed, seed)` streams, same backend), so every
    /// [`Completed`](TrialVerdict::Completed) verdict is bit-identical to
    /// the unsupervised result of that seed.
    pub fn run<P>(&self, protocol: &P, inputs: &[P::Input], expected: Color) -> Vec<TrialVerdict>
    where
        P: Protocol<Output = Color> + Sync,
        P::Input: Sync,
        P::State: Send + Sync,
    {
        let backend = self.runner.backend;
        let max_steps = self.runner.max_steps;
        let sweep = self.runner.sweep_seed;
        let deadline = self.deadline.filter(|_| backend == Backend::Count);
        self.supervise(|seed| {
            let attempt = catch_unwind(AssertUnwindSafe(|| match deadline {
                Some(deadline) => supervised_count_trial(
                    protocol,
                    inputs,
                    sweep,
                    seed,
                    expected,
                    max_steps,
                    deadline,
                    self.checkpoint_every,
                    self.max_attempts,
                ),
                None => match backend.trial(protocol, inputs, sweep, seed, expected, max_steps) {
                    Ok(result) => TrialVerdict::Completed(result),
                    Err(e) => TrialVerdict::Poisoned {
                        message: format!("framework error: {e}"),
                    },
                },
            }));
            attempt.unwrap_or_else(|payload| TrialVerdict::Poisoned {
                message: panic_message(payload.as_ref()),
            })
        })
    }

    /// Fans `f(seed)` out like [`TrialRunner::run_with`], but panic-isolated
    /// and journaled: each call settles as `Completed(f(seed))` or, when `f`
    /// panics, as a [`Poisoned`](TrialVerdict::Poisoned) verdict carrying
    /// the panic message — the escape hatch for custom per-seed work that
    /// still wants supervision (and how the panic-isolation tests inject
    /// deliberate faults).
    pub fn run_with<F>(&self, f: F) -> Vec<TrialVerdict>
    where
        F: Fn(u64) -> TrialResult + Sync,
    {
        self.supervise(|seed| match catch_unwind(AssertUnwindSafe(|| f(seed))) {
            Ok(result) => TrialVerdict::Completed(result),
            Err(payload) => TrialVerdict::Poisoned {
                message: panic_message(payload.as_ref()),
            },
        })
    }

    /// The shared sweep skeleton: load settled seeds from the journal, fan
    /// the rest out, append fresh verdicts as they settle, and merge back
    /// into seed order (journaled verdicts win — they are what this sweep
    /// skipped).
    fn supervise<F>(&self, verdict_of: F) -> Vec<TrialVerdict>
    where
        F: Fn(u64) -> TrialVerdict + Sync,
    {
        let sweep = self.runner.sweep_seed;
        let settled: BTreeMap<u64, TrialVerdict> = match &self.journal {
            Some(journal) => journal.settled_for(sweep).unwrap_or_else(|e| {
                eprintln!(
                    "results journal: ignoring unreadable {}: {e}",
                    journal.path().display()
                );
                BTreeMap::new()
            }),
            None => BTreeMap::new(),
        };
        let todo: Vec<u64> = self
            .runner
            .seeds
            .iter()
            .copied()
            .filter(|seed| !settled.contains_key(seed))
            .collect();
        let appender = self.journal.as_ref().and_then(|journal| {
            journal
                .appender()
                .map_err(|e| {
                    eprintln!(
                        "results journal: cannot append to {}: {e}; sweep runs unjournaled",
                        journal.path().display()
                    );
                })
                .ok()
        });
        let fresh: BTreeMap<u64, TrialVerdict> = run_seeded(&todo, self.runner.threads, |seed| {
            let verdict = verdict_of(seed);
            if let Some(appender) = &appender {
                let entry = JournalEntry {
                    sweep_seed: sweep,
                    trial_seed: seed,
                    verdict: verdict.clone(),
                };
                if let Err(e) = appender.append(&entry) {
                    eprintln!("results journal: dropped entry for seed {seed}: {e}");
                }
            }
            (seed, verdict)
        })
        .into_iter()
        .collect();
        self.runner
            .seeds
            .iter()
            .map(|seed| {
                settled
                    .get(seed)
                    .or_else(|| fresh.get(seed))
                    .cloned()
                    .expect("every seed is journaled or freshly run")
            })
            .collect()
    }
}

/// Renders a caught panic payload as text (the two shapes `panic!` actually
/// produces, with an opaque fallback).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs a protocol whose output is a [`Color`] to silence under the given
/// indexed scheduler, drawing from `rng` (normally a [`trial_rng`] stream),
/// and compares the consensus with `expected`.
///
/// A run that exhausts `max_steps` without silence is reported with
/// `stabilized == false, correct == false` rather than as an error — for
/// baseline protocols, failing to stabilize is a *finding*.
///
/// # Errors
///
/// Propagates non-budget framework errors (scheduler misbehaviour).
pub fn run_trial<P, Sch, R>(
    protocol: &P,
    inputs: &[P::Input],
    scheduler: Sch,
    rng: R,
    expected: Color,
    max_steps: u64,
) -> Result<TrialResult, FrameworkError>
where
    P: Protocol<Output = Color>,
    Sch: Scheduler<P::State>,
    R: RngCore,
{
    let population = Population::from_inputs(protocol, inputs);
    let check_interval = (population.len() as u64).max(16);
    let mut sim = Simulation::with_rng(protocol, population, scheduler, rng);
    let outcome = sim.run_until_silent(max_steps, check_interval);
    TrialResult::from_run(outcome, sim.stats(), expected, max_steps)
}

/// A warm trial's view of a shared table: the epoch snapshot it reads and
/// the table it publishes its discoveries to.
type WarmStart<'t, P> = (
    Arc<TableSnapshot<<P as Protocol>::State>>,
    &'t TransitionTable<P>,
);

/// One count-backend trial drawing from `rng`: cold on the sparse index,
/// or — given an epoch `snapshot` of `table` — warm on the compact index,
/// exporting the trial's discoveries back into `table` afterwards (even on
/// budget exhaustion: partial structure is still valid structure). Slot
/// numbering is canonical, so a warm trial is bit-identical to the cold
/// trial of the same stream whatever the table contains; the compact rows
/// only keep the per-trial adjacency an order of magnitude under the flat
/// layout.
fn count_trial<P, R>(
    protocol: &P,
    inputs: &[P::Input],
    rng: R,
    expected: Color,
    max_steps: u64,
    warm: Option<WarmStart<'_, P>>,
) -> Result<TrialResult, FrameworkError>
where
    P: Protocol<Output = Color>,
    R: RngCore,
{
    let config: CountConfig<P::State> = inputs.iter().map(|i| protocol.input(i)).collect();
    let scheduler = UniformCountScheduler::new();
    match warm {
        None => {
            let mut engine =
                CountEngine::<_, _, SparseActivity, _>::with_rng(protocol, config, scheduler, rng);
            let outcome = engine.run_until_silent(max_steps);
            TrialResult::from_run(outcome, engine.stats(), expected, max_steps)
        }
        Some((snapshot, table)) => {
            let mut engine = CompactCountEngine::<_, _, R>::with_snapshot_rng(
                protocol, config, scheduler, rng, snapshot,
            );
            let outcome = engine.run_until_silent(max_steps);
            engine.export_to(table);
            TrialResult::from_run(outcome, engine.stats(), expected, max_steps)
        }
    }
}

/// A deadline-bounded count-backend trial: runs the same cold sparse engine
/// as [`Backend::Count`]'s [`trial`](Backend::trial) (so a completed
/// verdict is bit-identical to the unsupervised trial of the same
/// `(sweep_seed, seed)`), but offers a pause point to a wall-clock deadline
/// every `checkpoint_every` state changes. When the deadline fires, the
/// engine checkpoints in memory and the trial retries *from that
/// checkpoint* with a fresh clock — progress is never discarded — up to
/// `max_attempts` total attempts before settling as
/// [`TrialVerdict::DeadlineExceeded`].
///
/// The deadline hook only observes the engine (no RNG draws), and
/// checkpoint resume is exact, so a trial that pauses and resumes any
/// number of times still produces the uninterrupted trial's numbers.
#[allow(clippy::too_many_arguments)]
fn supervised_count_trial<P>(
    protocol: &P,
    inputs: &[P::Input],
    sweep_seed: u64,
    seed: u64,
    expected: Color,
    max_steps: u64,
    deadline: Duration,
    checkpoint_every: u64,
    max_attempts: u32,
) -> TrialVerdict
where
    P: Protocol<Output = Color>,
{
    let max_attempts = max_attempts.max(1);
    let every = checkpoint_every.max(1);
    let config: CountConfig<P::State> = inputs.iter().map(|i| protocol.input(i)).collect();
    let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
        protocol,
        config,
        UniformCountScheduler::new(),
        trial_rng(sweep_seed, seed),
    );
    let mut attempts = 1u32;
    loop {
        let start = Instant::now();
        let mut paused = None;
        let outcome = engine.run_until_silent_checkpointed(max_steps, every, |e| {
            if start.elapsed() >= deadline {
                paused = Some(e.checkpoint());
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        match outcome {
            Err(FrameworkError::Interrupted { .. }) => {
                if attempts >= max_attempts {
                    return TrialVerdict::DeadlineExceeded { attempts };
                }
                attempts += 1;
                let checkpoint = paused
                    .take()
                    .expect("the deadline hook always checkpoints before pausing");
                engine = CountEngine::resume(protocol, UniformCountScheduler::new(), &checkpoint)
                    .expect("an in-memory checkpoint of a live engine is always resumable");
            }
            outcome => {
                return match TrialResult::from_run(outcome, engine.stats(), expected, max_steps) {
                    Ok(result) => TrialVerdict::Completed(result),
                    Err(e) => TrialVerdict::Poisoned {
                        message: format!("framework error: {e}"),
                    },
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circles_core::CirclesProtocol;

    #[test]
    fn circles_trial_is_correct() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = [0, 0, 0, 1, 2].map(Color).to_vec();
        let result = run_trial(
            &protocol,
            &inputs,
            UniformPairScheduler::new(),
            trial_rng(0, 1),
            Color(0),
            1_000_000,
        )
        .unwrap();
        assert!(result.stabilized);
        assert!(result.correct);
        assert!(result.steps_to_consensus <= result.steps_to_silence + 1);
    }

    #[test]
    fn budget_exhaustion_is_a_finding_not_an_error() {
        let protocol = CirclesProtocol::new(4).unwrap();
        let inputs: Vec<Color> = (0..64).map(|i| Color((i % 3) as u16)).collect();
        // Color 0 wins 22/21/21; budget of 3 steps cannot stabilize.
        let result = run_trial(
            &protocol,
            &inputs,
            UniformPairScheduler::new(),
            trial_rng(0, 2),
            Color(0),
            3,
        )
        .unwrap();
        assert!(!result.stabilized);
        assert!(!result.correct);
    }

    #[test]
    fn count_trial_matches_expectation() {
        let protocol = CirclesProtocol::new(2).unwrap();
        let inputs: Vec<Color> = (0..50).map(|i| Color(u16::from(i < 30))).collect();
        let result = Backend::Count
            .trial(&protocol, &inputs, 0, 3, Color(1), 10_000_000)
            .unwrap();
        assert!(result.stabilized);
        assert!(result.correct);
    }

    #[test]
    fn count_trial_budget_exhaustion_records_partial_stats() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..60).map(|i| Color((i % 3) as u16)).collect();
        let result = Backend::Count
            .trial(&protocol, &inputs, 0, 2, Color(0), 3)
            .unwrap();
        assert!(!result.stabilized);
        assert!(!result.correct);
        assert_eq!(result.steps_to_consensus, 3);
    }

    #[test]
    fn run_to_silence_exposes_the_terminal_configuration_on_both_backends() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..30).map(|i| Color(u16::from(i >= 20))).collect();
        for backend in Backend::ALL {
            let outcome = backend
                .run_to_silence(&protocol, &inputs, 5, 100_000_000)
                .unwrap();
            assert!(outcome.stabilized, "{} did not stabilize", backend.name());
            assert_eq!(outcome.report.consensus, Some(Color(0)));
            assert_eq!(outcome.config.n(), 30, "agents conserved");
            assert!(
                outcome.report.steps_to_silence <= outcome.report.steps,
                "silence cannot postdate the last step"
            );
        }
    }

    #[test]
    fn run_to_silence_budget_exhaustion_is_a_finding() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..60).map(|i| Color((i % 3) as u16)).collect();
        for backend in Backend::ALL {
            let outcome = backend.run_to_silence(&protocol, &inputs, 2, 3).unwrap();
            assert!(!outcome.stabilized, "{}", backend.name());
            assert_eq!(outcome.config.n(), 60);
        }
    }

    #[test]
    fn warm_runner_matches_cold_runner_results() {
        // Canonical slot order makes every warm trial bit-identical to the
        // cold trial of the same seed, whatever the shared table contains —
        // not merely drawn from the same distribution.
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..60).map(|i| Color(u16::from(i >= 40))).collect();
        let runner = TrialRunner::new(Backend::Count).seeds(6).threads(3);
        let cold = runner.run(&protocol, &inputs, Color(0));
        let table = TransitionTable::new();
        let warm = runner.run_with_table(&protocol, &inputs, Color(0), &table);
        assert_eq!(warm, cold, "warm sweep must replay the cold sweep");
        assert!(warm.iter().all(|r| r.stabilized && r.correct));
        assert!(!table.is_empty(), "sweep populated the shared table");
        assert!(table.active_pairs() > 0);
        // A second sweep over the warm table skips the serial first trial
        // and discovers nothing new.
        let before = table.len();
        let again = runner.run_with_table(&protocol, &inputs, Color(0), &table);
        assert_eq!(again, cold, "an already-warm table changes nothing");
        assert_eq!(table.len(), before, "warm sweep discovers nothing new");
    }

    #[test]
    fn warm_trial_replays_its_own_table_bit_identically() {
        // A warm trial re-run against the table a previous trial exported
        // must reproduce that trial's measurement exactly — the canonical
        // slot order contract, for any table contents.
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..50).map(|i| Color((i % 3) as u16)).collect();
        for seed in 0..5 {
            let table = TransitionTable::new();
            let warm_trial = || {
                let warm = Some((table.snapshot(), &table));
                count_trial(
                    &protocol,
                    &inputs,
                    trial_rng(0, seed),
                    Color(0),
                    u64::MAX / 2,
                    warm,
                )
                .unwrap()
            };
            let cold = warm_trial();
            let warm = warm_trial();
            assert_eq!(warm, cold, "seed {seed}");
        }
    }

    #[test]
    fn backend_trial_dispatches_both_engines() {
        let protocol = CirclesProtocol::new(2).unwrap();
        let inputs: Vec<Color> = (0..40).map(|i| Color(u16::from(i < 10))).collect();
        for backend in Backend::ALL {
            let result = backend
                .trial(&protocol, &inputs, 0, 4, Color(0), 100_000_000)
                .unwrap();
            assert!(result.stabilized && result.correct, "{}", backend.name());
        }
    }

    #[test]
    fn run_with_fans_out_in_seed_order() {
        let runner = TrialRunner::new(Backend::Count)
            .seed_list(vec![3, 1, 4])
            .threads(2);
        let out = runner.run_with(|seed| seed * 10);
        assert_eq!(out, vec![30, 10, 40]);
    }

    #[test]
    fn poisoned_trial_is_isolated_and_the_rest_match_a_clean_sweep() {
        // The robustness acceptance bar: a sweep with one deliberately
        // panicking trial completes with exactly one poisoned verdict, and
        // every other trial is bit-identical to the clean sweep.
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..60).map(|i| Color(u16::from(i >= 40))).collect();
        let runner = TrialRunner::new(Backend::Count).seeds(6).threads(3);
        let clean = runner.run(&protocol, &inputs, Color(0));
        let verdicts = runner.clone().supervised().run_with(|seed| {
            if seed == 3 {
                panic!("injected fault in seed 3");
            }
            Backend::Count
                .trial(&protocol, &inputs, 0, seed, Color(0), u64::MAX / 2)
                .expect("trial failed")
        });
        assert_eq!(verdicts.len(), 6);
        for (i, verdict) in verdicts.iter().enumerate() {
            if i == 3 {
                match verdict {
                    TrialVerdict::Poisoned { message } => {
                        assert!(message.contains("injected fault"), "{message}");
                    }
                    other => panic!("seed 3 must poison, got {other:?}"),
                }
            } else {
                assert_eq!(
                    verdict.result(),
                    Some(&clean[i]),
                    "seed {i} must match the clean sweep bit for bit"
                );
            }
        }
    }

    #[test]
    fn supervised_run_matches_unsupervised_with_and_without_a_deadline() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..60).map(|i| Color((i % 3) as u16)).collect();
        let runner = TrialRunner::new(Backend::Count).seeds(5).threads(2);
        let clean = runner.run(&protocol, &inputs, Color(0));
        // No deadline: the plain Backend::trial path.
        let plain = runner
            .clone()
            .supervised()
            .run(&protocol, &inputs, Color(0));
        // Generous deadline: the checkpointed-driver path, never firing.
        let bounded = runner
            .clone()
            .supervised()
            .deadline(Duration::from_secs(3600))
            .checkpoint_every(16)
            .run(&protocol, &inputs, Color(0));
        for (label, verdicts) in [("plain", &plain), ("deadline", &bounded)] {
            for (i, verdict) in verdicts.iter().enumerate() {
                assert_eq!(verdict.result(), Some(&clean[i]), "{label} seed {i}");
            }
        }
    }

    #[test]
    fn deadline_retry_resumes_from_checkpoint_and_still_completes_exactly() {
        // A zero deadline fires at every cadence point, so the trial only
        // finishes through repeated resume-from-checkpoint — and must still
        // produce the uninterrupted trial's exact numbers.
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..50).map(|i| Color((i % 3) as u16)).collect();
        let clean = Backend::Count
            .trial(&protocol, &inputs, 0, 1, Color(0), u64::MAX / 2)
            .unwrap();
        let verdict = supervised_count_trial(
            &protocol,
            &inputs,
            0,
            1,
            Color(0),
            u64::MAX / 2,
            Duration::ZERO,
            40,
            100_000,
        );
        assert_eq!(verdict.result(), Some(&clean));
    }

    #[test]
    fn deadline_give_up_is_a_typed_verdict_with_the_attempt_count() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let inputs: Vec<Color> = (0..60).map(|i| Color((i % 3) as u16)).collect();
        let verdict = supervised_count_trial(
            &protocol,
            &inputs,
            0,
            2,
            Color(0),
            u64::MAX / 2,
            Duration::ZERO,
            1,
            2,
        );
        assert_eq!(verdict, TrialVerdict::DeadlineExceeded { attempts: 2 });
    }

    #[test]
    fn journaled_sweep_resumes_without_recomputing_settled_seeds() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path =
            std::env::temp_dir().join(format!("pp-supervised-resume-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let protocol = CirclesProtocol::new(2).unwrap();
        let inputs: Vec<Color> = (0..40).map(|i| Color(u16::from(i < 10))).collect();
        let supervised = TrialRunner::new(Backend::Count)
            .seeds(5)
            .threads(2)
            .supervised()
            .journal(&path);
        let computed = AtomicUsize::new(0);
        let trial = |seed: u64| {
            computed.fetch_add(1, Ordering::Relaxed);
            Backend::Count
                .trial(&protocol, &inputs, 0, seed, Color(0), u64::MAX / 2)
                .expect("trial failed")
        };
        let first = supervised.run_with(trial);
        assert_eq!(computed.load(Ordering::Relaxed), 5);
        // A "crashed and restarted" sweep: same journal, same seeds — every
        // settled seed is skipped, and the merged verdicts are identical.
        let second = supervised.run_with(trial);
        assert_eq!(
            computed.load(Ordering::Relaxed),
            5,
            "journaled seeds must not recompute"
        );
        assert_eq!(second, first);
        // Widening the sweep only computes the new seeds.
        let widened = TrialRunner::new(Backend::Count)
            .seeds(7)
            .threads(2)
            .supervised()
            .journal(&path)
            .run_with(trial);
        assert_eq!(computed.load(Ordering::Relaxed), 7);
        assert_eq!(&widened[..5], &first[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn runner_backends_agree_on_an_easy_race() {
        let protocol = CirclesProtocol::new(2).unwrap();
        let inputs: Vec<Color> = (0..40).map(|i| Color(u16::from(i >= 30))).collect();
        for backend in Backend::ALL {
            let results =
                TrialRunner::new(backend)
                    .seeds(6)
                    .threads(2)
                    .run(&protocol, &inputs, Color(0));
            assert_eq!(results.len(), 6);
            assert!(
                results.iter().all(|r| r.stabilized && r.correct),
                "{} backend failed an easy 75/25 race",
                backend.name()
            );
        }
    }
}

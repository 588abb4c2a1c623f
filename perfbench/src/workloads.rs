//! The benchmark's workloads. Each runs one repetition ("rep") at a time,
//! in a plain form (the program's own types) and a traced form (the same
//! calls over the [`probe`](crate::probe) wrappers), so the two can be
//! compared report for report.
//!
//! Inputs are a pure function of `(seed, rep)`: the margin workload with its
//! colors rotated by `seed mod k` (so the winner moves with the seed), and
//! the Philox trial stream `(seed, rep)` — or, for the sweep, the sweep seed
//! derived from both.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use circles_core::{CirclesProtocol, CirclesState, Color, GreedyDecomposition};
use pp_analysis::runner::trial_rng;
use pp_analysis::trial::{Backend, TrialResult, TrialRunner};
use pp_analysis::workloads::{margin_counts, margin_workload, true_winner};
use pp_protocol::{
    quotient_table, run_checkpoint, transition_store, Activity, CompactActivity, CountConfig,
    CountEngine, CountScheduler, EnumerableProtocol, Protocol, SparseActivity, TableSnapshot,
    TransitionTable, UniformCountScheduler,
};
use rand::rngs::Philox4x32;

use crate::probe::{self, Counting, Ctx, Tally, Timed, TimedScheduler};

/// Step budget of every run: effectively unlimited, as in `TrialRunner`.
const MAX_STEPS: u64 = u64::MAX / 2;

/// A Circles engine run to silence from the margin workload, cold.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub k: u16,
    pub n: u64,
}

/// A warm sweep through `TrialRunner::run_with_table` from an empty table.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec {
    pub k: u16,
    pub n: usize,
    pub seeds: u64,
    pub threads: usize,
}

/// Quotient table build, store save and load, a checkpointed warm run, and
/// a resume from its last checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct StoreSpec {
    pub k: u16,
    pub n: usize,
    /// State changes between checkpoint saves.
    pub every: u64,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Engine(EngineSpec),
    Sweep(SweepSpec),
    Store(StoreSpec),
}

/// Every workload by name, with its parameters. `BENCHMARK.json` lists the
/// same names.
pub const WORKLOADS: [(&str, Workload); 4] = [
    (
        "large_n_k3",
        Workload::Engine(EngineSpec { k: 3, n: 4_000_000 }),
    ),
    (
        "dense_k10",
        Workload::Engine(EngineSpec { k: 10, n: 100_000 }),
    ),
    (
        "warm_sweep_k16",
        Workload::Sweep(SweepSpec {
            k: 16,
            n: 3_000,
            seeds: 8,
            threads: 2,
        }),
    ),
    (
        "store_k24",
        Workload::Store(StoreSpec {
            k: 24,
            n: 3_000,
            every: 1_000,
        }),
    ),
];

/// The per-layer metrics of a traced run, with their units. Bypassed layers
/// report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.transition_calls", "count"),
    ("protocol.transition_calls.range", "count"),
    ("protocol.transition_s", "s"),
    ("scheduler.next_change_s", "s"),
    ("scheduler.skipped_per_change", "count"),
    ("activity.sample_change_s", "s"),
    ("activity.sample_change_calls", "count"),
    ("activity.count_changed_s", "s"),
    ("activity.count_changed_calls", "count"),
    ("activity.settle_s", "s"),
    ("activity.settle_calls", "count"),
    ("activity.in_walk_len", "count"),
    ("activity.add_slot_cold_s", "s"),
    ("activity.add_slot_cold_calls", "count"),
    ("activity.add_slot_warm_s", "s"),
    ("activity.add_slot_warm_calls", "count"),
    ("activity.adjacency_bytes", "bytes"),
    ("activity.active_pairs", "count"),
    ("count_engine.self_s", "s"),
    ("count_engine.state_changes", "count"),
    ("count_engine.steps", "count"),
    ("count_engine.slots", "count"),
    ("transition_table.export_s", "s"),
    ("transition_table.export_transition_calls", "count"),
    ("transition_table.snapshot_s", "s"),
    ("transition_table.states", "count"),
    ("transition_table.active_pairs", "count"),
    ("transition_table.outcomes", "count"),
    ("quotient.build_s", "s"),
    ("transition_store.save_s", "s"),
    ("transition_store.load_s", "s"),
    ("transition_store.file_bytes", "bytes"),
    ("run_checkpoint.save_s", "s"),
    ("run_checkpoint.saves", "count"),
    ("run_checkpoint.file_bytes", "bytes"),
    ("run_checkpoint.load_s", "s"),
    ("run_checkpoint.resume_s", "s"),
    ("trial.first_seed_s", "s"),
    ("trial.fanout_s", "s"),
    ("trial.trial_s.p50", "s"),
    ("trial.trial_s.max", "s"),
    ("trial.thread_util", "ratio"),
    ("trace.overhead_x", "x"),
];

/// One repetition of a workload.
#[derive(Debug, Default)]
pub struct Rep {
    /// Input generation plus engine or table construction, per set-up
    /// (plain reps only).
    pub setup_s: f64,
    /// Wall time of the timed section.
    pub wall_s: f64,
    /// State changes executed by the rep's run reports.
    pub changes: u64,
    /// Runs or trials attempted, and how many failed a correctness check.
    pub attempted: u64,
    pub failed: u64,
    /// Debug rendering of every report the rep produced, in order: plain
    /// and traced reps of the same `(seed, rep)` must render identically.
    pub reports: String,
    /// Per-layer metrics (traced reps only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Rep {
    fn fail(&mut self, what: impl std::fmt::Display) {
        eprintln!("correctness check failed: {what}");
        self.failed += 1;
    }
}

impl Workload {
    /// One plain rep. With `batch_setup`, set-up is repeated for at least
    /// [`SETUP_MIN_S`] and averaged, so a short set-up still reads above
    /// clock noise.
    pub fn plain(self, seed: u64, rep: u64, batch_setup: bool, tmp: &Path) -> Rep {
        match self {
            Workload::Engine(spec) => {
                let protocol = circles(spec.k);
                engine_rep::<_, UniformCountScheduler, SparseActivity>(
                    &protocol,
                    spec,
                    seed,
                    rep,
                    batch_setup,
                )
                .0
            }
            Workload::Sweep(spec) => sweep_plain(spec, seed, rep, batch_setup),
            Workload::Store(spec) => {
                let protocol = circles(spec.k);
                store_rep::<_, UniformCountScheduler, CompactActivity>(
                    &protocol,
                    spec,
                    seed,
                    rep,
                    batch_setup,
                    tmp,
                )
                .0
            }
        }
    }

    /// One traced rep over the probe wrappers, with its per-layer metrics.
    pub fn traced(self, seed: u64, rep: u64, tmp: &Path) -> Rep {
        let protocol = |k| Counting { inner: circles(k) };
        probe::calibrate();
        probe::take();
        match self {
            Workload::Engine(spec) => {
                let (mut out, trace) = engine_rep::<_, TimedScheduler, Timed<SparseActivity>>(
                    &protocol(spec.k),
                    spec,
                    seed,
                    rep,
                    false,
                );
                out.layers = trace.layers().0;
                out
            }
            Workload::Sweep(spec) => sweep_traced(&protocol(spec.k), spec, seed, rep),
            Workload::Store(spec) => {
                let (mut out, trace) = store_rep::<_, TimedScheduler, Timed<CompactActivity>>(
                    &protocol(spec.k),
                    spec,
                    seed,
                    rep,
                    false,
                    tmp,
                );
                out.layers = trace.layers().0;
                out
            }
        }
    }
}

fn circles(k: u16) -> CirclesProtocol {
    CirclesProtocol::new(k).expect("workloads use k > 0")
}

/// Rotates color `c` by `seed mod k`.
fn rotate(c: Color, k: u16, seed: u64) -> Color {
    Color(((u64::from(c.0) + seed % u64::from(k)) % u64::from(k)) as u16)
}

/// The margin workload at count level (10% margin), rotated by the seed,
/// and its true winner.
fn margin_config<P>(protocol: &P, n: u64, k: u16, seed: u64) -> (CountConfig<CirclesState>, Color)
where
    P: Protocol<State = CirclesState, Input = Color>,
{
    let counts: BTreeMap<Color, usize> = margin_counts(n, k, n / 10)
        .into_iter()
        .map(|(c, m)| (rotate(c, k, seed), m as usize))
        .collect();
    let winner = GreedyDecomposition::from_counts(&counts, k)
        .expect("valid workload")
        .winner()
        .expect("workload has a unique winner");
    let mut config = CountConfig::new();
    for (c, &m) in &counts {
        config.insert(protocol.input(c), m);
    }
    (config, winner)
}

/// The margin workload as an input vector (10% margin), rotated by the
/// seed, and its true winner.
fn margin_inputs(n: usize, k: u16, seed: u64) -> (Vec<Color>, Color) {
    let inputs: Vec<Color> = margin_workload(n, k, n / 10)
        .into_iter()
        .map(|c| rotate(c, k, seed))
        .collect();
    let winner = true_winner(&inputs, k);
    (inputs, winner)
}

/// Batched set-ups repeat until this many seconds have passed.
pub const SETUP_MIN_S: f64 = 0.05;

/// Times `setup`, repeated for at least [`SETUP_MIN_S`] when `batch` is
/// set, and returns the last result with the mean time of one set-up.
fn timed_setup<T>(batch: bool, mut setup: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut runs = 1u32;
    while batch && start.elapsed().as_secs_f64() < SETUP_MIN_S {
        black_box(setup());
        runs += 1;
    }
    let out = setup();
    (out, start.elapsed().as_secs_f64() / f64::from(runs))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Everything the probes and the benchmark's own spans saw in one rep.
#[derive(Debug, Default)]
struct Trace {
    tally: Tally,
    changes: u64,
    steps: u64,
    slots: u64,
    adjacency_bytes: u64,
    active_pairs: u64,
    /// Spans timed by the benchmark itself, by per-layer metric name.
    spans: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Runs `f`, an engine run, closing its last sampled change after it,
    /// and collects the probes fired since the last collection.
    fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let out = f();
        probe::close_window();
        self.absorb();
        out
    }

    /// Collects the probes fired since the last collection.
    fn absorb(&mut self) {
        self.tally.merge(&probe::take());
    }

    fn span(&mut self, name: &'static str, seconds: f64) {
        *self.spans.entry(name).or_insert(0.0) += seconds;
    }

    /// Records an engine's end-of-run counters.
    fn note<P, CS, A, R>(&mut self, engine: &CountEngine<'_, P, CS, A, R>)
    where
        P: Protocol,
        CS: CountScheduler<P::State>,
        A: Activity,
        R: rand::RngCore,
    {
        let stats = engine.stats();
        self.changes += stats.state_changes;
        self.steps += stats.steps;
        self.slots = self.slots.max(engine.slots() as u64);
        self.adjacency_bytes = self.adjacency_bytes.max(engine.adjacency_bytes() as u64);
        self.active_pairs = self.active_pairs.max(engine.active_pairs() as u64);
    }

    fn merge(&mut self, other: &Trace) {
        self.tally.merge(&other.tally);
        self.changes += other.changes;
        self.steps += other.steps;
        self.slots = self.slots.max(other.slots);
        self.adjacency_bytes = self.adjacency_bytes.max(other.adjacency_bytes);
        self.active_pairs = self.active_pairs.max(other.active_pairs);
        for (name, s) in &other.spans {
            *self.spans.entry(name).or_insert(0.0) += s;
        }
    }

    fn layers(&self) -> Layers {
        let t = &self.tally;
        let mut l = Layers::zero();
        let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
        l.set("protocol.transition_calls", t.transition_calls() as f64);
        l.set("protocol.transition_s", t.transition_s());
        l.set("scheduler.next_change_s", t.scheduler_self_s());
        l.set(
            "scheduler.skipped_per_change",
            per(t.skipped as f64, self.changes),
        );
        l.set("activity.sample_change_s", t.sample_change.seconds());
        l.set("activity.sample_change_calls", t.sample_change.calls as f64);
        l.set("activity.count_changed_s", t.count_changed.seconds());
        l.set("activity.count_changed_calls", t.count_changed.calls as f64);
        l.set("activity.settle_s", t.settle.seconds());
        l.set("activity.settle_calls", t.settle.calls as f64);
        l.set(
            "activity.in_walk_len",
            per(t.in_walk_sum as f64, t.count_changed.timed),
        );
        l.set("activity.add_slot_cold_s", t.add_slot_cold.seconds());
        l.set("activity.add_slot_cold_calls", t.add_slot_cold.calls as f64);
        l.set("activity.add_slot_warm_s", t.add_slot_warm.seconds());
        l.set("activity.add_slot_warm_calls", t.add_slot_warm.calls as f64);
        l.set("activity.adjacency_bytes", self.adjacency_bytes as f64);
        l.set("activity.active_pairs", self.active_pairs as f64);
        l.set("count_engine.self_s", t.engine_self_s());
        l.set("count_engine.state_changes", self.changes as f64);
        l.set("count_engine.steps", self.steps as f64);
        l.set("count_engine.slots", self.slots as f64);
        l.set(
            "transition_table.export_transition_calls",
            t.transition[Ctx::Export as usize].calls as f64,
        );
        for (&name, &s) in &self.spans {
            l.set(name, s);
        }
        l
    }
}

/// Per-layer metric values, every name of [`PER_LAYER`] present.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn zero() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }
}

/// A cold engine run to silence: `large_n_k3` and `dense_k10`.
fn engine_rep<P, CS, A>(
    protocol: &P,
    spec: EngineSpec,
    seed: u64,
    rep: u64,
    batch_setup: bool,
) -> (Rep, Trace)
where
    P: Protocol<State = CirclesState, Input = Color, Output = Color>,
    CS: CountScheduler<CirclesState> + Default,
    A: Activity,
{
    let ((mut engine, winner), setup_s) = timed_setup(batch_setup, || {
        let (config, winner) = margin_config(protocol, spec.n, spec.k, seed);
        let engine = CountEngine::<P, CS, A, Philox4x32>::with_rng(
            protocol,
            config,
            CS::default(),
            trial_rng(seed, rep),
        );
        (engine, winner)
    });
    let mut trace = Trace::default();
    let (outcome, wall_s) = timed(|| trace.run(|| engine.run_until_silent(MAX_STEPS)));
    trace.note(&engine);
    let mut out = Rep {
        setup_s,
        wall_s,
        changes: engine.stats().state_changes,
        attempted: 1,
        ..Rep::default()
    };
    match outcome {
        Ok(report) => {
            if report.consensus != Some(winner) {
                out.fail(format!(
                    "consensus {:?} is not the true winner {winner}",
                    report.consensus
                ));
            }
            out.reports = format!("{report:?}");
        }
        Err(e) => out.fail(format!("run did not reach silence: {e}")),
    }
    (out, trace)
}

/// The sweep seed of rep `rep` under workload seed `seed`.
fn sweep_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_mul(1 << 20).wrapping_add(rep)
}

fn check_trials(out: &mut Rep, results: &[TrialResult]) {
    out.attempted = results.len() as u64;
    out.changes = results.iter().map(|r| r.state_changes).sum();
    for (i, r) in results.iter().enumerate() {
        if !(r.stabilized && r.correct) {
            out.fail(format!("trial {i} ended {r:?}"));
        }
    }
    out.reports = format!("{results:?}");
}

/// `warm_sweep`, plain: `TrialRunner::run_with_table` from an empty table.
fn sweep_plain(spec: SweepSpec, seed: u64, rep: u64, batch_setup: bool) -> Rep {
    let protocol = circles(spec.k);
    let ((inputs, expected, runner, table), setup_s) = timed_setup(batch_setup, || {
        let (inputs, expected) = margin_inputs(spec.n, spec.k, seed);
        let runner = TrialRunner::new(Backend::Count)
            .threads(spec.threads)
            .seeds(spec.seeds)
            .sweep_seed(sweep_seed(seed, rep));
        (inputs, expected, runner, TransitionTable::new())
    });
    let (results, wall_s) = timed(|| runner.run_with_table(&protocol, &inputs, expected, &table));
    let mut out = Rep {
        setup_s,
        wall_s,
        ..Rep::default()
    };
    check_trials(&mut out, &results);
    out
}

/// One warm trial as `run_with_table` runs it: an engine warm-started from
/// `snap`, run to silence, its discoveries exported to `table`.
fn warm_trial<P, CS, A>(
    protocol: &P,
    inputs: &[Color],
    expected: Color,
    rng: Philox4x32,
    snap: Arc<TableSnapshot<CirclesState>>,
    table: &TransitionTable<P>,
) -> (TrialResult, Trace)
where
    P: Protocol<State = CirclesState, Input = Color, Output = Color>,
    CS: CountScheduler<CirclesState> + Default,
    A: Activity,
{
    let mut trace = Trace::default();
    let config: CountConfig<CirclesState> = inputs.iter().map(|i| protocol.input(i)).collect();
    let mut engine = CountEngine::<P, CS, A, Philox4x32>::with_snapshot_rng(
        protocol,
        config,
        CS::default(),
        rng,
        snap,
    );
    let outcome = trace.run(|| engine.run_until_silent(MAX_STEPS));
    trace.note(&engine);
    let result = match outcome {
        Ok(report) => TrialResult {
            steps_to_silence: report.steps_to_silence,
            steps_to_consensus: report.steps_to_consensus,
            state_changes: report.state_changes,
            stabilized: true,
            correct: report.consensus == Some(expected),
        },
        Err(e) => {
            eprintln!("trial ended without silence: {e}");
            TrialResult {
                steps_to_silence: engine.stats().last_change_step,
                steps_to_consensus: MAX_STEPS,
                state_changes: engine.stats().state_changes,
                stabilized: false,
                correct: false,
            }
        }
    };
    let ((), export_s) = timed(|| probe::in_ctx(Ctx::Export, || engine.export_to(table)));
    trace.span("transition_table.export_s", export_s);
    trace.absorb();
    (result, trace)
}

/// `warm_sweep`, traced: the calls `run_with_table` makes — the first seed
/// alone against the empty table, one epoch snapshot, then the rest fanned
/// out through `TrialRunner::run_with` — over the probe wrappers.
fn sweep_traced(protocol: &Counting<CirclesProtocol>, spec: SweepSpec, seed: u64, rep: u64) -> Rep {
    let (inputs, expected) = margin_inputs(spec.n, spec.k, seed);
    let sweep = sweep_seed(seed, rep);
    let table = TransitionTable::new();
    let start = Instant::now();

    let ((first, mut trace), first_seed_s) = timed(|| {
        warm_trial::<_, TimedScheduler, Timed<CompactActivity>>(
            protocol,
            &inputs,
            expected,
            trial_rng(sweep, 0),
            table.snapshot(),
            &table,
        )
    });
    let (snap, snapshot_s) = timed(|| table.snapshot());
    let runner = TrialRunner::new(Backend::Count)
        .threads(spec.threads)
        .seed_list((1..spec.seeds).collect());
    let (fanned, fanout_s) = timed(|| {
        runner.run_with(|trial| {
            let ((result, trace), s) = timed(|| {
                warm_trial::<_, TimedScheduler, Timed<CompactActivity>>(
                    protocol,
                    &inputs,
                    expected,
                    trial_rng(sweep, trial),
                    Arc::clone(&snap),
                    &table,
                )
            });
            (result, trace, s)
        })
    });
    let wall_s = start.elapsed().as_secs_f64();

    let mut results = vec![first];
    let mut trial_s = Vec::with_capacity(fanned.len());
    for (result, t, s) in &fanned {
        results.push(*result);
        trace.merge(t);
        trial_s.push(*s);
    }
    trace.span("transition_table.snapshot_s", snapshot_s);
    trace.span("trial.first_seed_s", first_seed_s);
    trace.span("trial.fanout_s", fanout_s);
    let mut out = Rep {
        wall_s,
        ..Rep::default()
    };
    check_trials(&mut out, &results);
    let mut layers = trace.layers();
    layers.set("transition_table.states", table.len() as f64);
    layers.set("transition_table.active_pairs", table.active_pairs() as f64);
    layers.set("transition_table.outcomes", table.outcome_count() as f64);
    layers.set("trial.trial_s.p50", crate::median(&trial_s));
    layers.set(
        "trial.trial_s.max",
        trial_s.iter().copied().fold(0.0, f64::max),
    );
    let busy: f64 = trial_s.iter().sum();
    let threads = spec.threads.min(trial_s.len()).max(1) as f64;
    layers.set("trial.thread_util", busy / (threads * fanout_s));
    out.layers = layers.0;
    out
}

/// `store`: quotient table build, `.ppts` save and load, a warm run from
/// the loaded table saving a `.pprc` every `spec.every` changes, then a
/// resume from the last checkpoint run to silence.
fn store_rep<P, CS, A>(
    protocol: &P,
    spec: StoreSpec,
    seed: u64,
    rep: u64,
    batch_setup: bool,
    tmp: &Path,
) -> (Rep, Trace)
where
    P: EnumerableProtocol<State = CirclesState, Input = Color, Output = Color>,
    CS: CountScheduler<CirclesState> + Default,
    A: Activity,
{
    let ((config, expected), setup_s) = timed_setup(batch_setup, || {
        let (inputs, expected) = margin_inputs(spec.n, spec.k, seed);
        let config: CountConfig<CirclesState> = inputs.iter().map(|i| protocol.input(i)).collect();
        (config, expected)
    });
    let mut trace = Trace::default();
    let start = Instant::now();
    let checked =
        store_steps::<P, CS, A>(protocol, spec, config, expected, seed, rep, tmp, &mut trace);
    let wall_s = start.elapsed().as_secs_f64();
    let mut out = Rep {
        setup_s,
        wall_s,
        attempted: 1,
        ..Rep::default()
    };
    match checked {
        Ok((changes, reports)) => {
            out.changes = changes;
            out.reports = reports;
        }
        Err(e) => out.fail(e),
    }
    (out, trace)
}

#[allow(clippy::too_many_arguments)]
fn store_steps<P, CS, A>(
    protocol: &P,
    spec: StoreSpec,
    config: CountConfig<CirclesState>,
    expected: Color,
    seed: u64,
    rep: u64,
    tmp: &Path,
    trace: &mut Trace,
) -> Result<(u64, String), String>
where
    P: EnumerableProtocol<State = CirclesState, Input = Color, Output = Color>,
    CS: CountScheduler<CirclesState> + Default,
    A: Activity,
{
    let store_path = tmp.join("table.ppts");
    let ck_path = tmp.join("run.pprc");

    let (built, build_s) = timed(|| probe::in_ctx(Ctx::Other, || quotient_table(protocol)));
    let built = built.map_err(|e| format!("quotient build: {e}"))?;
    trace.span("quotient.build_s", build_s);
    let (meta, save_s) = timed(|| transition_store::save_quotient(&built, protocol, &store_path));
    let meta = meta.map_err(|e| format!("store save: {e}"))?;
    trace.span("transition_store.save_s", save_s);
    trace.span("transition_store.file_bytes", meta.file_bytes as f64);
    let (loaded, load_s) = timed(|| transition_store::load(protocol, &store_path));
    let loaded: TransitionTable<P> = loaded.map_err(|e| format!("store load: {e}"))?;
    trace.span("transition_store.load_s", load_s);
    let shape = |t: &TransitionTable<P>| (t.len(), t.active_pairs(), t.outcome_count());
    if shape(&loaded) != shape(&built) {
        return Err(format!(
            "loaded table (states, pairs, outcomes) {:?} differs from the built {:?}",
            shape(&loaded),
            shape(&built)
        ));
    }
    trace.span("transition_table.states", built.len() as f64);
    trace.span("transition_table.active_pairs", built.active_pairs() as f64);
    trace.span("transition_table.outcomes", built.outcome_count() as f64);
    let (snap, snapshot_s) = timed(|| loaded.snapshot());
    trace.span("transition_table.snapshot_s", snapshot_s);

    let mut engine = CountEngine::<P, CS, A, Philox4x32>::with_snapshot_rng(
        protocol,
        config,
        CS::default(),
        trial_rng(seed, rep),
        Arc::clone(&snap),
    );
    let (mut saves, mut hook_s, mut ck_bytes) = (0u64, 0.0, 0u64);
    let mut save_error = None;
    let outcome = trace.run(|| {
        engine.run_until_silent_checkpointed(MAX_STEPS, spec.every, |e| {
            probe::close_window();
            let (saved, s) = timed(|| run_checkpoint::save(&e.checkpoint(), &ck_path));
            hook_s += s;
            match saved {
                Ok(meta) => {
                    saves += 1;
                    ck_bytes = meta.file_bytes;
                    ControlFlow::Continue(())
                }
                Err(err) => {
                    save_error = Some(err.to_string());
                    ControlFlow::Break(())
                }
            }
        })
    });
    trace.note(&engine);
    if let Some(e) = save_error {
        return Err(format!("checkpoint save: {e}"));
    }
    let report = outcome.map_err(|e| format!("warm run did not reach silence: {e}"))?;
    if report.consensus != Some(expected) {
        return Err(format!(
            "consensus {:?} is not the true winner {expected}",
            report.consensus
        ));
    }
    if saves == 0 {
        return Err("the run ended before its first checkpoint".into());
    }
    trace.span("run_checkpoint.save_s", hook_s);
    trace.span("run_checkpoint.saves", saves as f64);
    trace.span("run_checkpoint.file_bytes", ck_bytes as f64);

    let (ck, ck_load_s) = timed(|| run_checkpoint::load(protocol, &ck_path));
    let ck = ck.map_err(|e| format!("checkpoint load: {e}"))?;
    trace.span("run_checkpoint.load_s", ck_load_s);
    let (resumed, resume_s) = timed(|| {
        let mut resumed = CountEngine::<P, CS, A, Philox4x32>::resume_with_snapshot(
            protocol,
            CS::default(),
            &ck,
            snap,
        )
        .map_err(|e| format!("resume: {e}"))?;
        let report = trace.run(|| resumed.run_until_silent(MAX_STEPS));
        Ok::<_, String>(report)
    });
    trace.span("run_checkpoint.resume_s", resume_s);
    let resumed = resumed?.map_err(|e| format!("resumed run did not reach silence: {e}"))?;
    if resumed != report {
        return Err(format!(
            "resumed report {resumed:?} differs from the uninterrupted {report:?}"
        ));
    }
    Ok((report.state_changes, format!("{report:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `w` plain and traced on a few reps and asserts identical,
    /// correct reports and a complete set of per-layer metrics.
    fn traced_matches_plain(w: Workload) {
        let tmp = std::env::temp_dir().join(format!(
            "perfbench-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&tmp).unwrap();
        for (seed, rep) in [(0, 0), (5, 1)] {
            let plain = w.plain(seed, rep, true, &tmp);
            let traced = w.traced(seed, rep, &tmp);
            assert_eq!(plain.failed, 0);
            assert_eq!(traced.failed, 0);
            assert!(plain.changes > 0);
            assert!(!plain.reports.is_empty());
            assert_eq!(plain.reports, traced.reports, "seed {seed} rep {rep}");
            assert_eq!(traced.changes, plain.changes);
            assert_eq!(traced.layers.len(), PER_LAYER.len());
            assert_eq!(
                traced.layers["count_engine.state_changes"],
                plain.changes as f64
            );
            assert!(traced.layers["activity.settle_calls"] > 0.0);
        }
        std::fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn large_n_traced_matches_plain() {
        traced_matches_plain(Workload::Engine(EngineSpec { k: 3, n: 50_000 }));
    }

    #[test]
    fn dense_traced_matches_plain() {
        traced_matches_plain(Workload::Engine(EngineSpec { k: 10, n: 3_000 }));
    }

    #[test]
    fn sweep_traced_matches_plain() {
        traced_matches_plain(Workload::Sweep(SweepSpec {
            k: 6,
            n: 600,
            seeds: 4,
            threads: 2,
        }));
    }

    #[test]
    fn store_traced_matches_plain() {
        traced_matches_plain(Workload::Store(StoreSpec {
            k: 6,
            n: 600,
            every: 100,
        }));
    }

    #[test]
    fn counting_keeps_the_protocol_identity() {
        let plain = circles(7);
        let counted = Counting { inner: circles(7) };
        assert_eq!(
            transition_store::fingerprint(&counted),
            transition_store::fingerprint(&plain)
        );
        assert_eq!(counted.is_symmetric(), plain.is_symmetric());
        assert!(counted.color_quotient().is_some());
        assert_eq!(counted.fingerprint_param(), 7);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let protocol = circles(5);
        let (a, wa) = margin_config(&protocol, 1000, 5, 3);
        let (b, wb) = margin_config(&protocol, 1000, 5, 3);
        let (_, wc) = margin_config(&protocol, 1000, 5, 4);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!((wa, wb, wc), (Color(3), Color(3), Color(4)));
        let (inputs, winner) = margin_inputs(1000, 5, 7);
        assert_eq!(winner, Color(2));
        assert_eq!(true_winner(&inputs, 5), winner);
    }
}

//! Outside-in tracing: wrappers around the public layer traits, so the
//! traced run needs no instrumentation inside the program.
//!
//! - [`Counting`] wraps a [`Protocol`] and counts (and times) transition
//!   calls, attributed to the layer that made them ([`Ctx`]).
//! - [`Timed`] wraps an [`Activity`] index and times every boundary the
//!   engine calls: `sample_change`, `count_changed`, `settle` and the three
//!   slot-registration entry points.
//! - [`TimedScheduler`] wraps the [`UniformCountScheduler`] and times
//!   `next_change`, which holds the nested `sample_change` call.
//!
//! Every call is counted. Time is sampled by *change*: every
//! [`SAMPLE_EVERY`]-th `next_change` call, chosen by the call counter alone,
//! opens a window that lasts until the engine asks for its next change. In
//! a window every boundary call is timed, and the time between them — the
//! engine's own work: memo lookup, count and histogram updates — is the
//! engine's self time. Sampled totals are scaled by `calls / timed`. Timing
//! whole changes, rather than single calls, keeps the children and the gaps
//! between them measured by the same clock reads, so their shares stay
//! consistent when each call lasts only tens of ns.
//!
//! No probe draws from an RNG or changes control flow, so a traced run
//! follows the plain run's trajectory exactly. Tallies live in a
//! thread-local, so the worker threads of a fanned-out sweep each keep
//! their own; [`take`] drains the calling thread's tally.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

use pp_protocol::activity::PairSampling;
use pp_protocol::{
    Activity, CountScheduler, CountView, EnumerableProtocol, PairDraw, Protocol, StateQuotient,
    UniformCountScheduler,
};
use rand::RngCore;

/// One change in this many is timed; protocol calls outside engine runs
/// are timed one in this many too.
pub const SAMPLE_EVERY: u64 = 32;

/// The layer on whose behalf a protocol transition call is made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ctx {
    /// The engine itself: `apply` resolving an outcome, or warm
    /// materialization classifying a novel slot.
    Engine = 0,
    /// Cold slot registration (`add_slot*`): discovery.
    AddSlot = 1,
    /// `export_to`: classifying raced-in table states.
    Export = 2,
    /// Anything else: quotient table builds.
    Other = 3,
}

/// Call count plus the net time of a timed subset of those calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sampled {
    pub calls: u64,
    pub timed: u64,
    pub ns: u64,
}

impl Sampled {
    const ZERO: Sampled = Sampled {
        calls: 0,
        timed: 0,
        ns: 0,
    };

    /// Estimated total seconds: timed ns scaled by `calls / timed`.
    pub fn seconds(&self) -> f64 {
        scaled(self.ns, self.calls, self.timed)
    }

    fn merge(&mut self, other: &Sampled) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.ns += other.ns;
    }

    fn record(&mut self, ns: u64) {
        self.timed += 1;
        self.ns += ns;
    }
}

fn scaled(ns: u64, calls: u64, timed: u64) -> f64 {
    if timed == 0 {
        0.0
    } else {
        ns as f64 * (calls as f64 / timed as f64) / 1e9
    }
}

/// An open timing window: one sampled change.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    start: Instant,
    /// Raw (uncorrected) ns of the window's top-level child calls, and how
    /// many there were.
    children_raw: u64,
    children: u64,
}

/// One thread's counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Protocol transition calls, by [`Ctx`].
    pub transition: [Sampled; 4],
    /// `next_change`, including its nested `sample_change`.
    pub next_change: Sampled,
    pub sample_change: Sampled,
    /// Null interactions skipped by `next_change` draws.
    pub skipped: u64,
    pub count_changed: Sampled,
    /// In-rows walked by the timed `count_changed` calls, counted after
    /// each call's timed interval.
    pub in_walk_sum: u64,
    pub settle: Sampled,
    /// Slot registrations; these are timed on every call.
    pub add_slot_cold: Sampled,
    pub add_slot_warm: Sampled,
    /// Engine self time summed over closed windows, and their number.
    pub self_ns: u64,
    pub windows: u64,
    ctx: usize,
    window: Option<Window>,
    /// Whether a timed `sample_change` ran inside the current
    /// `next_change`.
    nested_sample: bool,
}

impl Tally {
    const fn new() -> Self {
        Tally {
            transition: [Sampled::ZERO; 4],
            next_change: Sampled::ZERO,
            sample_change: Sampled::ZERO,
            skipped: 0,
            count_changed: Sampled::ZERO,
            in_walk_sum: 0,
            settle: Sampled::ZERO,
            add_slot_cold: Sampled::ZERO,
            add_slot_warm: Sampled::ZERO,
            self_ns: 0,
            windows: 0,
            ctx: Ctx::Engine as usize,
            window: None,
            nested_sample: false,
        }
    }

    /// Adds `other`'s counters to this tally.
    pub fn merge(&mut self, other: &Tally) {
        for (a, b) in self.transition.iter_mut().zip(&other.transition) {
            a.merge(b);
        }
        self.next_change.merge(&other.next_change);
        self.sample_change.merge(&other.sample_change);
        self.skipped += other.skipped;
        self.count_changed.merge(&other.count_changed);
        self.in_walk_sum += other.in_walk_sum;
        self.settle.merge(&other.settle);
        self.add_slot_cold.merge(&other.add_slot_cold);
        self.add_slot_warm.merge(&other.add_slot_warm);
        self.self_ns += other.self_ns;
        self.windows += other.windows;
    }

    /// Estimated scheduler self time: `next_change` net of `sample_change`.
    pub fn scheduler_self_s(&self) -> f64 {
        (self.next_change.seconds() - self.sample_change.seconds()).max(0.0)
    }

    /// Estimated engine self time over every change.
    pub fn engine_self_s(&self) -> f64 {
        scaled(self.self_ns, self.next_change.calls, self.windows)
    }

    /// Protocol transition calls over every context.
    pub fn transition_calls(&self) -> u64 {
        self.transition.iter().map(|s| s.calls).sum()
    }

    /// Estimated seconds in protocol transitions over every context.
    pub fn transition_s(&self) -> f64 {
        self.transition.iter().map(Sampled::seconds).sum()
    }

    /// Closes the open window, booking the time between its children as
    /// engine self time.
    fn close_window(&mut self, end: Instant) {
        if let Some(w) = self.window.take() {
            let raw = end.duration_since(w.start).as_nanos() as u64;
            // Each top-level child's raw interval holds one clock read's
            // cost; the reads between children cost one more each.
            let gaps = raw
                .saturating_sub(w.children_raw)
                .saturating_sub(w.children * clock_overhead_ns());
            self.self_ns += gaps;
            self.windows += 1;
        }
    }

    /// Books a timed top-level call of `raw` ns into the open window.
    fn child(&mut self, raw: u64) {
        if let Some(w) = &mut self.window {
            w.children_raw += raw;
            w.children += 1;
        }
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = const { RefCell::new(Tally::new()) };
}

fn with<T>(f: impl FnOnce(&mut Tally) -> T) -> T {
    TALLY.with(|t| f(&mut t.borrow_mut()))
}

/// Drains the calling thread's tally, leaving a zeroed one (the current
/// [`Ctx`] is kept).
pub fn take() -> Tally {
    with(|t| {
        let mut fresh = Tally::new();
        fresh.ctx = t.ctx;
        std::mem::replace(t, fresh)
    })
}

/// Ends the current sampled change, if any. Call it when an engine run
/// returns or hands control to a hook, so that time outside the engine is
/// not booked as engine self time.
pub fn close_window() {
    let now = Instant::now();
    with(|t| t.close_window(now));
}

/// Runs `f` with protocol calls attributed to `ctx`.
pub fn in_ctx<T>(ctx: Ctx, f: impl FnOnce() -> T) -> T {
    let saved = with(|t| std::mem::replace(&mut t.ctx, ctx as usize));
    let out = f();
    with(|t| t.ctx = saved);
    out
}

/// The cost of timing an empty interval, in ns: the median of many
/// back-to-back clock reads, measured once per process.
fn clock_overhead_ns() -> u64 {
    static OVERHEAD: OnceLock<u64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let mut samples: Vec<u64> = (0..10_001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    })
}

/// Measures the clock overhead now, so the first timed call does not pay
/// for it.
pub fn calibrate() -> u64 {
    clock_overhead_ns()
}

/// Raw ns since `start`, and the same net of the clock's own cost.
fn lap(start: Instant) -> (u64, u64) {
    let raw = start.elapsed().as_nanos() as u64;
    (raw, raw.saturating_sub(clock_overhead_ns()))
}

/// Times `f` when a sampled change is open, as a top-level child of the
/// window; otherwise only counts it. Returns whether it was timed.
fn child<T>(stat: fn(&mut Tally) -> &mut Sampled, f: impl FnOnce() -> T) -> (T, bool) {
    let timed = with(|t| {
        stat(t).calls += 1;
        t.window.is_some()
    });
    if !timed {
        return (f(), false);
    }
    let start = Instant::now();
    let out = f();
    let (raw, net) = lap(start);
    with(|t| {
        stat(t).record(net);
        t.child(raw);
    });
    (out, true)
}

/// Times `f` on every call (slot registrations: rare and long).
fn always<T>(stat: fn(&mut Tally) -> &mut Sampled, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let (raw, net) = lap(start);
    with(|t| {
        let s = stat(t);
        s.calls += 1;
        s.record(net);
        t.child(raw);
    });
    out
}

/// A [`Protocol`] that forwards to `inner` while counting transition
/// calls. Every identity method (`name`, `is_symmetric`, `color_quotient`,
/// `fingerprint_param`) is forwarded too: without them discovery would take
/// another path and store and checkpoint identity checks would fail.
#[derive(Debug)]
pub struct Counting<P> {
    pub inner: P,
}

impl<P: Protocol> Protocol for Counting<P> {
    type State = P::State;
    type Input = P::Input;
    type Output = P::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input(&self, input: &P::Input) -> P::State {
        self.inner.input(input)
    }

    fn output(&self, state: &P::State) -> P::Output {
        self.inner.output(state)
    }

    fn transition(&self, a: &P::State, b: &P::State) -> (P::State, P::State) {
        // Calls the engine makes inside a sampled change are children of
        // the window and must all be timed; elsewhere one in SAMPLE_EVERY
        // is.
        let (timed, top) = with(|t| {
            let ctx = t.ctx;
            let top = ctx == Ctx::Engine as usize && t.window.is_some();
            let s = &mut t.transition[ctx];
            s.calls += 1;
            (top || (s.calls - 1) % SAMPLE_EVERY == 0, top)
        });
        if !timed {
            return self.inner.transition(a, b);
        }
        let start = Instant::now();
        let out = self.inner.transition(a, b);
        let (raw, net) = lap(start);
        with(|t| {
            let ctx = t.ctx;
            t.transition[ctx].record(net);
            if top {
                t.child(raw);
            }
        });
        out
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }

    fn color_quotient(&self) -> Option<&dyn StateQuotient<P::State>> {
        self.inner.color_quotient()
    }

    fn fingerprint_param(&self) -> u64 {
        self.inner.fingerprint_param()
    }
}

impl<P: EnumerableProtocol> EnumerableProtocol for Counting<P> {
    fn states(&self) -> Vec<P::State> {
        self.inner.states()
    }
}

/// An [`Activity`] index that forwards to `A` while timing each boundary.
#[derive(Debug, Default)]
pub struct Timed<A> {
    inner: A,
}

impl<A: Activity> PairSampling for Timed<A> {
    fn is_active(&self, i: usize, j: usize) -> bool {
        self.inner.is_active(i, j)
    }

    fn sample_change(&self, r: u128, counts: &[u64]) -> (usize, usize) {
        // Nested in `next_change`: timed in a window, but not one of its
        // top-level children.
        let timed = with(|t| {
            t.sample_change.calls += 1;
            t.window.is_some()
        });
        if !timed {
            return self.inner.sample_change(r, counts);
        }
        let start = Instant::now();
        let out = self.inner.sample_change(r, counts);
        let (_, net) = lap(start);
        with(|t| {
            t.sample_change.record(net);
            t.nested_sample = true;
        });
        out
    }
}

impl<A: Activity> Activity for Timed<A> {
    fn add_slot(&mut self, counts: &[u64], active: impl FnMut(usize, usize) -> bool) {
        always(
            |t| &mut t.add_slot_cold,
            || in_ctx(Ctx::AddSlot, || self.inner.add_slot(counts, active)),
        );
    }

    fn add_slot_symmetric(&mut self, counts: &[u64], active: impl FnMut(usize, usize) -> bool) {
        always(
            |t| &mut t.add_slot_cold,
            || {
                in_ctx(Ctx::AddSlot, || {
                    self.inner.add_slot_symmetric(counts, active)
                })
            },
        );
    }

    fn declare_symmetric(&mut self) {
        self.inner.declare_symmetric();
    }

    fn add_slot_from_lists(&mut self, counts: &[u64], out: &[u32], ins: &[u32], diag: bool) {
        always(
            |t| &mut t.add_slot_warm,
            || self.inner.add_slot_from_lists(counts, out, ins, diag),
        );
    }

    fn count_changed(&mut self, slot: usize, delta: i64) {
        let ((), timed) = child(
            |t| &mut t.count_changed,
            || self.inner.count_changed(slot, delta),
        );
        if timed {
            // Counted after the timed interval. The walk itself lands in
            // the window's gaps, so give its time back.
            let start = Instant::now();
            let mut walked = 0u64;
            self.inner.walk_in(slot, &mut |_| walked += 1);
            let (raw, _) = lap(start);
            with(|t| {
                t.in_walk_sum += walked;
                t.child(raw);
            });
        }
    }

    fn settle(&mut self, counts: &[u64]) {
        child(|t| &mut t.settle, || self.inner.settle(counts));
    }

    fn mass(&self) -> u128 {
        self.inner.mass()
    }

    fn row_mass(&self) -> &[u128] {
        self.inner.row_mass()
    }

    fn walk_out(&self, i: usize, f: &mut dyn FnMut(usize)) {
        self.inner.walk_out(i, f);
    }

    fn walk_in(&self, j: usize, f: &mut dyn FnMut(usize)) {
        self.inner.walk_in(j, f);
    }

    fn active_pairs(&self) -> usize {
        self.inner.active_pairs()
    }

    fn adjacency_bytes(&self) -> usize {
        self.inner.adjacency_bytes()
    }
}

/// The uniform count scheduler with a timed `next_change`, which also
/// opens and closes the sampled-change windows.
#[derive(Debug, Default)]
pub struct TimedScheduler {
    inner: UniformCountScheduler,
}

impl<S> CountScheduler<S> for TimedScheduler {
    fn next_slot_pair(&mut self, view: &CountView<'_, S>, rng: &mut dyn RngCore) -> (usize, usize) {
        CountScheduler::<S>::next_slot_pair(&mut self.inner, view, rng)
    }

    fn next_change(
        &mut self,
        view: &CountView<'_, S>,
        budget: u64,
        rng: &mut dyn RngCore,
    ) -> PairDraw {
        let start = Instant::now();
        let timed = with(|t| {
            t.close_window(start);
            t.next_change.calls += 1;
            let timed = (t.next_change.calls - 1) % SAMPLE_EVERY == 0;
            if timed {
                t.window = Some(Window {
                    start,
                    children_raw: 0,
                    children: 0,
                });
                t.nested_sample = false;
            }
            timed
        });
        let draw = self.inner.next_change(view, budget, rng);
        if !timed {
            with(|t| t.skipped += draw.skipped);
            return draw;
        }
        let (raw, net) = lap(start);
        with(|t| {
            // A nested timed `sample_change` read the clock twice inside
            // this interval.
            let nested = if t.nested_sample {
                2 * clock_overhead_ns()
            } else {
                0
            };
            t.next_change.record(net.saturating_sub(nested));
            t.child(raw);
            t.skipped += draw.skipped;
        });
        draw
    }

    fn name(&self) -> &str {
        CountScheduler::<S>::name(&self.inner)
    }
}

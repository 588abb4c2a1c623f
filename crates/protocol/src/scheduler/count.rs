//! Count-level scheduling: interactions drawn as *state pairs* over an
//! anonymous configuration.
//!
//! Agents with equal states are interchangeable under the uniform-random
//! scheduler, so an execution can be driven without agent identities at all:
//! a [`CountScheduler`] draws ordered pairs of *state slots* from the dense
//! count representation exposed as a [`CountView`]. Drawing an initiator
//! state with probability `c_i / n` and then a responder with probability
//! `c_j' / (n - 1)` (where `c_j'` excludes the initiator) is exactly the
//! hypergeometric two-draw over the multiset — the count-level image of the
//! uniform pair distribution `1 / (n (n - 1))` on agent pairs.
//!
//! The trait also has a *batched* entry point, [`CountScheduler::next_change`]:
//! instead of materializing every interaction, a scheduler may jump straight
//! to the next interaction that changes some state, reporting how many silent
//! (null) interactions it provably skipped. For the uniform-random scheduler
//! the skip length is geometric with success probability `mass / (n (n - 1))`
//! where `mass` is the total weight of state-changing ordered pairs, so
//! silent-heavy runs advance in one draw per change-point instead of one draw
//! per interaction. The conditional change-pair draw itself is answered by
//! the engine's [`Activity`](crate::activity::Activity) index through
//! [`CountView::sample_change`] — a scan of 64-row block sums, then the row
//! masses of one block, computed on the fly from each row's count and
//! in-column sum, then an adjacency walk (`O(slots/64 + 64 + deg)`) on the
//! default sparse index. The view exposes only the total `mass`: the index
//! stores no per-row masses. All pair weights are `u128`, so populations
//! beyond `u32::MAX` sample without overflow.

use rand::{RngCore, RngExt};

use crate::activity::PairSampling;

/// A read-only, dense snapshot of an anonymous configuration plus the
/// activity structure maintained by the count engine.
///
/// Slots index the engine's dense arrays; every state ever seen keeps its
/// slot, so zero-count slots exist and simply carry no weight.
#[derive(Clone, Copy)]
pub struct CountView<'a, S> {
    /// Distinct states by slot.
    pub states: &'a [S],
    /// Agents currently in each slot's state.
    pub counts: &'a [u64],
    /// Total number of agents.
    pub n: u64,
    /// Total weight of *active* (state-changing) ordered pairs:
    /// `Σ_{(i, j) active} c_i · (c_j − [i = j])`. Zero iff the
    /// configuration is silent.
    pub mass: u128,
    /// The engine's activity index, answering pair-activity and conditional
    /// sampling queries.
    pub(crate) sampler: &'a dyn PairSampling,
}

impl<S> CountView<'_, S> {
    /// Number of slots (distinct states ever seen, including empty slots).
    pub fn slots(&self) -> usize {
        self.states.len()
    }

    /// Whether the ordered slot pair `(i, j)` changes state when it
    /// interacts.
    pub fn is_active(&self, i: usize, j: usize) -> bool {
        self.sampler.is_active(i, j)
    }

    /// The sampling weight of the ordered slot pair `(i, j)`: the number of
    /// ordered *agent* pairs realizing it, `c_i · (c_j − [i = j])`, or `0`
    /// when the pair is null.
    pub fn pair_weight(&self, i: usize, j: usize) -> u128 {
        if !self.is_active(i, j) {
            return 0;
        }
        let exclude = u64::from(i == j);
        u128::from(self.counts[i]) * u128::from(self.counts[j].saturating_sub(exclude))
    }

    /// Maps the `r`-th unit of active weight (`r < mass`) to its ordered
    /// slot pair: pairs are ordered by initiator slot then responder slot,
    /// each spanning its [`pair_weight`](Self::pair_weight). The activity
    /// index answers by scanning its 64-row block sums, then the row masses
    /// of one block (computed per draw), then one out-row; every index
    /// walks rows in ascending slot order, so the same `r` yields the same
    /// pair on any of them.
    ///
    /// # Panics
    ///
    /// Panics when `r >= mass` — sampling outside the active weight is
    /// always a caller bug and must surface instead of biasing draws.
    pub fn sample_change(&self, r: u128) -> (usize, usize) {
        assert!(r < self.mass, "sample_change past the active mass");
        self.sampler.sample_change(r, self.counts)
    }
}

impl<S> std::fmt::Debug for CountView<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountView")
            .field("slots", &self.states.len())
            .field("n", &self.n)
            .field("mass", &self.mass)
            .finish_non_exhaustive()
    }
}

/// The outcome of a batched draw: how many provably-null interactions were
/// skipped, and the active pair that follows them (or `None` when the step
/// budget ran out first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairDraw {
    /// Null interactions consumed before the active one.
    pub skipped: u64,
    /// The ordered slot pair of the next state-changing interaction;
    /// `None` when `budget` interactions elapsed without a change.
    pub pair: Option<(usize, usize)>,
}

/// A source of count-level interactions.
///
/// Implementors choose ordered slot pairs from a [`CountView`]; the engine
/// threads a seeded RNG through (as `&mut dyn RngCore`, so sequential and
/// counter-based generators both fit) so whole runs stay reproducible. The batched
/// [`next_change`](CountScheduler::next_change) has a universally correct
/// default (rejection-sample single draws); schedulers whose distribution
/// admits a closed-form skip length override it.
pub trait CountScheduler<S> {
    /// Draws the ordered slot pair of the next interaction, null or not.
    ///
    /// Both slots must currently hold at least one agent (two for a diagonal
    /// pair), mirroring the "two distinct agents" requirement at the agent
    /// level.
    fn next_slot_pair(&mut self, view: &CountView<'_, S>, rng: &mut dyn RngCore) -> (usize, usize);

    /// Advances directly to the next state-changing interaction, consuming at
    /// most `budget` interactions (the returned change, when present, is the
    /// `skipped + 1`-th).
    fn next_change(
        &mut self,
        view: &CountView<'_, S>,
        budget: u64,
        rng: &mut dyn RngCore,
    ) -> PairDraw {
        let mut skipped = 0;
        while skipped < budget {
            let (i, j) = self.next_slot_pair(view, rng);
            if view.is_active(i, j) {
                return PairDraw {
                    skipped,
                    pair: Some((i, j)),
                };
            }
            skipped += 1;
        }
        PairDraw {
            skipped,
            pair: None,
        }
    }

    /// Human-readable scheduler name used in reports and benchmarks.
    fn name(&self) -> &str;
}

/// The count-level uniform-random scheduler: the hypergeometric two-draw
/// described in the [module docs](self), with a geometric fast path for
/// [`next_change`](CountScheduler::next_change).
///
/// Statistically equivalent to driving the indexed engine with
/// [`UniformPairScheduler`](crate::UniformPairScheduler); the equivalence is
/// covered by the `engine_equivalence` integration tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformCountScheduler {
    _private: (),
}

impl UniformCountScheduler {
    /// Creates a uniform count-level scheduler.
    pub fn new() -> Self {
        UniformCountScheduler { _private: () }
    }
}

/// Walks `counts` to find the slot containing the `r`-th agent, with
/// `excluded` agents of slot `exclude` set aside.
///
/// Exhausting the counts before placing `r` means the caller's `r` exceeded
/// the total remaining weight — a sampling bug that must panic loudly
/// (`unreachable!`) rather than silently bias draws toward the last slot.
fn slot_of<S>(view: &CountView<'_, S>, mut r: u64, exclude: usize, excluded: u64) -> usize {
    debug_assert!(
        exclude == usize::MAX || view.counts[exclude] >= excluded,
        "cannot exclude {excluded} agents from a slot holding {}",
        view.counts.get(exclude).copied().unwrap_or(0)
    );
    for (idx, &c) in view.counts.iter().enumerate() {
        let c = if idx == exclude {
            c.checked_sub(excluded)
                .expect("excluded more agents than the slot holds")
        } else {
            c
        };
        if r < c {
            return idx;
        }
        r -= c;
    }
    unreachable!("sampling walked past the total population (residual {r})");
}

impl<S> CountScheduler<S> for UniformCountScheduler {
    fn next_slot_pair(&mut self, view: &CountView<'_, S>, rng: &mut dyn RngCore) -> (usize, usize) {
        debug_assert!(view.n >= 2, "scheduler requires at least two agents");
        let i = slot_of(view, rng.random_range(0..view.n), usize::MAX, 0);
        let j = slot_of(view, rng.random_range(0..view.n - 1), i, 1);
        (i, j)
    }

    fn next_change(
        &mut self,
        view: &CountView<'_, S>,
        budget: u64,
        rng: &mut dyn RngCore,
    ) -> PairDraw {
        if view.mass == 0 {
            // Silent: every interaction is null.
            return PairDraw {
                skipped: budget,
                pair: None,
            };
        }
        let total = u128::from(view.n) * u128::from(view.n - 1);
        // Geometric skip: each interaction is active with probability
        // `p = mass / total`, independently, so the number of nulls before
        // the next change is Geometric(p). Inverse-transform sampling; the
        // f64 is compared against the budget before narrowing so enormous
        // skips in nearly-silent configurations cannot overflow.
        let skipped = if view.mass == total {
            0
        } else {
            // u64 → f64 is a native instruction while u128 → f64 is a
            // library call; masses below 2^64 (every population up to
            // ~4·10^9 agents) take the fast path. The total is computed
            // from `n` directly for the same reason.
            let mass_f = match u64::try_from(view.mass) {
                Ok(m) => m as f64,
                Err(_) => view.mass as f64,
            };
            let p = mass_f / ((view.n as f64) * ((view.n - 1) as f64));
            let u: f64 = rng.random();
            let skip = ((1.0 - u).ln() / (-p).ln_1p()).floor();
            if skip >= budget as f64 {
                return PairDraw {
                    skipped: budget,
                    pair: None,
                };
            }
            skip as u64
        };
        if skipped >= budget {
            return PairDraw {
                skipped: budget,
                pair: None,
            };
        }
        // Conditioned on "this interaction changes state", the pair is
        // distributed by its weight among active pairs; the activity index
        // resolves the draw.
        let r = rng.random_range(0..view.mass);
        PairDraw {
            skipped,
            pair: Some(view.sample_change(r)),
        }
    }

    fn name(&self) -> &str {
        "uniform-count"
    }
}

/// A scripted count-level scheduler that replays a fixed sequence of *state*
/// pairs — the count-level analogue of trace replay, used to drive the count
/// engine through exactly the interaction sequence of a recorded indexed run
/// (see the `engine_equivalence` tests) or through a recorded
/// [`CountTrace`](crate::CountTrace).
#[derive(Debug, Clone)]
pub struct ReplayCountScheduler<S> {
    pairs: Vec<(S, S)>,
    pos: usize,
}

impl<S: Clone + Eq> ReplayCountScheduler<S> {
    /// Creates a replay scheduler over `(initiator, responder)` state pairs.
    pub fn new(pairs: Vec<(S, S)>) -> Self {
        ReplayCountScheduler { pairs, pos: 0 }
    }

    /// How many scripted pairs remain.
    pub fn remaining(&self) -> usize {
        self.pairs.len().saturating_sub(self.pos)
    }
}

impl<S: Clone + Eq> CountScheduler<S> for ReplayCountScheduler<S> {
    /// # Panics
    ///
    /// Panics when the script is exhausted or names a state that is absent
    /// from the configuration — a scripted pair that cannot be realized
    /// indicates a bug in the caller (or in the engine under test).
    fn next_slot_pair(
        &mut self,
        view: &CountView<'_, S>,
        _rng: &mut dyn RngCore,
    ) -> (usize, usize) {
        let (a, b) = self
            .pairs
            .get(self.pos)
            .expect("replay script exhausted")
            .clone();
        self.pos += 1;
        let slot = |s: &S| {
            view.states
                .iter()
                .position(|t| t == s)
                .expect("replayed state absent from configuration")
        };
        let i = slot(&a);
        let j = slot(&b);
        assert!(
            view.counts[i] >= 1 && view.counts[j] > u64::from(i == j),
            "replayed pair cannot be realized by two distinct agents"
        );
        (i, j)
    }

    fn name(&self) -> &str {
        "replay-count"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A test-only activity index backed by an explicit null matrix, so
    /// scheduler tests can state activity patterns directly.
    struct GridSampler {
        null: Vec<bool>,
        stride: usize,
    }

    impl PairSampling for GridSampler {
        fn is_active(&self, i: usize, j: usize) -> bool {
            !self.null[i * self.stride + j]
        }

        fn sample_change(&self, mut r: u128, counts: &[u64]) -> (usize, usize) {
            for i in 0..self.stride {
                for j in 0..self.stride {
                    if self.null[i * self.stride + j] {
                        continue;
                    }
                    let w = u128::from(counts[i])
                        * u128::from(counts[j].saturating_sub(u64::from(i == j)));
                    if r < w {
                        return (i, j);
                    }
                    r -= w;
                }
            }
            unreachable!("r past the active mass");
        }
    }

    fn view<'a>(
        states: &'a [u8],
        counts: &'a [u64],
        mass: u128,
        sampler: &'a GridSampler,
    ) -> CountView<'a, u8> {
        CountView {
            states,
            counts,
            n: counts.iter().sum(),
            mass,
            sampler,
        }
    }

    #[test]
    fn uniform_slot_pairs_respect_counts() {
        // Two slots, all pairs active.
        let states = [0u8, 1];
        let counts = [3u64, 1];
        let sampler = GridSampler {
            null: vec![false; 4],
            stride: 2,
        };
        let v = view(&states, &counts, 12, &sampler);
        let mut s = UniformCountScheduler::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let (i, j) = s.next_slot_pair(&v, &mut rng);
            assert!(i < 2 && j < 2);
            seen.insert((i, j));
        }
        // (1, 1) is impossible: only one agent in slot 1.
        assert!(seen.contains(&(0, 0)));
        assert!(seen.contains(&(0, 1)));
        assert!(seen.contains(&(1, 0)));
        assert!(!seen.contains(&(1, 1)));
    }

    #[test]
    fn next_change_on_silent_view_reports_budget() {
        let states = [0u8];
        let counts = [5u64];
        let sampler = GridSampler {
            null: vec![true],
            stride: 1,
        };
        let v = view(&states, &counts, 0, &sampler);
        let mut s = UniformCountScheduler::new();
        let mut rng = StdRng::seed_from_u64(2);
        let draw = CountScheduler::<u8>::next_change(&mut s, &v, 17, &mut rng);
        assert_eq!(
            draw,
            PairDraw {
                skipped: 17,
                pair: None
            }
        );
    }

    #[test]
    fn next_change_picks_only_active_pairs() {
        // Slot 0 self-pair is null; cross pairs active.
        let states = [0u8, 1];
        let counts = [2u64, 2];
        let sampler = GridSampler {
            // (0,0) true, (0,1) false, (1,0) false, (1,1) true
            null: vec![true, false, false, true],
            stride: 2,
        };
        let v = view(&states, &counts, 8, &sampler);
        let mut s = UniformCountScheduler::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let draw = s.next_change(&v, u64::MAX, &mut rng);
            let (i, j) = draw.pair.expect("active pairs exist");
            assert_ne!(i, j, "diagonal pairs are null here");
        }
    }

    #[test]
    fn geometric_skip_mean_matches_null_density() {
        // 1 active ordered-agent-pair arrangement out of n(n-1).
        let states = [0u8, 1];
        let counts = [1u64, 9];
        let sampler = GridSampler {
            // Only (0, 1) active.
            null: vec![true, false, true, true],
            stride: 2,
        };
        let v = view(&states, &counts, 9, &sampler);
        let mut s = UniformCountScheduler::new();
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 20_000;
        let mut total = 0u64;
        for _ in 0..trials {
            let draw = s.next_change(&v, u64::MAX, &mut rng);
            assert_eq!(draw.pair, Some((0, 1)));
            total += draw.skipped;
        }
        // p = 9/90 = 0.1 ⇒ E[skips] = (1 − p)/p = 9.
        let mean = total as f64 / f64::from(trials);
        assert!((mean - 9.0).abs() < 0.3, "mean skip {mean} far from 9");
    }

    #[test]
    fn sample_change_weights_match_pair_weights() {
        let states = [0u8, 1];
        let counts = [3u64, 2];
        let sampler = GridSampler {
            null: vec![false, false, true, true],
            stride: 2,
        };
        // row 0: (0,0) weight 3·2 = 6, (0,1) weight 3·2 = 6.
        let v = view(&states, &counts, 12, &sampler);
        assert_eq!(v.pair_weight(0, 0), 6);
        assert_eq!(v.pair_weight(0, 1), 6);
        assert_eq!(v.pair_weight(1, 0), 0, "null pair weighs nothing");
        for r in 0..6 {
            assert_eq!(v.sample_change(r), (0, 0));
        }
        for r in 6..12 {
            assert_eq!(v.sample_change(r), (0, 1));
        }
    }

    #[test]
    #[should_panic(expected = "past the active mass")]
    fn sample_change_past_mass_panics() {
        let states = [0u8];
        let counts = [2u64];
        let sampler = GridSampler {
            null: vec![false],
            stride: 1,
        };
        let v = view(&states, &counts, 2, &sampler);
        let _ = v.sample_change(2);
    }

    #[test]
    fn replay_scheduler_maps_states_to_slots() {
        let states = [7u8, 9];
        let counts = [1u64, 2];
        let sampler = GridSampler {
            null: vec![false; 4],
            stride: 2,
        };
        let v = view(&states, &counts, 5, &sampler);
        let mut s = ReplayCountScheduler::new(vec![(9u8, 7u8), (9, 9)]);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(s.next_slot_pair(&v, &mut rng), (1, 0));
        assert_eq!(s.next_slot_pair(&v, &mut rng), (1, 1));
        assert_eq!(s.remaining(), 0);
    }
}

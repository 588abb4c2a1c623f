//! Shared, append-only protocol-structure cache for warm-started runs.
//!
//! Discovering a protocol's slot structure — which states exist and which
//! ordered state pairs change state — costs `O(slots²)` protocol-transition
//! calls, repeated identically by every engine over the same protocol. A
//! [`TransitionTable`] hoists that structure out of the engine: it is an
//! append-only map from states to canonical ids, from ordered id pairs to
//! their null/active classification, and from applied active pairs to their
//! transition outcomes. A finished engine [exports](crate::CountEngine::export_to)
//! everything it discovered; a fresh engine
//! [warm-starts](crate::CountEngine::with_snapshot_rng) from a snapshot of the table
//! (`O(slots + pairs)`, zero protocol calls) and only pays discovery for
//! states the table has never seen.
//!
//! # Lock-free segments and epoch snapshots
//!
//! The table is a chain of immutable, `Arc`-shared **segments**. Each
//! segment owns a band of state ids `[base, end)` together with every pair
//! classification and outcome first discovered alongside those states, and
//! is frozen at publication: readers never observe a segment changing.
//! Publication ([`CountEngine::export_to`](crate::CountEngine::export_to))
//! builds a candidate segment against the observed tip and installs it with
//! a single compare-and-swap-like append on the chain's tail (a `OnceLock`
//! next-pointer); losing a race costs a rebuild against the new tip, never
//! a lock. Readers — [`len`](TransitionTable::len),
//! [`dump`](TransitionTable::dump), snapshots — walk the chain without
//! blocking writers and vice versa.
//!
//! A [`TableSnapshot`] is therefore a *handle*: a vector of segment `Arc`s
//! plus their id boundaries. [`TransitionTable::snapshot`] memoizes the
//! latest handle, so capturing the snapshot for a new warm trial is a
//! refcount bump, not a deep copy — `TrialRunner` in `pp_analysis` captures
//! one snapshot per sweep epoch and shares it across every trial of the
//! epoch.
//!
//! # Example
//!
//! ```
//! # use pp_protocol::{CountEngine, Protocol, TransitionTable, UniformCountScheduler};
//! # use rand::{rngs::StdRng, SeedableRng};
//! # struct Max;
//! # impl Protocol for Max {
//! #     type State = u8; type Input = u8; type Output = u8;
//! #     fn name(&self) -> &str { "max" }
//! #     fn input(&self, i: &u8) -> u8 { *i }
//! #     fn output(&self, s: &u8) -> u8 { *s }
//! #     fn transition(&self, a: &u8, b: &u8) -> (u8, u8) { let m = *a.max(b); (m, m) }
//! #     fn is_symmetric(&self) -> bool { true }
//! # }
//! let inputs: Vec<u8> = (0..1000).map(|i| (i % 7) as u8).collect();
//! let table = TransitionTable::new();
//!
//! // Seed 1 discovers; later seeds load the discovered structure.
//! for seed in 0..4 {
//!     let config = inputs.iter().map(|i| Max.input(i)).collect();
//!     let mut engine: CountEngine<'_, Max> = CountEngine::with_snapshot_rng(
//!         &Max,
//!         config,
//!         UniformCountScheduler::new(),
//!         StdRng::seed_from_u64(seed),
//!         table.snapshot(),
//!     );
//!     engine.run_until_silent(u64::MAX)?;
//!     engine.export_to(&table);
//! }
//! assert_eq!(table.len(), 7);
//! # Ok::<(), pp_protocol::FrameworkError>(())
//! ```

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::activity::{AdjRows, RowRepr};
use crate::hashing::FxBuildHasher;
use crate::protocol::Protocol;
use crate::quotient::OrbitRows;

/// A segment's own out-rows: explicit, or in orbit form for a quotient
/// table ([`quotient_table`](crate::quotient_table) or a `.ppts` v2 load).
#[derive(Debug)]
pub(crate) enum Rows {
    /// One row per state.
    Flat(AdjRows),
    /// Representative rows plus the group action; only ever a base-0
    /// segment covering the whole state set.
    Orbit(OrbitRows),
}

impl Rows {
    /// Active pairs stored.
    pub(crate) fn pairs(&self) -> usize {
        match self {
            Rows::Flat(rows) => rows.pairs(),
            Rows::Orbit(rows) => rows.pairs(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Rows::Flat(rows) => rows.bytes(),
            Rows::Orbit(rows) => rows.bytes(),
        }
    }

    /// Whether row `r` holds `j`.
    pub(crate) fn contains(&self, r: u32, j: u32) -> bool {
        match self {
            Rows::Flat(rows) => rows.contains(r as usize, j as usize),
            Rows::Orbit(rows) => rows.contains(r, j),
        }
    }

    fn walk_out(&self, r: u32, f: impl FnMut(usize) -> bool) {
        match self {
            Rows::Flat(rows) => rows.walk(r as usize, f),
            Rows::Orbit(rows) => rows.walk_out(r, f),
        }
    }

    fn row<'a>(&'a self, r: u32, scratch: &'a mut Vec<u64>) -> RowRepr<'a> {
        match self {
            Rows::Flat(rows) => rows.row_repr(r as usize),
            Rows::Orbit(rows) => rows.row(r, scratch),
        }
    }
}

/// One immutable band of a [`TransitionTable`]: the states with ids
/// `[base, base + states.len())`, every pair classification involving at
/// least one of them, and the outcomes first published alongside them.
/// Frozen at construction — concurrency safety rests on segments never
/// mutating after they enter the chain.
#[derive(Debug)]
pub(crate) struct Segment<S> {
    /// First id owned by this segment.
    base: u32,
    /// States in id order; `states[r]` has id `base + r`.
    states: Vec<S>,
    /// State → *global* id, for this segment's states only.
    index: HashMap<S, u32, FxBuildHasher>,
    /// Out-rows of the new states: row `r` holds every id `j < end` with
    /// `(base + r, j)` active, ascending.
    rows: Rows,
    /// Out-row *extensions* of earlier states: row `v < base` holds every
    /// id `j ∈ [base, end)` with `(v, j)` active, ascending. Empty (zero
    /// rows) when the segment publishes no states.
    ext: AdjRows,
    /// In-rows of the new states (initiators `i < end` of `(i, base + r)`),
    /// `None` when the adjacency is symmetric (in-rows equal out-rows) or
    /// the rows are in orbit form (which derive their own).
    ins: Option<AdjRows>,
    /// In-row extensions of earlier states: row `v < base` holds every
    /// initiator `i ∈ [base, end)` of `(i, v)`. `None` when symmetric.
    ins_ext: Option<AdjRows>,
    /// Outcomes first published by this segment, keyed by global id pair;
    /// deduplicated against every earlier segment at build time.
    outcomes: HashMap<(u32, u32), (u32, u32), FxBuildHasher>,
    /// Whether the adjacency was declared symmetric by the publisher.
    symmetric: bool,
}

impl<S: Clone + Eq + Hash> Segment<S> {
    /// Builds a segment from its published pairs. `rows` must hold one row
    /// per state (ascending ids over `[0, end)`), `ext` one row per earlier
    /// id (ascending ids over `[base, end)`) — or zero rows when `states`
    /// is empty. The state index and (for asymmetric adjacencies) both
    /// in-row sets are derived here, once, so every reader gets `O(row)`
    /// in-neighbor queries for free.
    pub(crate) fn new(
        base: u32,
        states: Vec<S>,
        rows: Rows,
        ext: AdjRows,
        outcomes: HashMap<(u32, u32), (u32, u32), FxBuildHasher>,
        symmetric: bool,
    ) -> Self {
        let mut index = HashMap::with_capacity_and_hasher(states.len(), FxBuildHasher::default());
        for (r, s) in states.iter().enumerate() {
            index.insert(s.clone(), base + r as u32);
        }
        // Orbit-form rows derive their own in-rows.
        let rows = match rows {
            Rows::Orbit(orbit) if !symmetric => Rows::Orbit(orbit.with_in_rows()),
            rows => rows,
        };
        let (ins, ins_ext) = if symmetric || states.is_empty() {
            (None, None)
        } else if let Rows::Flat(rows) = &rows {
            let b = base as usize;
            let mut ins = AdjRows::new();
            for _ in 0..states.len() {
                ins.push_slot();
            }
            let mut ins_ext = AdjRows::new();
            for _ in 0..b {
                ins_ext.push_slot();
            }
            // Old → new edges land first (initiator ids < base), then new →
            // new edges in ascending initiator order, so every in-row is
            // built ascending.
            for v in 0..b {
                ext.walk(v, |j| {
                    ins.push(j - b, v);
                    true
                });
            }
            for r in 0..states.len() {
                rows.walk(r, |j| {
                    if j >= b {
                        ins.push(j - b, b + r);
                    } else {
                        ins_ext.push(j, b + r);
                    }
                    true
                });
            }
            (Some(ins), Some(ins_ext))
        } else {
            (None, None)
        };
        Segment {
            base,
            states,
            index,
            rows,
            ext,
            ins,
            ins_ext,
            outcomes,
            symmetric,
        }
    }
}

impl<S> Segment<S> {
    /// One past the last id owned by this segment.
    fn end(&self) -> u32 {
        self.base + self.states.len() as u32
    }
}

/// An owned, comparable copy of a table's contents — states in canonical
/// order, activity rows, and outcomes sorted by pair. Used by tests to
/// assert that two discovery paths produced bit-identical structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDump<S> {
    /// States in canonical id order.
    pub states: Vec<S>,
    /// Active responder ids (ascending) per initiator id.
    pub rows: Vec<Vec<u32>>,
    /// Memoized outcomes as `((from_i, from_j), (to_i, to_j))`, sorted.
    pub outcomes: Vec<((u32, u32), (u32, u32))>,
}

/// One link of the lock-free segment chain. The `next` pointer is a
/// `OnceLock`: set-once semantics give publication its atomic append (a
/// failed `set` means another publisher won the race) without any unsafe
/// code, and `get` is a lock-free read after initialization.
#[derive(Debug)]
struct SegNode<S> {
    seg: Arc<Segment<S>>,
    next: OnceLock<Arc<SegNode<S>>>,
}

/// Append-only, lock-free cache of a protocol's discovered structure; see
/// the [module docs](self).
pub struct TransitionTable<P: Protocol> {
    /// First chain link; empty tables have none.
    head: OnceLock<Arc<SegNode<P::State>>>,
    /// Number of installed segments (monotone; may briefly lag the chain).
    segs: AtomicUsize,
    /// Latest snapshot handle, reused while the chain has not grown — this
    /// is what makes per-trial snapshot capture a refcount bump.
    cache: Mutex<Option<Arc<TableSnapshot<P::State>>>>,
}

impl<P: Protocol> Default for TransitionTable<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> TransitionTable<P> {
    /// An empty table.
    pub fn new() -> Self {
        TransitionTable {
            head: OnceLock::new(),
            segs: AtomicUsize::new(0),
            cache: Mutex::new(None),
        }
    }

    /// Visits every installed segment in chain order.
    fn for_each_segment(&self, mut f: impl FnMut(&Segment<P::State>)) {
        let mut node = self.head.get();
        while let Some(n) = node {
            f(&n.seg);
            node = n.next.get();
        }
    }

    /// Number of states the table knows.
    pub fn len(&self) -> usize {
        let mut len = 0;
        self.for_each_segment(|seg| len += seg.states.len());
        len
    }

    /// Whether the table knows no states yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of active ordered pairs the table has classified.
    pub fn active_pairs(&self) -> usize {
        let mut pairs = 0;
        self.for_each_segment(|seg| pairs += seg.rows.pairs() + seg.ext.pairs());
        pairs
    }

    /// Heap bytes the table devotes to (forward) pair adjacency.
    pub fn adjacency_bytes(&self) -> usize {
        let mut bytes = 0;
        self.for_each_segment(|seg| bytes += seg.rows.bytes() + seg.ext.bytes());
        bytes
    }

    /// Number of memoized transition outcomes. Exact: publication
    /// deduplicates a segment's outcomes against the chain it extends.
    pub fn outcome_count(&self) -> usize {
        let mut count = 0;
        self.for_each_segment(|seg| count += seg.outcomes.len());
        count
    }

    /// An owned copy of the full contents, for equality assertions.
    pub fn dump(&self) -> TableDump<P::State> {
        let snap = self.capture();
        let mut states = Vec::with_capacity(snap.len());
        snap.for_each_state(|_, s| states.push(s.clone()));
        let rows = (0..snap.len() as u32)
            .map(|i| {
                let mut row = Vec::new();
                snap.walk_out(i, |j| {
                    row.push(j as u32);
                    true
                });
                row
            })
            .collect();
        TableDump {
            states,
            rows,
            outcomes: snap.sorted_outcomes(),
        }
    }

    /// Collects the current chain into a fresh snapshot handle — `Arc`
    /// clones only, no contents are copied. Readers of the result observe
    /// the chain as of this call, forever.
    pub(crate) fn capture(&self) -> TableSnapshot<P::State> {
        let mut segments = Vec::new();
        let mut bounds = Vec::new();
        let mut node = self.head.get();
        while let Some(n) = node {
            segments.push(Arc::clone(&n.seg));
            bounds.push(n.seg.end());
            node = n.next.get();
        }
        TableSnapshot { segments, bounds }
    }

    /// Atomically appends `seg` to the chain, provided the chain still has
    /// exactly `expected` segments — the tip the caller built `seg`
    /// against. Returns `false` (and publishes nothing) when another
    /// publisher raced in first; the caller rebuilds against the new tip.
    pub(crate) fn try_install(&self, expected: usize, seg: Segment<P::State>) -> bool {
        let node = Arc::new(SegNode {
            seg: Arc::new(seg),
            next: OnceLock::new(),
        });
        let installed = if expected == 0 {
            self.head.set(node).is_ok()
        } else {
            let Some(mut cur) = self.head.get() else {
                return false;
            };
            for _ in 1..expected {
                match cur.next.get() {
                    Some(n) => cur = n,
                    None => return false,
                }
            }
            cur.next.set(node).is_ok()
        };
        if installed {
            self.segs.fetch_add(1, Ordering::Release);
        }
        installed
    }

    /// The shared epoch snapshot: a cheap `Arc` handle over the current
    /// segment chain, memoized so repeated captures while the table is
    /// quiescent cost a refcount bump. The returned snapshot is immutable
    /// and always covers at least the chain as of this call (a memoized
    /// handle may be slightly fresher — snapshots are lookup oracles, so
    /// extra known states only save discovery work; see the canonical-order
    /// contract on [`CountEngine::with_snapshot_rng`](crate::CountEngine::with_snapshot_rng)).
    pub fn snapshot(&self) -> Arc<TableSnapshot<P::State>> {
        let live = self.segs.load(Ordering::Acquire);
        let mut cache = self.cache.lock().expect("snapshot cache poisoned");
        if let Some(snap) = &*cache {
            if snap.segments.len() >= live {
                return Arc::clone(snap);
            }
        }
        let snap = Arc::new(self.capture());
        *cache = Some(Arc::clone(&snap));
        snap
    }

    /// Wraps already-validated contents as a single base-0 segment, for
    /// the quotient builder and the on-disk store loader (see
    /// [`transition_store`](crate::transition_store)). The in-rows of an
    /// asymmetric adjacency are derived here, once per load, instead of
    /// once per warm trial.
    pub(crate) fn from_parts(
        states: Vec<P::State>,
        rows: Rows,
        outcomes: HashMap<(u32, u32), (u32, u32), FxBuildHasher>,
        symmetric: bool,
    ) -> Self {
        let table = TransitionTable::new();
        if !states.is_empty() || !outcomes.is_empty() {
            let seg = Segment::new(0, states, rows, AdjRows::new(), outcomes, symmetric);
            let installed = table.try_install(0, seg);
            debug_assert!(installed, "fresh table cannot lose an install race");
        }
        table
    }
}

/// An immutable view of a [`TransitionTable`] at capture time: the shared
/// segment chain behind `Arc`s plus the id boundary of each segment.
/// Cloning the `Arc<TableSnapshot>` returned by
/// [`TransitionTable::snapshot`] is the per-trial cost of a warm start.
///
/// Warm engines use snapshots as *lookup oracles*: activity and outcome
/// queries are answered from the snapshot instead of the protocol, without
/// ever influencing slot numbering (see
/// [`CountEngine::with_snapshot_rng`](crate::CountEngine::with_snapshot_rng)). Because
/// segments are immutable and the chain is captured by value, a snapshot
/// never changes underneath its reader, no matter how many publishers race
/// into the source table afterwards.
#[derive(Debug)]
pub struct TableSnapshot<S> {
    /// The captured chain, oldest first.
    segments: Vec<Arc<Segment<S>>>,
    /// `bounds[k]` is `segments[k].end()` — the first id *not* covered by
    /// segment `k`. Monotone (non-strictly: outcome-only segments repeat
    /// the previous bound), so the owner of an id is a partition point.
    bounds: Vec<u32>,
}

impl<S> TableSnapshot<S> {
    /// Number of states the snapshot knows.
    pub fn len(&self) -> usize {
        self.bounds.last().map_or(0, |&b| b as usize)
    }

    /// Whether the snapshot knows no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments captured.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segment owning `tid`.
    fn owner(&self, tid: u32) -> &Segment<S> {
        let k = self.bounds.partition_point(|&b| b <= tid);
        &self.segments[k]
    }

    /// The state with id `tid`.
    ///
    /// # Panics
    ///
    /// Panics when `tid >= len()`.
    pub fn state(&self, tid: u32) -> &S {
        let seg = self.owner(tid);
        &seg.states[(tid - seg.base) as usize]
    }

    /// The id of `state`, if the snapshot knows it.
    pub fn id_of(&self, state: &S) -> Option<u32>
    where
        S: Eq + Hash,
    {
        self.segments
            .iter()
            .find_map(|seg| seg.index.get(state).copied())
    }

    /// The memoized outcome of applied pair `key`, if any.
    pub fn outcome(&self, key: (u32, u32)) -> Option<(u32, u32)> {
        self.segments
            .iter()
            .find_map(|seg| seg.outcomes.get(&key).copied())
    }

    /// Whether the ordered pair `(i, j)` is classified active. `O(1)` for
    /// dense rows and, in a quotient table, on the diagonal; otherwise a
    /// scan of one stored row (row walks are the bulk path).
    ///
    /// # Panics
    ///
    /// Panics when either id is `>= len()`.
    pub fn contains(&self, i: u32, j: u32) -> bool {
        let owner = self.owner(i);
        if j < owner.end() {
            owner.rows.contains(i - owner.base, j)
        } else {
            self.owner(j).ext.contains(i as usize, j as usize)
        }
    }

    /// Visits the ids active as responders to `tid` (row `tid`), ascending,
    /// while `f` returns `true`.
    ///
    /// # Panics
    ///
    /// Panics when `tid >= len()`.
    pub fn walk_out(&self, tid: u32, mut f: impl FnMut(usize) -> bool) {
        let k = self.bounds.partition_point(|&b| b <= tid);
        let owner = &self.segments[k];
        let mut go = true;
        owner.rows.walk_out(tid - owner.base, |j| {
            go = f(j);
            go
        });
        if !go {
            return;
        }
        // Later segments extend the row over their own id bands, which are
        // strictly ascending — so the concatenation stays ascending.
        for seg in &self.segments[k + 1..] {
            if seg.states.is_empty() {
                continue;
            }
            seg.ext.walk(tid as usize, |j| {
                go = f(j);
                go
            });
            if !go {
                return;
            }
        }
    }

    /// Visits the ids active as initiators into `tid` (column `tid`),
    /// ascending, while `f` returns `true`. Symmetric adjacencies serve the
    /// column from the row; asymmetric ones from the per-segment in-rows.
    ///
    /// # Panics
    ///
    /// Panics when `tid >= len()`.
    pub fn walk_in(&self, tid: u32, mut f: impl FnMut(usize) -> bool) {
        let k = self.bounds.partition_point(|&b| b <= tid);
        let owner = &self.segments[k];
        if owner.symmetric {
            // The column equals the row.
            self.walk_out(tid, f);
            return;
        }
        let mut go = true;
        let r = tid - owner.base;
        match (&owner.rows, &owner.ins) {
            (Rows::Orbit(rows), _) => rows.walk_in(r, |i| {
                go = f(i);
                go
            }),
            (Rows::Flat(_), Some(ins)) => ins.walk(r as usize, |i| {
                go = f(i);
                go
            }),
            (Rows::Flat(_), None) => unreachable!("asymmetric segments derive in-rows"),
        }
        if !go {
            return;
        }
        for seg in &self.segments[k + 1..] {
            let Some(ins_ext) = &seg.ins_ext else {
                continue;
            };
            ins_ext.walk(tid as usize, |i| {
                go = f(i);
                go
            });
            if !go {
                return;
            }
        }
    }

    /// Visits every `(id, state)` in id order.
    pub(crate) fn for_each_state(&self, mut f: impl FnMut(u32, &S)) {
        for seg in &self.segments {
            for (r, s) in seg.states.iter().enumerate() {
                f(seg.base + r as u32, s);
            }
        }
    }

    /// Whether the captured adjacency was declared symmetric.
    pub(crate) fn symmetric(&self) -> bool {
        self.segments.first().is_none_or(|s| s.symmetric)
    }

    /// Row `tid` in a stored representation, for the store writers:
    /// straight from its segment when no later segment extends it,
    /// otherwise gathered into `scratch` as a bitset.
    pub(crate) fn row<'a>(&'a self, tid: u32, scratch: &'a mut Vec<u64>) -> RowRepr<'a> {
        let k = self.bounds.partition_point(|&b| b <= tid);
        let owner = &self.segments[k];
        if self.segments[k + 1..]
            .iter()
            .all(|seg| seg.states.is_empty())
        {
            return owner.rows.row(tid - owner.base, scratch);
        }
        scratch.clear();
        scratch.resize(self.len().div_ceil(64), 0);
        let mut len = 0;
        self.walk_out(tid, |j| {
            scratch[j / 64] |= 1 << (j % 64);
            len += 1;
            true
        });
        RowRepr::Dense {
            blocks: scratch,
            len,
        }
    }

    /// The orbit-form rows of a snapshot of one quotient table (as built
    /// or loaded, plus at most outcome-only segments).
    pub(crate) fn orbit_rows(&self) -> Option<&OrbitRows> {
        let (first, rest) = self.segments.split_first()?;
        match &first.rows {
            Rows::Orbit(rows) if rest.iter().all(|seg| seg.states.is_empty()) => Some(rows),
            _ => None,
        }
    }

    /// All memoized outcomes, sorted by pair.
    pub(crate) fn sorted_outcomes(&self) -> Vec<((u32, u32), (u32, u32))> {
        let mut outcomes: Vec<_> = self
            .segments
            .iter()
            .flat_map(|seg| seg.outcomes.iter().map(|(&k, &v)| (k, v)))
            .collect();
        outcomes.sort_unstable();
        outcomes
    }
}

impl<P: Protocol> std::fmt::Debug for TransitionTable<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransitionTable")
            .field("states", &self.len())
            .field("pairs", &self.active_pairs())
            .field("outcomes", &self.outcome_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;

    impl Protocol for Noop {
        type State = u8;
        type Input = u8;
        type Output = u8;

        fn name(&self) -> &str {
            "noop"
        }

        fn input(&self, i: &u8) -> u8 {
            *i
        }

        fn output(&self, s: &u8) -> u8 {
            *s
        }

        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            (*a, *b)
        }
    }

    #[test]
    fn fresh_table_is_empty() {
        let table: TransitionTable<Noop> = TransitionTable::new();
        assert!(table.is_empty());
        assert_eq!(table.len(), 0);
        assert_eq!(table.active_pairs(), 0);
        assert_eq!(table.outcome_count(), 0);
        let dump = table.dump();
        assert!(dump.states.is_empty() && dump.rows.is_empty() && dump.outcomes.is_empty());
        assert_eq!(
            format!("{table:?}"),
            "TransitionTable { states: 0, pairs: 0, outcomes: 0 }"
        );
        let snap = table.snapshot();
        assert!(snap.is_empty() && snap.segment_count() == 0);
    }

    #[test]
    fn install_race_fails_the_stale_publisher() {
        let table: TransitionTable<Noop> = TransitionTable::new();
        let seg = |states: Vec<u8>, base: u32| {
            let mut rows = AdjRows::new();
            for _ in 0..states.len() {
                rows.push_slot();
            }
            let mut ext = AdjRows::new();
            for _ in 0..if states.is_empty() { 0 } else { base } {
                ext.push_slot();
            }
            Segment::new(
                base,
                states,
                Rows::Flat(rows),
                ext,
                HashMap::with_hasher(FxBuildHasher::default()),
                true,
            )
        };
        assert!(table.try_install(0, seg(vec![1, 2], 0)));
        // Built against the empty tip: stale, must be rejected.
        assert!(!table.try_install(0, seg(vec![3], 0)));
        assert_eq!(table.len(), 2);
        // Built against the current tip: accepted.
        assert!(table.try_install(1, seg(vec![3], 2)));
        assert_eq!(table.len(), 3);
        assert_eq!(table.snapshot().segment_count(), 2);
    }

    #[test]
    fn snapshot_handle_is_memoized_until_the_chain_grows() {
        let table: TransitionTable<Noop> = TransitionTable::new();
        let mut rows = AdjRows::new();
        rows.push_slot();
        assert!(table.try_install(
            0,
            Segment::new(
                0,
                vec![7u8],
                Rows::Flat(rows),
                AdjRows::new(),
                HashMap::with_hasher(FxBuildHasher::default()),
                true,
            ),
        ));
        let a = table.snapshot();
        let b = table.snapshot();
        assert!(Arc::ptr_eq(&a, &b), "quiescent snapshots share one handle");
        let mut rows = AdjRows::new();
        rows.push_slot();
        assert!(table.try_install(
            1,
            Segment::new(
                1,
                vec![9u8],
                Rows::Flat(rows),
                {
                    let mut ext = AdjRows::new();
                    ext.push_slot();
                    ext
                },
                HashMap::with_hasher(FxBuildHasher::default()),
                true,
            ),
        ));
        let c = table.snapshot();
        assert!(!Arc::ptr_eq(&a, &c), "growth invalidates the memo");
        assert_eq!(a.len(), 1, "the old handle still reads its capture");
        assert_eq!(c.len(), 2);
    }
}

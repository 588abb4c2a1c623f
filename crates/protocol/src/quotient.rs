//! Symmetry quotients of a protocol's state space, and the bulk table
//! builder that classifies one canonical representative per orbit instead
//! of every concrete state pair.
//!
//! A [`StateQuotient`] names a finite group acting on the protocol's
//! states such that the transition function is *equivariant*: applying a
//! group element to both interaction partners commutes with the
//! transition. Protocols advertise their quotient through
//! [`Protocol::color_quotient`](crate::Protocol::color_quotient) (the
//! Circles rotation quotient lives in `circles_core`), and the quotient is
//! used in one way: **in bulk** ([`quotient_table`]). Full-table discovery
//! classifies the rows of the `|S| / |G|` canonical representatives through
//! the protocol; every other row is the image of its representative's
//! row under the group action — zero further protocol calls. The table
//! keeps that **orbit form** in memory (`OrbitRows`: representative rows,
//! a `(representative, g)` pair per state, one id permutation per group
//! element) and hands out a row by scattering its representative's row
//! through `g`, so it is never expanded. This is what makes Circles
//! `k = 50` (125 000 states, ~10¹⁰ ordered pairs) buildable in seconds
//! and ~65 MB in memory, and it is the in-memory form of the `.ppts` v2
//! store format (see [`transition_store`](crate::transition_store)).
//!
//! [`CountEngine`](crate::CountEngine) discovery does not consult the
//! quotient: for Circles, one transition call is a few color comparisons,
//! which is cheaper than canonicalizing the pair and probing a memo.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;

use crate::activity::{AdjRows, RowRepr};
use crate::hashing::FxBuildHasher;
use crate::protocol::EnumerableProtocol;
use crate::transition_table::{Rows, TransitionTable};

/// A finite group action on a protocol's states under which the transition
/// function is equivariant.
///
/// Group elements are named `0..group_order()`; **element `0` must be the
/// identity**. The contract, for all states `a`, `b` and elements `g`:
///
/// - `apply(0, s) == s`, and `s ↦ apply(g, s)` is a bijection of the state
///   set;
/// - **equivariance**: `transition(apply(g, a), apply(g, b)) ==
///   (apply(g, x), apply(g, y))` where `(x, y) = transition(a, b)`;
/// - [`canonical_state`](Self::canonical_state) is constant on orbits and
///   returns an element of the orbit together with the group element
///   mapping it back onto the argument.
///
/// Everything the bulk builder and the store do with a quotient — orbit
/// images, the v2 store format — is correct exactly when this contract
/// holds; `circles_core` verifies it exhaustively for small `k` and the
/// property suite cross-checks quotient-discovered tables against brute
/// force.
pub trait StateQuotient<S> {
    /// Number of group elements (the rotation count `k` for Circles).
    fn group_order(&self) -> u32;

    /// Applies group element `g` to `state`.
    fn apply(&self, g: u32, state: &S) -> S;

    /// The canonical representative of `state`'s orbit, and the element
    /// `g` with `apply(g, canonical) == *state`.
    fn canonical_state(&self, state: &S) -> (S, u32);
}

/// Failures of [`quotient_table`].
#[derive(Debug)]
#[non_exhaustive]
pub enum QuotientError {
    /// The protocol does not expose a color quotient.
    Unsupported,
    /// The group action left the enumerated state set, or a canonical
    /// representative is not itself enumerated — the quotient violates its
    /// contract on this protocol.
    NotClosed(String),
}

impl fmt::Display for QuotientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuotientError::Unsupported => {
                write!(f, "protocol exposes no color quotient")
            }
            QuotientError::NotClosed(msg) => {
                write!(f, "quotient is not closed over the state set: {msg}")
            }
        }
    }
}

impl std::error::Error for QuotientError {}

/// Builds the **full** transition table of an enumerable protocol through
/// its color quotient: the rows of the `|S| / |G|` canonical
/// representatives are classified with protocol transition calls, and
/// every other row is their image under the group action — zero further
/// protocol calls. The table keeps that **orbit form** in memory: one row
/// per representative plus the action, never one row per state.
///
/// The result is bit-identical to priming a cold
/// [`CountEngine`](crate::CountEngine) with
/// [`EnumerableProtocol::states`] and exporting — same state order (the
/// enumeration order), same pair classification, no outcomes — the
/// property suite pins this. For Circles this turns the `O(k⁶)` transition
/// bill of a full `k = 50` build into `O(k⁵)`.
///
/// # Errors
///
/// [`QuotientError::Unsupported`] when the protocol exposes no quotient;
/// [`QuotientError::NotClosed`] when the group action is inconsistent with
/// the enumerated state set.
pub fn quotient_table<P>(protocol: &P) -> Result<TransitionTable<P>, QuotientError>
where
    P: EnumerableProtocol,
{
    let quotient = protocol
        .color_quotient()
        .ok_or(QuotientError::Unsupported)?;
    let states = protocol.states();
    let slots = states.len();
    let mut index: HashMap<&P::State, u32, FxBuildHasher> =
        HashMap::with_capacity_and_hasher(slots, FxBuildHasher::default());
    for (t, s) in states.iter().enumerate() {
        index.insert(s, t as u32);
    }
    let orbits = Orbits::of_states(
        quotient,
        |s| index.get(s).copied(),
        |t| &states[t as usize],
        slots,
    )
    .map_err(QuotientError::NotClosed)?;
    drop(index);

    // Classify the representatives' rows through the protocol — the only
    // transition calls of the whole build. For swap-equivariant protocols
    // (`is_symmetric`) the bill is halved again: once representative `j`'s
    // row is known, the activity of `(rep_i, g·rep_j)` for any later `i`
    // is `active(rep_j, g⁻¹·rep_i)` — a bit test in row `j`, not a
    // transition call. Rows are classified as bitsets, so that test is
    // O(1) whatever the row's final form, and each then moves into the
    // table's rows.
    let symmetric = protocol.is_symmetric();
    let preimages = if symmetric {
        orbits.rep_preimages()
    } else {
        Vec::new()
    };
    let n_reps = orbits.rep_tids.len();
    let mut built: Vec<Vec<u64>> = Vec::with_capacity(n_reps);
    for (i, &rt) in orbits.rep_tids.iter().enumerate() {
        let rs = &states[rt as usize];
        let mut bits = vec![0u64; slots.div_ceil(64)];
        for (t, &(j, g)) in orbits.rep_of.iter().enumerate() {
            let active = if symmetric && (j as usize) < i {
                let u = preimages[g as usize * n_reps + i] as usize;
                built[j as usize][u / 64] >> (u % 64) & 1 == 1
            } else {
                !protocol.is_null_interaction(rs, &states[t])
            };
            bits[t / 64] |= u64::from(active) << (t % 64);
        }
        built.push(bits);
    }
    let mut reps = AdjRows::new();
    for (i, bits) in built.into_iter().enumerate() {
        reps.push_slot();
        reps.set_row_bits(i, bits, slots);
    }
    Ok(TransitionTable::from_parts(
        states,
        Rows::Orbit(OrbitRows::new(orbits, reps)),
        HashMap::with_hasher(FxBuildHasher::default()),
        symmetric,
    ))
}

/// The orbit decomposition of a state list together with the group action
/// on its ids: everything an orbit-form table holds besides the
/// representatives' rows.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Orbits {
    /// Ids of the orbit representatives, ascending.
    rep_tids: Vec<u32>,
    /// Per state: the index into `rep_tids` of its representative and the
    /// group element mapping the representative onto it.
    rep_of: Vec<(u32, u32)>,
    /// `perms[g][t]` is the id of `apply(g, state(t))`; empty for the
    /// elements no state names.
    perms: Vec<Vec<u32>>,
}

impl Orbits {
    /// Decomposes the `slots` states `state(0..slots)`, whose ids `tid`
    /// looks up, into orbits under `quotient`, each represented by its
    /// [canonical state](StateQuotient::canonical_state). `Err` names the
    /// state or element that breaks the quotient's contract on this set.
    pub(crate) fn of_states<'a, S, Q>(
        quotient: &Q,
        tid: impl Fn(&S) -> Option<u32>,
        state: impl Fn(u32) -> &'a S,
        slots: usize,
    ) -> Result<Self, String>
    where
        S: Eq + fmt::Debug + 'a,
        Q: StateQuotient<S> + ?Sized,
    {
        let mut rep_of = Vec::with_capacity(slots);
        for t in 0..slots as u32 {
            let s = state(t);
            let (canon, g) = quotient.canonical_state(s);
            let rep = tid(&canon)
                .ok_or_else(|| format!("state {t} ({s:?}) canonicalizes outside the state set"))?;
            rep_of.push((rep, g));
        }
        let mut rep_tids: Vec<u32> = rep_of.iter().map(|&(r, _)| r).collect();
        rep_tids.sort_unstable();
        rep_tids.dedup();
        for (r, _) in &mut rep_of {
            *r = rep_tids.partition_point(|&x| x < *r) as u32;
        }
        Self::from_parts(quotient, tid, state, rep_tids, rep_of)
    }

    /// Orbits as a `.ppts` v2 store records them: `rep_tids` ascending,
    /// `rep_of[t]` an in-range `(representative index, element)` pair.
    /// Checks that every element recovers its state from its
    /// representative and builds each named element's id permutation.
    pub(crate) fn from_parts<'a, S, Q>(
        quotient: &Q,
        tid: impl Fn(&S) -> Option<u32>,
        state: impl Fn(u32) -> &'a S,
        rep_tids: Vec<u32>,
        rep_of: Vec<(u32, u32)>,
    ) -> Result<Self, String>
    where
        S: Eq + fmt::Debug + 'a,
        Q: StateQuotient<S> + ?Sized,
    {
        let order = quotient.group_order() as usize;
        let slots = rep_of.len();
        let mut perms = vec![Vec::new(); order];
        let mut hit = vec![0u64; slots.div_ceil(64)];
        for (t, &(r, g)) in rep_of.iter().enumerate() {
            let rep = rep_tids[r as usize];
            if g as usize >= order || quotient.apply(g, state(rep)) != *state(t as u32) {
                return Err(format!(
                    "group element {g} does not map representative {rep} onto state {t}"
                ));
            }
            if !perms[g as usize].is_empty() {
                continue;
            }
            hit.fill(0);
            let mut perm = Vec::with_capacity(slots);
            for u in 0..slots as u32 {
                let m = tid(&quotient.apply(g, state(u))).ok_or_else(|| {
                    format!(
                        "group element {g} maps state {u} ({:?}) outside the state set",
                        state(u)
                    )
                })? as usize;
                if hit[m / 64] >> (m % 64) & 1 == 1 {
                    return Err(format!(
                        "group element {g} does not act bijectively on the state set"
                    ));
                }
                hit[m / 64] |= 1 << (m % 64);
                perm.push(m as u32);
            }
            perms[g as usize] = perm;
        }
        Ok(Orbits {
            rep_tids,
            rep_of,
            perms,
        })
    }

    /// Ids of the orbit representatives, ascending.
    pub(crate) fn rep_tids(&self) -> &[u32] {
        &self.rep_tids
    }

    /// Per state, its `(representative index, group element)` pair.
    pub(crate) fn rep_of(&self) -> &[(u32, u32)] {
        &self.rep_of
    }

    /// Whether state `t` is an orbit representative.
    pub(crate) fn is_rep(&self, t: u32) -> bool {
        self.rep_tids[self.rep_of[t as usize].0 as usize] == t
    }

    /// `pre[g · reps + r]` is the id `g` maps onto representative `r`, for
    /// every element some state names (`u32::MAX` for the others).
    fn rep_preimages(&self) -> Vec<u32> {
        let n = self.rep_tids.len();
        let mut rep_at = vec![u32::MAX; self.rep_of.len()];
        for (r, &t) in self.rep_tids.iter().enumerate() {
            rep_at[t as usize] = r as u32;
        }
        let mut pre = vec![u32::MAX; self.perms.len() * n];
        for (g, perm) in self.perms.iter().enumerate() {
            for (x, &y) in perm.iter().enumerate() {
                let r = rep_at[y as usize];
                if r != u32::MAX {
                    pre[g * n + r as usize] = x as u32;
                }
            }
        }
        pre
    }

    /// ORs the image under `g` of row `r` of `rows` into `blocks`: the one
    /// place an orbit image is computed.
    fn scatter(&self, g: u32, rows: &AdjRows, r: u32, blocks: &mut [u64]) {
        let perm = &self.perms[g as usize];
        rows.walk(r as usize, |u| {
            let m = perm[u] as usize;
            blocks[m / 64] |= 1 << (m % 64);
            true
        });
    }
}

thread_local! {
    /// The row-sized bitset [`OrbitRows`] scatters images into, one per
    /// thread and all-zero between walks. A walk takes it for its
    /// duration, so a re-entrant walk allocates its own.
    static IMAGE: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// A quotient table's rows in orbit form — the only in-memory form of a
/// table built by [`quotient_table`] or loaded from a `.ppts` v2 store: an
/// out-row per orbit representative, a `(representative, g)` pair per
/// state and the id permutation of each group element ([`Orbits`]).
/// Equivariance, `active(a, b) ⇔ active(g·a, g·b)`, makes row `g·r` the
/// image of row `r` under `g`; readers get it scattered into a reused
/// row-sized bitset, so it still comes out ascending. For `k = 50` Circles
/// this is ~40 MB of representative rows and ~25 MB of permutations where
/// the expanded table takes ~2 GB.
#[derive(Debug)]
pub(crate) struct OrbitRows {
    orbits: Orbits,
    /// Out-row of each representative, in `rep_tids` order; ids range over
    /// every state.
    reps: AdjRows,
    /// In-row of each representative, for asymmetric adjacencies (see
    /// [`with_in_rows`](Self::with_in_rows)).
    rep_ins: Option<AdjRows>,
    /// Active ordered pairs over every state.
    pairs: usize,
}

impl OrbitRows {
    /// Orbit-form rows from `reps`, the representatives' out-rows in
    /// `orbits.rep_tids()` order.
    pub(crate) fn new(orbits: Orbits, reps: AdjRows) -> Self {
        let pairs = orbits
            .rep_of
            .iter()
            .map(|&(r, _)| reps.row_len(r as usize))
            .sum();
        OrbitRows {
            orbits,
            reps,
            rep_ins: None,
            pairs,
        }
    }

    /// Derives the representatives' in-rows, once, for asymmetric
    /// adjacencies: `(x, b)` with `x = g·a` is active iff `(a, g⁻¹·b)` is,
    /// so each state `x` settles its bit in every in-row `b` with one bit
    /// test in representative `a`'s stored out-row — no expansion. Every
    /// other in-row follows as `in(g·b) = g·in(b)`. (Walking each stored
    /// pair `(a, h·b)` once and recording `h⁻¹·a` would miss in-neighbours
    /// whenever `b` has a non-trivial stabilizer.)
    pub(crate) fn with_in_rows(mut self) -> Self {
        let slots = self.orbits.rep_of.len();
        let row_words = slots.div_ceil(64);
        let n = self.orbits.rep_tids.len();
        let pre = self.orbits.rep_preimages();
        // States grouped by orbit, so each out-row is unpacked once.
        let mut by_orbit: Vec<u32> = (0..slots as u32).collect();
        by_orbit.sort_by_key(|&x| self.orbits.rep_of[x as usize].0);
        let mut ins = vec![vec![0u64; row_words]; n];
        let mut out = vec![0u64; row_words];
        let mut unpacked = None;
        for x in by_orbit {
            let (a, g) = self.orbits.rep_of[x as usize];
            if unpacked != Some(a) {
                out.fill(0);
                self.reps.walk(a as usize, |u| {
                    out[u / 64] |= 1 << (u % 64);
                    true
                });
                unpacked = Some(a);
            }
            for (b, row) in ins.iter_mut().enumerate() {
                let u = pre[g as usize * n + b] as usize;
                row[x as usize / 64] |= (out[u / 64] >> (u % 64) & 1) << (x % 64);
            }
        }
        let mut rows = AdjRows::new();
        for (b, bits) in ins.into_iter().enumerate() {
            rows.push_slot();
            rows.set_row_bits(b, bits, slots);
        }
        self.rep_ins = Some(rows);
        self
    }

    /// The orbit decomposition and group action.
    pub(crate) fn orbits(&self) -> &Orbits {
        &self.orbits
    }

    /// Active ordered pairs over every state.
    pub(crate) fn pairs(&self) -> usize {
        self.pairs
    }

    /// Heap bytes of the representative rows and permutations.
    pub(crate) fn bytes(&self) -> usize {
        self.reps.bytes()
            + self
                .orbits
                .perms
                .iter()
                .map(|p| p.capacity() * 4)
                .sum::<usize>()
    }

    /// Number of active responders of state `t`.
    pub(crate) fn row_len(&self, t: u32) -> usize {
        self.reps.row_len(self.orbits.rep_of[t as usize].0 as usize)
    }

    /// Whether `(i, j)` is active: `(g⁻¹·i, g⁻¹·j) = (r, g⁻¹·j)`, looked up
    /// in `O(1)` on the diagonal and for representatives, by a scan of
    /// row `r` otherwise.
    pub(crate) fn contains(&self, i: u32, j: u32) -> bool {
        let (r, g) = self.orbits.rep_of[i as usize];
        let rep = self.orbits.rep_tids[r as usize];
        if i == j || i == rep {
            return self
                .reps
                .contains(r as usize, if i == j { rep } else { j } as usize);
        }
        let perm = &self.orbits.perms[g as usize];
        let mut found = false;
        self.reps.walk(r as usize, |u| {
            found = perm[u] == j;
            !found
        });
        found
    }

    /// Visits row `t` (its active responders), ascending, while `f`
    /// returns `true`.
    pub(crate) fn walk_out(&self, t: u32, f: impl FnMut(usize) -> bool) {
        self.walk_image(&self.reps, t, f);
    }

    /// Visits column `t` (its active initiators), ascending, while `f`
    /// returns `true`. Requires [`with_in_rows`](Self::with_in_rows) unless
    /// the adjacency is symmetric.
    pub(crate) fn walk_in(&self, t: u32, f: impl FnMut(usize) -> bool) {
        self.walk_image(self.rep_ins.as_ref().unwrap_or(&self.reps), t, f);
    }

    fn walk_image(&self, rows: &AdjRows, t: u32, mut f: impl FnMut(usize) -> bool) {
        let (r, g) = self.orbits.rep_of[t as usize];
        if self.orbits.is_rep(t) {
            rows.walk(r as usize, f);
            return;
        }
        IMAGE.with(|cell| {
            let mut image = cell.take();
            image.resize(self.orbits.rep_of.len().div_ceil(64), 0);
            self.orbits.scatter(g, rows, r, &mut image);
            'walk: for (w, &word) in image.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    if !f(w * 64 + bits.trailing_zeros() as usize) {
                        break 'walk;
                    }
                    bits &= bits - 1;
                }
            }
            image.fill(0);
            cell.set(image);
        });
    }

    /// Row `t` in a stored representation, for the store writers: a
    /// representative's row borrowed, any other row scattered into
    /// `scratch`.
    pub(crate) fn row<'a>(&'a self, t: u32, scratch: &'a mut Vec<u64>) -> RowRepr<'a> {
        let (r, g) = self.orbits.rep_of[t as usize];
        if self.orbits.is_rep(t) {
            return self.reps.row_repr(r as usize);
        }
        scratch.clear();
        scratch.resize(self.orbits.rep_of.len().div_ceil(64), 0);
        self.orbits.scatter(g, &self.reps, r, scratch);
        RowRepr::Dense {
            blocks: scratch,
            len: self.reps.row_len(r as usize) as u32,
        }
    }

    /// Representative `r`'s out-row, as the v2 store persists it.
    pub(crate) fn rep_row(&self, r: usize) -> RowRepr<'_> {
        self.reps.row_repr(r)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::protocol::Protocol;
    use crate::transition_table::TableSnapshot;
    use crate::{CountConfig, CountEngine, UniformCountScheduler};

    /// A toy protocol invariant under rotation of `Z_m` (`m` even):
    /// partners at odd cyclic distance exchange states, everyone else
    /// ignores each other. Symmetric, swap-equivariant, and equivariant
    /// under `x ↦ x + g mod m` — a minimal stand-in for Circles in
    /// crate-local tests. (`m` must be even: `d` and `m − d` must share
    /// parity for the exchange rule to commute with swapping.)
    #[derive(Debug)]
    struct RotMod {
        m: u8,
        quotient: RotModQuotient,
    }

    #[derive(Debug)]
    struct RotModQuotient {
        m: u8,
    }

    impl RotMod {
        fn new(m: u8) -> Self {
            assert_eq!(m % 2, 0, "RotMod needs an even modulus");
            RotMod {
                m,
                quotient: RotModQuotient { m },
            }
        }
    }

    impl StateQuotient<u8> for RotModQuotient {
        fn group_order(&self) -> u32 {
            u32::from(self.m)
        }

        fn apply(&self, g: u32, state: &u8) -> u8 {
            ((u32::from(*state) + g) % u32::from(self.m)) as u8
        }

        fn canonical_state(&self, state: &u8) -> (u8, u32) {
            (0, u32::from(*state))
        }
    }

    impl Protocol for RotMod {
        type State = u8;
        type Input = u8;
        type Output = u8;

        fn name(&self) -> &str {
            "rot-mod"
        }

        fn input(&self, i: &u8) -> u8 {
            *i % self.m
        }

        fn output(&self, s: &u8) -> u8 {
            *s
        }

        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            let m = u16::from(self.m);
            let d = (u16::from(*b) + m - u16::from(*a)) % m;
            if d % 2 == 1 {
                (*b, *a)
            } else {
                (*a, *b)
            }
        }

        fn is_symmetric(&self) -> bool {
            true
        }

        fn color_quotient(&self) -> Option<&dyn StateQuotient<u8>> {
            Some(&self.quotient)
        }
    }

    impl EnumerableProtocol for RotMod {
        fn states(&self) -> Vec<u8> {
            (0..self.m).collect()
        }
    }

    #[test]
    fn toy_quotient_is_equivariant() {
        // Sanity-check the fixture itself; the real equivariance suite for
        // Circles lives in `circles_core`.
        let p = RotMod::new(8);
        let q = p.color_quotient().unwrap();
        for a in 0..8u8 {
            for b in 0..8u8 {
                let (x, y) = p.transition(&a, &b);
                for g in 0..8 {
                    let (rx, ry) = p.transition(&q.apply(g, &a), &q.apply(g, &b));
                    assert_eq!((rx, ry), (q.apply(g, &x), q.apply(g, &y)));
                }
            }
        }
    }

    #[test]
    fn quotient_table_matches_brute_force() {
        let p = RotMod::new(10);
        let table = quotient_table(&p).unwrap();
        let snap = table.snapshot();
        assert_eq!(snap.len(), 10);
        for i in 0..10u32 {
            for j in 0..10u32 {
                let (a, b) = (i as u8, j as u8);
                assert_eq!(
                    snap.contains(i, j),
                    !p.is_null_interaction(&a, &b),
                    "pair ({i}, {j}) misclassified"
                );
            }
        }
    }

    /// A table over `states` with rows `lists`, built through incremental
    /// pushes — the representation path discovery takes.
    fn table_from_lists(states: Vec<u8>, lists: &[Vec<u32>]) -> TransitionTable<RotMod> {
        let mut rows = AdjRows::new();
        for _ in 0..states.len() {
            rows.push_slot();
        }
        for (i, ids) in lists.iter().enumerate() {
            for &j in ids {
                rows.push(i, j as usize);
            }
        }
        TransitionTable::from_parts(
            states,
            Rows::Flat(rows),
            HashMap::with_hasher(FxBuildHasher::default()),
            true,
        )
    }

    /// `save_quotient` of `table`, through a temp path unique to `tag`.
    fn try_save_quotient(
        table: &TransitionTable<RotMod>,
        p: &RotMod,
        tag: &str,
    ) -> Result<(), crate::transition_store::StoreError> {
        let path = std::env::temp_dir().join(format!(
            "pp-quotient-coherence-{tag}-{}.ppts",
            std::process::id()
        ));
        let saved = crate::transition_store::save_quotient(table, p, &path);
        let _ = std::fs::remove_file(&path);
        saved.map(|_| ())
    }

    /// Tampers with non-representative row `t` of `quotient_table(RotMod(m))`
    /// (drop one id; swap one id for an absent one) and asserts that
    /// `save_quotient` rejects each tampered table naming row `t`, with the
    /// tampered row stored `dense` or sparse as asked.
    fn assert_incoherent_rows_rejected(m: u8, t: usize, dense: bool) {
        let p = RotMod::new(m);
        let lists = quotient_table(&p).unwrap().dump().rows;
        try_save_quotient(
            &table_from_lists(p.states(), &lists),
            &p,
            &format!("{m}-ok"),
        )
        .expect("the untampered table is coherent");
        let absent = (0..u32::from(m)).find(|j| !lists[t].contains(j)).unwrap();
        let mut dropped = lists.clone();
        dropped[t].pop();
        let mut swapped = lists.clone();
        swapped[t].pop();
        swapped[t].push(absent);
        swapped[t].sort_unstable();
        for (how, lists) in [("dropped", dropped), ("swapped", swapped)] {
            let table = table_from_lists(p.states(), &lists);
            let snap = table.snapshot();
            assert_eq!(
                matches!(
                    snap.row(t as u32, &mut Vec::new()),
                    crate::activity::RowRepr::Dense { .. }
                ),
                dense,
                "m = {m}, {how}: row {t} has the wrong storage form"
            );
            match try_save_quotient(&table, &p, &format!("{m}-{how}")) {
                Err(crate::transition_store::StoreError::Quotient(msg)) => assert!(
                    msg.starts_with(&format!("row {t} is not the orbit image")),
                    "m = {m}, {how}: unexpected message {msg:?}"
                ),
                other => panic!("m = {m}, {how}: expected a quotient error, got {other:?}"),
            }
        }
    }

    #[test]
    fn save_quotient_rejects_an_incoherent_sparse_row() {
        // m = 16: rows hold 8 ids (8 payload bytes <= threshold 10).
        assert_incoherent_rows_rejected(16, 5, false);
    }

    #[test]
    fn save_quotient_rejects_an_incoherent_dense_row() {
        // m = 200: rows hold 100 ids (> threshold 33 bytes).
        assert_incoherent_rows_rejected(200, 7, true);
    }

    #[test]
    fn save_quotient_rejects_a_state_set_missing_its_representative() {
        // Every RotMod state canonicalizes to 0; leave 0 out.
        let p = RotMod::new(8);
        let states: Vec<u8> = (1..8).collect();
        let table = table_from_lists(states, &vec![Vec::new(); 7]);
        match try_save_quotient(&table, &p, "no-rep") {
            Err(crate::transition_store::StoreError::Quotient(msg)) => {
                assert!(msg.contains("canonicalizes outside"), "{msg:?}")
            }
            other => panic!("expected a quotient error, got {other:?}"),
        }
    }

    /// An asymmetric toy invariant under rotation of `Z_m`, with a fixed
    /// point: only the initiator moves. A rotating state `a < m` copies a
    /// responder `b < m` at cyclic distance `b − a ∈ {1, 2, 3}`; the hub
    /// `m` (fixed by every rotation, so its stabilizer is the whole group)
    /// absorbs every rotating initiator and is overwritten by every
    /// rotating responder. `(a, a + 1)` is active, `(a + 1, a)` is not.
    #[derive(Debug)]
    struct Chase {
        m: u8,
        quotient: ChaseQuotient,
        calls: std::cell::Cell<u64>,
    }

    #[derive(Debug)]
    struct ChaseQuotient {
        m: u8,
    }

    impl StateQuotient<u8> for ChaseQuotient {
        fn group_order(&self) -> u32 {
            u32::from(self.m)
        }

        fn apply(&self, g: u32, state: &u8) -> u8 {
            if *state == self.m {
                return self.m;
            }
            ((u32::from(*state) + g) % u32::from(self.m)) as u8
        }

        fn canonical_state(&self, state: &u8) -> (u8, u32) {
            if *state == self.m {
                (self.m, 0)
            } else {
                (0, u32::from(*state))
            }
        }
    }

    impl Protocol for Chase {
        type State = u8;
        type Input = u8;
        type Output = u8;

        fn name(&self) -> &str {
            "chase"
        }

        fn input(&self, i: &u8) -> u8 {
            *i % (self.m + 1)
        }

        fn output(&self, s: &u8) -> u8 {
            *s
        }

        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            self.calls.set(self.calls.get() + 1);
            let (m, hub) = (u16::from(self.m), self.m);
            match (*a == hub, *b == hub) {
                (false, false) => {
                    let d = (u16::from(*b) + m - u16::from(*a)) % m;
                    if (1..=3).contains(&d) {
                        (*b, *b)
                    } else {
                        (*a, *b)
                    }
                }
                (false, true) => (hub, hub),
                (true, false) => (*b, *b),
                (true, true) => (hub, hub),
            }
        }

        fn color_quotient(&self) -> Option<&dyn StateQuotient<u8>> {
            Some(&self.quotient)
        }
    }

    impl EnumerableProtocol for Chase {
        fn states(&self) -> Vec<u8> {
            (0..=self.m).collect()
        }
    }

    /// Row and column `t` of `snap`, as walked.
    fn walked(snap: &TableSnapshot<u8>, t: u32) -> (Vec<u32>, Vec<u32>) {
        let (mut out, mut ins) = (Vec::new(), Vec::new());
        snap.walk_out(t, |j| {
            out.push(j as u32);
            true
        });
        snap.walk_in(t, |i| {
            ins.push(i as u32);
            true
        });
        (out, ins)
    }

    #[test]
    fn asymmetric_orbit_rows_match_brute_force_and_round_trip() {
        let m = 10u8;
        let p = Chase {
            m,
            quotient: ChaseQuotient { m },
            calls: std::cell::Cell::new(0),
        };
        assert!(!p.is_symmetric());
        let q = p.color_quotient().unwrap();
        for (a, b) in (0..=m).flat_map(|a| (0..=m).map(move |b| (a, b))) {
            let (x, y) = p.transition(&a, &b);
            for g in 0..u32::from(m) {
                let image = p.transition(&q.apply(g, &a), &q.apply(g, &b));
                assert_eq!(
                    image,
                    (q.apply(g, &x), q.apply(g, &y)),
                    "fixture not equivariant"
                );
            }
        }
        let table = quotient_table(&p).unwrap();
        let snap = table.snapshot();
        let n = u32::from(m) + 1;
        assert_eq!(snap.len(), n as usize);
        let active = |i: u32, j: u32| !p.is_null_interaction(&(i as u8), &(j as u8));
        for t in 0..n {
            let out: Vec<u32> = (0..n).filter(|&j| active(t, j)).collect();
            let ins: Vec<u32> = (0..n).filter(|&i| active(i, t)).collect();
            assert_eq!(walked(&snap, t), (out, ins), "state {t}");
            for j in 0..n {
                assert_eq!(snap.contains(t, j), active(t, j), "pair ({t}, {j})");
            }
        }
        // The hub's in-row holds every rotating state, though only one
        // stored pair, (0, hub), points at it.
        assert_eq!(walked(&snap, n - 1).1.len(), usize::from(m));

        let path = std::env::temp_dir().join(format!("pp-chase-{}.ppts", std::process::id()));
        let meta = crate::transition_store::save_quotient(&table, &p, &path).unwrap();
        assert_eq!(meta.quotient.map(|q| q.reps), Some(2));
        let calls = p.calls.get();
        let loaded = crate::transition_store::load(&p, &path);
        let _ = std::fs::remove_file(&path);
        let loaded = loaded.unwrap();
        assert_eq!(p.calls.get(), calls, "loading makes no protocol calls");
        assert_eq!(loaded.dump(), table.dump());
        let reloaded = loaded.snapshot();
        for t in 0..n {
            assert_eq!(walked(&reloaded, t), walked(&snap, t), "state {t}");
        }

        // A warm replay from the loaded table draws exactly what a cold
        // engine draws.
        let inputs: Vec<u8> = (0..40u8).map(|i| i % (m + 1)).collect();
        let run = |snapshot: Option<Arc<TableSnapshot<u8>>>| {
            let config: CountConfig<u8> = inputs.iter().map(|i| p.input(i)).collect();
            let rng = StdRng::seed_from_u64(5);
            let mut engine: CountEngine<'_, Chase> = match snapshot {
                Some(snap) => CountEngine::with_snapshot_rng(
                    &p,
                    config,
                    UniformCountScheduler::new(),
                    rng,
                    snap,
                ),
                None => CountEngine::with_rng(&p, config, UniformCountScheduler::new(), rng),
            };
            let _ = engine.run_until_silent(200_000);
            engine.report()
        };
        assert_eq!(run(Some(reloaded)), run(None));
    }

    #[test]
    fn quotient_table_requires_a_quotient() {
        struct Plain;
        impl Protocol for Plain {
            type State = u8;
            type Input = u8;
            type Output = u8;
            fn name(&self) -> &str {
                "plain"
            }
            fn input(&self, i: &u8) -> u8 {
                *i
            }
            fn output(&self, s: &u8) -> u8 {
                *s
            }
            fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
                (*a.max(b), *a.max(b))
            }
        }
        impl EnumerableProtocol for Plain {
            fn states(&self) -> Vec<u8> {
                (0..4).collect()
            }
        }
        assert!(matches!(
            quotient_table(&Plain),
            Err(QuotientError::Unsupported)
        ));
    }
}

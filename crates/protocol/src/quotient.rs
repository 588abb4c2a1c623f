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
//! the protocol and expands every other row mechanically through the group
//! action — zero further protocol calls. This is what makes Circles
//! `k = 50` (125 000 states, ~10¹⁰ ordered pairs) buildable in seconds,
//! and it is the in-memory half of the `.ppts` v2 store format (see
//! [`transition_store`](crate::transition_store)).
//!
//! [`CountEngine`](crate::CountEngine) discovery does not consult the
//! quotient: for Circles, one transition call is a few color comparisons,
//! which is cheaper than canonicalizing the pair and probing a memo.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::activity::AdjRows;
use crate::hashing::FxBuildHasher;
use crate::protocol::EnumerableProtocol;
use crate::transition_table::TransitionTable;

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
/// expansion, the v2 store format — is correct exactly when this contract
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
/// every other row is expanded mechanically through the group action —
/// zero further protocol calls.
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

    // Orbit decomposition: per state its representative's tid and the
    // group element mapping the representative onto it.
    let mut rep_of: Vec<(u32, u32)> = Vec::with_capacity(slots);
    let mut rep_index: HashMap<u32, u32, FxBuildHasher> =
        HashMap::with_hasher(FxBuildHasher::default());
    let mut reps: Vec<u32> = Vec::new();
    for s in &states {
        let (canon, g) = quotient.canonical_state(s);
        let &rep_tid = index.get(&canon).ok_or_else(|| {
            QuotientError::NotClosed(format!(
                "canonical representative {canon:?} is not an enumerated state"
            ))
        })?;
        if quotient.apply(g, &canon) != *s {
            return Err(QuotientError::NotClosed(format!(
                "apply(g, canonical) does not recover {s:?}"
            )));
        }
        rep_index.entry(rep_tid).or_insert_with(|| {
            reps.push(rep_tid);
            reps.len() as u32 - 1
        });
        rep_of.push((rep_tid, g));
    }

    // Classify the representatives' rows through the protocol — the only
    // transition calls of the whole build. For swap-equivariant protocols
    // (`is_symmetric`) the bill is halved again: once representative `j`'s
    // row is known, the activity of `(rep_i, g·rep_j)` for any later `i`
    // is `active(rep_j, g⁻¹·rep_i)` — a bit lookup, not a transition call.
    let symmetric = protocol.is_symmetric();
    let row_words = slots.div_ceil(64);
    let mut rep_rows: Vec<Vec<u32>> = Vec::with_capacity(reps.len());
    let mut rep_bits: Vec<Vec<u64>> = Vec::new();
    // inv_perms[g][t] = tid of the state `g` maps onto `states[t]`.
    let mut inv_perms: HashMap<u32, Vec<u32>, FxBuildHasher> =
        HashMap::with_hasher(FxBuildHasher::default());
    for (i, &rt) in reps.iter().enumerate() {
        let rs = &states[rt as usize];
        let mut row: Vec<u32> = Vec::new();
        for t in 0..slots as u32 {
            let (rb_tid, g) = rep_of[t as usize];
            let j = rep_index[&rb_tid] as usize;
            let active = if symmetric && j < i {
                if let Entry::Vacant(e) = inv_perms.entry(g) {
                    let mut inv = vec![u32::MAX; slots];
                    for (src, s) in states.iter().enumerate() {
                        let image = quotient.apply(g, s);
                        let &it = index.get(&image).ok_or_else(|| {
                            QuotientError::NotClosed(format!(
                                "group element {g} maps {s:?} outside the state set"
                            ))
                        })?;
                        inv[it as usize] = src as u32;
                    }
                    e.insert(inv);
                }
                let src = inv_perms[&g][rt as usize];
                if src == u32::MAX {
                    return Err(QuotientError::NotClosed(format!(
                        "group element {g} does not act bijectively on the state set"
                    )));
                }
                rep_bits[j][src as usize / 64] >> (src % 64) & 1 == 1
            } else {
                !protocol.is_null_interaction(rs, &states[t as usize])
            };
            if active {
                row.push(t);
            }
        }
        if symmetric {
            let mut bits = vec![0u64; row_words];
            for &t in &row {
                bits[t as usize / 64] |= 1 << (t % 64);
            }
            rep_bits.push(bits);
        }
        rep_rows.push(row);
    }
    drop(inv_perms);
    drop(rep_bits);

    let rows = expand_orbit_rows(quotient, &states, &index, &rep_of, &rep_index, &rep_rows)
        .map_err(QuotientError::NotClosed)?;
    Ok(TransitionTable::from_parts(
        states,
        rows,
        HashMap::with_hasher(FxBuildHasher::default()),
        protocol.is_symmetric(),
    ))
}

/// Expands per-representative out-rows into the full [`AdjRows`] through
/// the group action: row of `apply(g, rep)` is the image of `rep`'s row
/// under the tid-level permutation of `g`. Shared between
/// [`quotient_table`] and the `.ppts` v2 loader. `rep_of[tid]` is
/// `(rep_tid, g)`; `rep_index` maps a representative's tid to its index in
/// `rep_rows`.
///
/// Rows land in the same representation the incremental discovery path
/// would produce: delta-varint lists while small, blocked bitsets past the
/// [`CompactAdj`](crate::CompactAdj) densify threshold.
pub(crate) fn expand_orbit_rows<S, Q>(
    quotient: &Q,
    states: &[S],
    index: &HashMap<&S, u32, FxBuildHasher>,
    rep_of: &[(u32, u32)],
    rep_index: &HashMap<u32, u32, FxBuildHasher>,
    rep_rows: &[Vec<u32>],
) -> Result<AdjRows, String>
where
    S: Clone + Eq + Hash + fmt::Debug,
    Q: StateQuotient<S> + ?Sized,
{
    let slots = states.len();
    let mut rows = AdjRows::new();
    for _ in 0..slots {
        rows.push_slot();
    }
    let mut images = OrbitImages::new(quotient, index, slots, |t| &states[t as usize]);
    let outside = |g: u32, t: u32| {
        format!(
            "group element {g} maps {:?} outside the state set",
            states[t as usize]
        )
    };
    let threshold = slots / 8 + 8;
    let row_words = slots.div_ceil(64);
    let mut scratch: Vec<u32> = Vec::new();
    for (tid, &(rep_tid, g)) in rep_of.iter().enumerate() {
        let r = rep_index
            .get(&rep_tid)
            .copied()
            .ok_or_else(|| format!("state {tid} names an unlisted representative"))?;
        let rep_row = rep_rows
            .get(r as usize)
            .ok_or_else(|| format!("representative index {r} out of range"))?;
        if tid as u32 == rep_tid {
            // The representative's own row: already in ascending tid order.
            set_sorted_row(&mut rows, tid, rep_row, threshold, row_words);
            continue;
        }
        if rep_row.len() > threshold {
            // A sparse encoding cannot fit (≥ 1 byte per id): go straight
            // to the bitset, which needs no sort.
            let mut blocks = vec![0u64; row_words];
            images
                .scatter(g, rep_row, &mut blocks)
                .map_err(|t| outside(g, t))?;
            rows.set_row_dense(tid, blocks, rep_row.len() as u32);
        } else {
            let perm = images.perm(g).map_err(|t| outside(g, t))?;
            scratch.clear();
            scratch.extend(rep_row.iter().map(|&t| perm[t as usize]));
            scratch.sort_unstable();
            set_sorted_row(&mut rows, tid, &scratch, threshold, row_words);
        }
    }
    Ok(rows)
}

/// The orbit image of a row: the tid-level permutation of each group
/// element, built lazily on first use (`perm(g)[t]` is the tid of
/// `apply(g, state(t))`), and the scatter of a row through it. The one
/// place this image is computed — [`expand_orbit_rows`] and the `.ppts` v2
/// writer's coherence check
/// ([`save_quotient`](crate::transition_store::save_quotient)) share it, so
/// the loader and the writer cannot disagree on what a row's orbit image
/// is.
pub(crate) struct OrbitImages<'a, S, Q: ?Sized, F> {
    quotient: &'a Q,
    index: &'a HashMap<&'a S, u32, FxBuildHasher>,
    slots: usize,
    state: F,
    perms: HashMap<u32, Vec<u32>, FxBuildHasher>,
}

impl<'a, S, Q, F> OrbitImages<'a, S, Q, F>
where
    S: Eq + Hash + 'a,
    Q: StateQuotient<S> + ?Sized,
    F: Fn(u32) -> &'a S,
{
    /// Images over the `slots` states `state(0..slots)`, whose tids
    /// `index` maps back.
    pub(crate) fn new(
        quotient: &'a Q,
        index: &'a HashMap<&'a S, u32, FxBuildHasher>,
        slots: usize,
        state: F,
    ) -> Self {
        OrbitImages {
            quotient,
            index,
            slots,
            state,
            perms: HashMap::with_hasher(FxBuildHasher::default()),
        }
    }

    /// The tid-level permutation of `g`, or `Err(t)` naming a state `g`
    /// maps outside the state set.
    fn perm(&mut self, g: u32) -> Result<&[u32], u32> {
        match self.perms.entry(g) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => {
                let mut perm = Vec::with_capacity(self.slots);
                for t in 0..self.slots as u32 {
                    let image = self.quotient.apply(g, (self.state)(t));
                    perm.push(*self.index.get(&image).ok_or(t)?);
                }
                Ok(e.insert(perm))
            }
        }
    }

    /// ORs the image of `row` under `g` into the bitset `blocks` — no sort,
    /// whatever order `row` is in. `Err(t)` as for [`perm`](Self::perm).
    pub(crate) fn scatter(&mut self, g: u32, row: &[u32], blocks: &mut [u64]) -> Result<(), u32> {
        let perm = self.perm(g)?;
        for &t in row {
            let m = perm[t as usize] as usize;
            blocks[m / 64] |= 1 << (m % 64);
        }
        Ok(())
    }
}

/// Installs `ids` (ascending) as row `tid`, choosing the same sparse/dense
/// representation the incremental path would.
fn set_sorted_row(rows: &mut AdjRows, tid: usize, ids: &[u32], threshold: usize, row_words: usize) {
    if ids.is_empty() {
        return;
    }
    if ids.len() > threshold {
        let mut blocks = vec![0u64; row_words];
        for &m in ids {
            blocks[m as usize / 64] |= 1 << (m % 64);
        }
        rows.set_row_dense(tid, blocks, ids.len() as u32);
        return;
    }
    let mut payload = Vec::with_capacity(ids.len() * 2);
    let mut prev = 0u32;
    for (n, &m) in ids.iter().enumerate() {
        let delta = if n == 0 { m } else { m - prev };
        let mut v = delta;
        while v >= 0x80 {
            payload.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        payload.push(v as u8);
        prev = m;
    }
    // `set_row_varint` densifies by the shared threshold policy itself
    // when the payload turns out too large.
    rows.set_row_varint(tid, ids.len() as u32, prev, &payload);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Protocol;

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
            rows,
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
                    snap.flat_rows().row_repr(t),
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

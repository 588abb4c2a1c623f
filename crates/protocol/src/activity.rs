//! Activity bookkeeping strategies for the count engine.
//!
//! The count engine must know, at every change-point, the total sampling
//! weight of *active* (state-changing) ordered slot pairs — `mass` — plus
//! enough structure to draw one active pair with probability proportional to
//! its weight `c_i · (c_j − [i = j])`. This module isolates that bookkeeping
//! behind the [`Activity`] trait with two implementations:
//!
//! - [`SparseActivity`] (the default): per-slot adjacency lists of active
//!   out-/in-neighbors stored as plain sorted `u32` vectors ([`VecAdj`]),
//!   discovered lazily as states appear. The index keeps exact only what a
//!   draw reads before it picks a row: each slot's in-column sum `col_in`,
//!   one mass sum per 64-row block and the total. A count change at slot
//!   `t` walks only the rows active into `t` (`O(deg)` instead of
//!   `O(slots)`), moving each block run's sum by `delta · Σ c_r` with one
//!   multiply. Row masses are never stored: a conditional pair draw scans
//!   the block sums, computes the row masses of one block on the fly, then
//!   walks one out-row: `O(slots/64 + 64 + deg)`.
//! - [`CompactActivity`]: the same incremental index over a compressed row
//!   store ([`CompactAdj`]) — blocked bitsets for dense rows,
//!   delta-compressed LEB128 lists for sparse rows, chosen per row by
//!   occupancy, with a single shared row set when the protocol is
//!   [symmetric](crate::Protocol::is_symmetric). At `slots ≥ 10^4` it cuts
//!   the bytes per active pair by well over 4× versus [`VecAdj`]'s flat
//!   8 bytes, which is what keeps full-discovery runs feasible toward
//!   `k = 40` Circles.
//!
//! Both iterate rows in ascending slot order, so replaying one schedule
//! through either index produces bit-identical runs; the unit tests check
//! every draw against a brute-force walk over all ordered slot pairs.
//!
//! Discovery itself is also bookkeeping the trait can halve: for symmetric
//! protocols [`Activity::add_slot_symmetric`] derives each mirrored ordered
//! query from its twin, so a new slot costs one protocol call per unordered
//! pair instead of two. [`Activity::add_slot_from_lists`] ingests a slot
//! whose activity is already classified (a warm engine materializing a
//! table-known state; see [`TransitionTable`](crate::TransitionTable))
//! without any protocol calls at all.
//!
//! All pair-weight arithmetic is `u128`, so populations are no longer capped
//! at `u32::MAX` agents (the engine accepts up to `2^63 − 1`).

use crate::count_engine::{AuditError, AuditQuantity};

/// Read-only sampling interface over an activity index, used by
/// [`CountView`](crate::CountView) to answer scheduler queries without
/// exposing the index representation.
pub trait PairSampling {
    /// Whether the ordered slot pair `(i, j)` changes state when it
    /// interacts.
    fn is_active(&self, i: usize, j: usize) -> bool;

    /// Maps the `r`-th unit of active weight to its ordered slot pair:
    /// active pairs are ordered by initiator slot, then responder slot, and
    /// pair `(i, j)` spans `c_i · (c_j − [i = j])` units. Requires
    /// `r < mass`.
    fn sample_change(&self, r: u128, counts: &[u64]) -> (usize, usize);
}

/// Incrementally maintained activity index over the count engine's slots.
///
/// The engine drives implementations through a strict protocol:
/// [`add_slot`](Activity::add_slot) once per newly observed state (counts
/// already extended with a zero entry) and
/// [`count_changed`](Activity::count_changed) once per count delta (counts
/// already updated). Each call must leave [`mass`](Activity::mass) and the
/// sampling structure exact: there is no separate settlement pass, so a
/// draw may follow any delta.
pub trait Activity: PairSampling + Default {
    /// Registers the slot `counts.len() - 1` (which must hold zero agents)
    /// and discovers its activity against all existing slots by querying
    /// `active(i, j)` for every ordered pair involving the new slot.
    fn add_slot(&mut self, counts: &[u64], active: impl FnMut(usize, usize) -> bool);

    /// [`add_slot`](Activity::add_slot) for protocols whose activity is
    /// mirror-invariant (`active(i, j) == active(j, i)`, guaranteed by
    /// [`Protocol::is_symmetric`](crate::Protocol::is_symmetric)):
    /// implementations may answer each mirrored ordered query from its twin
    /// instead of calling `active` twice.
    ///
    /// The default wraps `active` in a last-query memo keyed on the
    /// unordered pair. [`add_slot`](Activity::add_slot) implementations
    /// query the two orientations of each pair back-to-back, so the memo
    /// halves the underlying protocol-transition calls without any storage.
    fn add_slot_symmetric(&mut self, counts: &[u64], mut active: impl FnMut(usize, usize) -> bool) {
        let mut memo: Option<((usize, usize), bool)> = None;
        self.add_slot(counts, move |i, j| {
            let key = if i >= j { (i, j) } else { (j, i) };
            if let Some((k, v)) = memo {
                if k == key {
                    return v;
                }
            }
            let v = active(key.0, key.1);
            memo = Some((key, v));
            v
        });
    }

    /// Declares, before any slot exists, that every pair this index will
    /// ever see is mirror-invariant, letting implementations share storage
    /// between out- and in-rows. Sound only for symmetric protocols; the
    /// default does nothing.
    fn declare_symmetric(&mut self) {}

    /// Registers the slot `counts.len() - 1` (which must hold zero agents)
    /// with its activity *already classified*: `out` lists the existing
    /// slots `j` with `(new, j)` active, `ins` the slots `i` with
    /// `(i, new)` active — both strictly ascending, both excluding the
    /// diagonal, which `diag` covers. The warm engine's lazy
    /// materialization uses this to ingest a table-known slot in
    /// `O(deg)` instead of `O(slots)` activity queries.
    ///
    /// The default replays the lists through [`add_slot`](Activity::add_slot)
    /// with a binary-search membership closure — correct for any
    /// implementation; the bundled indexes override it with direct
    /// `O(deg)` appends.
    fn add_slot_from_lists(&mut self, counts: &[u64], out: &[u32], ins: &[u32], diag: bool) {
        let id = counts.len() - 1;
        self.add_slot(counts, |r, c| {
            if r == c {
                diag
            } else if r == id {
                out.binary_search(&(c as u32)).is_ok()
            } else {
                debug_assert_eq!(c, id, "add_slot queries only pairs involving the new slot");
                ins.binary_search(&(r as u32)).is_ok()
            }
        });
    }

    /// Absorbs a count change of `delta` agents at `slot` (already applied
    /// to the engine's counts), leaving [`mass`](Activity::mass) and the
    /// sampling structure exact.
    fn count_changed(&mut self, slot: usize, delta: i64);

    /// Does nothing: indexes stay exact after every
    /// [`count_changed`](Activity::count_changed). The engine still calls it
    /// once per applied change-point, after the count deltas, only because
    /// the repository benchmark's timing wrapper forwards and counts it.
    fn settle(&mut self, _counts: &[u64]) {}

    /// Total weight of active ordered pairs; zero iff the configuration is
    /// silent.
    fn mass(&self) -> u128;

    /// An empty slice. Row masses are computed per draw, not stored; this
    /// is kept only so that wrapper indexes forwarding to it (the
    /// repository benchmark's timing wrapper) still compile.
    fn row_mass(&self) -> &[u128] {
        &[]
    }

    /// Recomputes the incremental sums this index keeps from `counts` and
    /// its own adjacency and returns the first mismatch, for
    /// [`CountEngine::audit`](crate::CountEngine::audit). The default has
    /// nothing to check.
    ///
    /// # Errors
    ///
    /// The first stored sum that differs from its recomputed value.
    fn audit_sums(&self, _counts: &[u64]) -> Result<(), AuditError> {
        Ok(())
    }

    /// Visits the active out-neighbors of slot `i` in ascending order —
    /// the row-export hook used to hand a discovered adjacency to a
    /// [`TransitionTable`](crate::TransitionTable).
    fn walk_out(&self, i: usize, f: &mut dyn FnMut(usize));

    /// Visits the active in-neighbors of slot `j` (initiators `i` with
    /// `(i, j)` active) in ascending order — the column-export hook
    /// segment publication uses to build in-row extensions without a
    /// transpose pass.
    fn walk_in(&self, j: usize, f: &mut dyn FnMut(usize));

    /// Number of active ordered pairs currently stored.
    fn active_pairs(&self) -> usize;

    /// Heap bytes devoted to pair adjacency — the quantity the compact row
    /// store minimizes. Excludes the per-slot scalar arrays (`col_in`,
    /// counts, …), which are `O(slots)` for every index.
    fn adjacency_bytes(&self) -> usize;
}

/// Row-storage strategy behind an [`AdjActivity`] index: which slots are
/// active against which, in both orientations, with rows kept in ascending
/// responder order.
///
/// Pairs arrive through [`add_pair`](AdjStore::add_pair) during discovery —
/// always involving the newest slot, with the other endpoint ascending per
/// direction — a pattern that lets implementations append to rows without
/// ever inserting mid-row.
pub trait AdjStore: Default + std::fmt::Debug {
    /// Registers the next slot (id `slots()`), with no active pairs yet.
    fn push_slot(&mut self);

    /// Number of registered slots.
    fn slots(&self) -> usize;

    /// Declares (before any slot exists) that the adjacency is symmetric;
    /// implementations may then serve in-row queries from the out-rows.
    fn declare_symmetric(&mut self);

    /// Marks the ordered pair `(i, j)` active. The endpoint equal to the
    /// newest slot anchors the append; the other endpoint must arrive in
    /// ascending order across calls, as [`Activity::add_slot`] discovery
    /// produces.
    fn add_pair(&mut self, i: usize, j: usize);

    /// Whether the ordered pair `(i, j)` is active.
    fn contains(&self, i: usize, j: usize) -> bool;

    /// Visits the out-neighbors of `i` ascending while `f` returns `true`.
    fn walk_out(&self, i: usize, f: impl FnMut(usize) -> bool);

    /// Visits the in-neighbors of `j` (rows `r` with `(r, j)` active)
    /// ascending while `f` returns `true`.
    fn walk_in(&self, j: usize, f: impl FnMut(usize) -> bool);

    /// Active ordered pairs stored.
    fn pairs(&self) -> usize;

    /// Heap bytes of adjacency payload.
    fn bytes(&self) -> usize;
}

/// Plain sorted-`Vec<u32>` row store — one out-row and one in-row per slot,
/// 8 bytes per active pair. The PR-3 representation, kept as the default
/// and as the footprint baseline the compact store is measured against.
#[derive(Debug, Default)]
pub struct VecAdj {
    /// `out[i]`: slots `j` (ascending) with `(i, j)` active.
    out: Vec<Vec<u32>>,
    /// `ins[j]`: slots `i` (ascending) with `(i, j)` active.
    ins: Vec<Vec<u32>>,
    pairs: usize,
}

impl AdjStore for VecAdj {
    fn push_slot(&mut self) {
        self.out.push(Vec::new());
        self.ins.push(Vec::new());
    }

    fn slots(&self) -> usize {
        self.out.len()
    }

    fn declare_symmetric(&mut self) {
        // Keeps both orientations: the flat layout is the measured baseline
        // and stays byte-identical to PR 3 regardless of protocol symmetry.
    }

    fn add_pair(&mut self, i: usize, j: usize) {
        debug_assert!(self.out[i].last().is_none_or(|&l| (l as usize) < j));
        debug_assert!(self.ins[j].last().is_none_or(|&l| (l as usize) < i));
        self.out[i].push(j as u32);
        self.ins[j].push(i as u32);
        self.pairs += 1;
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        self.out[i].binary_search(&(j as u32)).is_ok()
    }

    fn walk_out(&self, i: usize, mut f: impl FnMut(usize) -> bool) {
        for &j in &self.out[i] {
            if !f(j as usize) {
                return;
            }
        }
    }

    fn walk_in(&self, j: usize, mut f: impl FnMut(usize) -> bool) {
        for &i in &self.ins[j] {
            if !f(i as usize) {
                return;
            }
        }
    }

    fn pairs(&self) -> usize {
        self.pairs
    }

    fn bytes(&self) -> usize {
        let payload = |rows: &[Vec<u32>]| -> usize { rows.iter().map(|r| r.capacity() * 4).sum() };
        payload(&self.out) + payload(&self.ins)
    }
}

/// One compressed adjacency row: delta-LEB128 while sparse, a blocked
/// bitset once the varint payload would outgrow one. Both representations
/// iterate in ascending id order, so draws agree bit-for-bit with the flat
/// rows.
#[derive(Debug, Clone)]
enum CompactRow {
    /// Ascending ids as LEB128 varints: the first id absolute, then gaps.
    Sparse { bytes: Vec<u8>, last: u32, len: u32 },
    /// Bitset blocked into `u64` words, indexed by id.
    Dense { blocks: Vec<u64>, len: u32 },
}

/// Appends one LEB128 varint.
fn push_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

impl CompactRow {
    fn new() -> Self {
        CompactRow::Sparse {
            bytes: Vec::new(),
            last: 0,
            len: 0,
        }
    }

    /// Appends `id` (strictly greater than every stored id) and converts to
    /// a bitset when the varint payload would exceed one over `slots`
    /// columns.
    fn push(&mut self, id: u32, slots: usize) {
        match self {
            CompactRow::Sparse { bytes, last, len } => {
                debug_assert!(*len == 0 || id > *last, "row ids must ascend");
                let gap = if *len == 0 { id } else { id - *last };
                push_varint(bytes, gap);
                *last = id;
                *len += 1;
                // Bitset payload is slots/8 bytes; the +8 slack keeps tiny
                // rows from flip-flopping representations. Ids may exceed
                // `slots` (segment extension rows address columns past their
                // own row count), so the block count covers the largest
                // stored id too.
                if bytes.len() > slots / 8 + 8 {
                    let blocks_len = slots.div_ceil(64).max(id as usize / 64 + 1);
                    let mut blocks = vec![0u64; blocks_len];
                    let count = *len;
                    self.walk(|j| {
                        blocks[j as usize / 64] |= 1 << (j % 64);
                        true
                    });
                    *self = CompactRow::Dense { blocks, len: count };
                }
            }
            CompactRow::Dense { blocks, len } => {
                let block = id as usize / 64;
                if block >= blocks.len() {
                    blocks.resize(block + 1, 0);
                }
                debug_assert_eq!(blocks[block] >> (id % 64) & 1, 0, "duplicate id");
                blocks[block] |= 1 << (id % 64);
                *len += 1;
            }
        }
    }

    /// Visits stored ids ascending while `f` returns `true`.
    fn walk(&self, mut f: impl FnMut(u32) -> bool) {
        match self {
            CompactRow::Sparse { bytes, len, .. } => {
                let mut iter = bytes.iter();
                let mut cur = 0u32;
                for k in 0..*len {
                    let mut v = 0u32;
                    let mut shift = 0;
                    loop {
                        let byte = *iter.next().expect("varint row truncated");
                        v |= u32::from(byte & 0x7f) << shift;
                        if byte & 0x80 == 0 {
                            break;
                        }
                        shift += 7;
                    }
                    cur = if k == 0 { v } else { cur + v };
                    if !f(cur) {
                        return;
                    }
                }
            }
            CompactRow::Dense { blocks, .. } => {
                for (b, &word) in blocks.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let j = (b as u32) * 64 + bits.trailing_zeros();
                        if !f(j) {
                            return;
                        }
                        bits &= bits - 1;
                    }
                }
            }
        }
    }

    fn contains(&self, id: u32) -> bool {
        match self {
            CompactRow::Sparse { .. } => {
                let mut found = false;
                self.walk(|j| {
                    if j >= id {
                        found = j == id;
                        return false;
                    }
                    true
                });
                found
            }
            CompactRow::Dense { blocks, .. } => blocks
                .get(id as usize / 64)
                .is_some_and(|word| word >> (id % 64) & 1 == 1),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            CompactRow::Sparse { bytes, .. } => bytes.capacity(),
            CompactRow::Dense { blocks, .. } => blocks.capacity() * 8,
        }
    }

    /// Releases append slack — bulk loads call this once per row so the
    /// reported footprint is tight.
    fn shrink(&mut self) {
        match self {
            CompactRow::Sparse { bytes, .. } => bytes.shrink_to_fit(),
            CompactRow::Dense { blocks, .. } => blocks.shrink_to_fit(),
        }
    }
}

/// A borrowed view of one [`AdjRows`] row in its stored representation,
/// as returned by [`AdjRows::row_repr`] — what the on-disk transition
/// store persists verbatim.
#[derive(Debug, Clone, Copy)]
pub enum RowRepr<'a> {
    /// Delta-LEB128 payload: `len` ascending ids, the first absolute, the
    /// rest strictly positive gaps; `last` is the largest id.
    Sparse {
        /// The raw varint payload.
        payload: &'a [u8],
        /// Largest id in the row (`0` when empty).
        last: u32,
        /// Number of ids encoded.
        len: u32,
    },
    /// Blocked bitset: bit `j` of `blocks[j / 64]` set iff `j` is stored.
    Dense {
        /// The bitset words; trailing all-zero words may be absent.
        blocks: &'a [u64],
        /// Number of bits set.
        len: u32,
    },
}

/// An owned, compressed set of adjacency out-rows — the interchange format
/// between a [`TransitionTable`](crate::TransitionTable) and the activity
/// indexes. Rows use the same per-row representation as [`CompactAdj`]
/// (delta-varint or blocked bitset), so loading a compact index from a
/// table clones ~bytes instead of re-encoding tens of millions of pairs.
#[derive(Debug, Clone, Default)]
pub struct AdjRows {
    rows: Vec<CompactRow>,
    pairs: usize,
}

impl AdjRows {
    /// An empty row set.
    pub fn new() -> Self {
        AdjRows::default()
    }

    /// Number of rows (slots).
    pub fn slots(&self) -> usize {
        self.rows.len()
    }

    /// Total active ordered pairs stored.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Appends an empty row.
    pub fn push_slot(&mut self) {
        self.rows.push(CompactRow::new());
    }

    /// Appends `j` to row `i`; `j` must exceed every id already in the row.
    pub fn push(&mut self, i: usize, j: usize) {
        let slots = self.rows.len();
        self.rows[i].push(j as u32, slots);
        self.pairs += 1;
    }

    /// Visits row `i` ascending while `f` returns `true`.
    pub fn walk(&self, i: usize, mut f: impl FnMut(usize) -> bool) {
        self.rows[i].walk(|j| f(j as usize));
    }

    /// Adopts row `i` wholesale from its delta-LEB128 payload: `count`
    /// ascending ids, the first absolute, the rest strictly positive gaps,
    /// the largest being `last` — exactly the per-row encoding the on-disk
    /// transition store persists. The densification policy matches
    /// incremental [`push`](Self::push)es (the choice depends only on the
    /// final payload length, which grows monotonically), so bulk loads
    /// build representation-identical rows while skipping the per-id
    /// re-encode — the store loader's fast path.
    ///
    /// The caller is responsible for the payload invariants (the store
    /// loader validates them during its decode pass); each varint must
    /// span at most 5 bytes so ids stay within `u32`. A malformed payload
    /// corrupts this row's iteration, never memory safety. The row must
    /// still be empty.
    pub fn set_row_varint(&mut self, i: usize, count: u32, last: u32, payload: &[u8]) {
        self.set_row_payload(i, count, last, payload, self.rows.len());
    }

    /// [`set_row_varint`](Self::set_row_varint) for rows whose ids range
    /// over `columns` states rather than over [`slots`](Self::slots) — the
    /// representative rows of an orbit-form quotient table, which hold one
    /// row per orbit but address every state.
    pub(crate) fn set_row_payload(
        &mut self,
        i: usize,
        count: u32,
        last: u32,
        payload: &[u8],
        columns: usize,
    ) {
        debug_assert_eq!(self.rows[i].bytes(), 0, "row {i} must be empty");
        self.pairs += count as usize;
        let row = CompactRow::Sparse {
            bytes: payload.to_vec(),
            last,
            len: count,
        };
        self.rows[i] = if count > 0 && payload.len() > columns / 8 + 8 {
            let mut blocks = vec![0u64; columns.div_ceil(64)];
            row.walk(|j| {
                blocks[j as usize / 64] |= 1 << (j % 64);
                true
            });
            CompactRow::Dense { blocks, len: count }
        } else {
            row
        };
    }

    /// Adopts row `i` wholesale as a blocked bitset: bit `j` of
    /// `blocks[j / 64]` set iff pair `(i, j)` is active, `len` bits set in
    /// total. This is the store loader's fast path for dense rows — a
    /// straight word copy instead of tens of thousands of varint decodes.
    /// The caller validates the bits (none at or beyond
    /// [`slots`](Self::slots), popcount equal to `len`); the row must still
    /// be empty.
    pub fn set_row_dense(&mut self, i: usize, blocks: Vec<u64>, len: u32) {
        debug_assert_eq!(self.rows[i].bytes(), 0, "row {i} must be empty");
        debug_assert_eq!(
            blocks.iter().map(|w| w.count_ones()).sum::<u32>(),
            len,
            "row {i}: popcount disagrees with len"
        );
        self.pairs += len as usize;
        self.rows[i] = CompactRow::Dense { blocks, len };
    }

    /// Adopts row `i` from a bitset over `columns` ids, in the
    /// representation incremental pushes over `columns` slots end in: the
    /// bitset itself when the delta-varint payload would outgrow the
    /// densify threshold, the payload otherwise. The row must still be
    /// empty.
    pub(crate) fn set_row_bits(&mut self, i: usize, blocks: Vec<u64>, columns: usize) {
        let len: u32 = blocks.iter().map(|w| w.count_ones()).sum();
        let threshold = columns / 8 + 8;
        // Every id costs at least one payload byte.
        if len as usize <= threshold {
            let mut payload = Vec::new();
            let mut last = 0u32;
            for (w, &word) in blocks.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = (w as u32) * 64 + bits.trailing_zeros();
                    let gap = if payload.is_empty() { j } else { j - last };
                    push_varint(&mut payload, gap);
                    last = j;
                    bits &= bits - 1;
                }
            }
            if payload.len() <= threshold {
                self.set_row_payload(i, len, last, &payload, columns);
                return;
            }
        }
        self.set_row_dense(i, blocks, len);
    }

    /// Borrows row `i`'s stored representation — the zero-copy view
    /// [`save`](crate::transition_store::save) persists. Which variant a
    /// row uses is a pure function of its contents (see
    /// [`set_row_varint`](Self::set_row_varint)), so equal row sets expose
    /// equal representations.
    pub fn row_repr(&self, i: usize) -> RowRepr<'_> {
        match &self.rows[i] {
            CompactRow::Sparse { bytes, last, len } => RowRepr::Sparse {
                payload: bytes,
                last: *last,
                len: *len,
            },
            CompactRow::Dense { blocks, len } => RowRepr::Dense { blocks, len: *len },
        }
    }

    /// Number of ids in row `i`.
    pub(crate) fn row_len(&self, i: usize) -> usize {
        match &self.rows[i] {
            CompactRow::Sparse { len, .. } | CompactRow::Dense { len, .. } => *len as usize,
        }
    }

    /// Whether row `i` contains `j`.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.rows[i].contains(j as u32)
    }

    /// Builds rows from a generator: `f(i, push)` must call `push(j)` for
    /// every active `(i, j)` in ascending `j`.
    pub fn from_fn(slots: usize, f: impl Fn(usize, &mut dyn FnMut(usize))) -> Self {
        let mut rows = AdjRows::new();
        for _ in 0..slots {
            rows.push_slot();
        }
        for i in 0..slots {
            f(i, &mut |j| rows.push(i, j));
        }
        rows
    }

    /// Expands to plain sorted id vectors (tests and table dumps).
    pub fn to_vecs(&self) -> Vec<Vec<u32>> {
        self.rows
            .iter()
            .map(|row| {
                let mut v = Vec::new();
                row.walk(|j| {
                    v.push(j);
                    true
                });
                v
            })
            .collect()
    }

    /// Heap bytes of row payload.
    pub fn bytes(&self) -> usize {
        self.rows.iter().map(CompactRow::bytes).sum()
    }

    /// The transposed row set: row `j` of the result holds every `i` with
    /// `(i, j)` stored here. One decode pass; rows of the result are built
    /// in ascending order because the outer walk ascends.
    pub fn transpose(&self) -> AdjRows {
        let slots = self.slots();
        let mut out = AdjRows::new();
        for _ in 0..slots {
            out.push_slot();
        }
        for i in 0..slots {
            self.walk(i, |j| {
                out.push(j, i);
                true
            });
        }
        for row in &mut out.rows {
            row.shrink();
        }
        out
    }
}

/// Compressed per-row adjacency store: delta-LEB128 lists for sparse rows,
/// blocked bitsets for dense rows (chosen per row by payload size), and a
/// single shared row set when the adjacency is
/// [declared symmetric](AdjStore::declare_symmetric) — in-rows then *are*
/// the out-rows, since a symmetric activity matrix equals its transpose.
#[derive(Debug)]
pub struct CompactAdj {
    out: Vec<CompactRow>,
    /// `None` once declared symmetric: in-queries are served from `out`.
    ins: Option<Vec<CompactRow>>,
    pairs: usize,
}

impl Default for CompactAdj {
    fn default() -> Self {
        CompactAdj {
            out: Vec::new(),
            ins: Some(Vec::new()),
            pairs: 0,
        }
    }
}

impl AdjStore for CompactAdj {
    fn push_slot(&mut self) {
        self.out.push(CompactRow::new());
        if let Some(ins) = &mut self.ins {
            ins.push(CompactRow::new());
        }
    }

    fn slots(&self) -> usize {
        self.out.len()
    }

    fn declare_symmetric(&mut self) {
        assert!(
            self.out.is_empty(),
            "symmetry must be declared before any slot exists"
        );
        self.ins = None;
    }

    fn add_pair(&mut self, i: usize, j: usize) {
        let slots = self.out.len();
        self.out[i].push(j as u32, slots);
        if let Some(ins) = &mut self.ins {
            ins[j].push(i as u32, slots);
        }
        self.pairs += 1;
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        self.out[i].contains(j as u32)
    }

    fn walk_out(&self, i: usize, mut f: impl FnMut(usize) -> bool) {
        self.out[i].walk(|j| f(j as usize));
    }

    fn walk_in(&self, j: usize, mut f: impl FnMut(usize) -> bool) {
        // Symmetric adjacency: row j of the transpose is row j itself.
        let rows = self.ins.as_ref().unwrap_or(&self.out);
        rows[j].walk(|i| f(i as usize));
    }

    fn pairs(&self) -> usize {
        self.pairs
    }

    fn bytes(&self) -> usize {
        let payload = |rows: &[CompactRow]| -> usize { rows.iter().map(CompactRow::bytes).sum() };
        payload(&self.out) + self.ins.as_deref().map_or(0, payload)
    }
}

/// Rows per block of the sampling index: [`AdjActivity`] keeps one mass
/// sum per block, so a draw scans `slots / BLOCK` block sums and then
/// computes at most `BLOCK` row masses.
const BLOCK: usize = 64;

/// Adjacency-list activity index generic over its row storage — see the
/// [module docs](self). [`SparseActivity`] and [`CompactActivity`] are the
/// two instantiations.
#[derive(Debug)]
pub struct AdjActivity<R: AdjStore> {
    adj: R,
    /// Whether the diagonal pair `(i, i)` is active.
    diag: Vec<bool>,
    /// The index's own copy of the slot counts:
    /// [`count_changed`](Activity::count_changed) receives only deltas.
    counts: Vec<u64>,
    /// `col_in[i] = Σ_j active(i, j) · c_j`.
    pub(crate) col_in: Vec<u64>,
    /// `block_mass[b]` sums the row masses `c_r · col_in[r] − [diag_r] · c_r`
    /// of the rows `r / BLOCK == b`.
    pub(crate) block_mass: Vec<u128>,
    mass: u128,
}

/// Sparse per-slot adjacency activity index over plain sorted vectors —
/// the default; see the [module docs](self).
pub type SparseActivity = AdjActivity<VecAdj>;

/// The adjacency activity index over the compressed row store — the
/// memory-lean choice for large slot tables; see the [module docs](self).
pub type CompactActivity = AdjActivity<CompactAdj>;

impl<R: AdjStore> Default for AdjActivity<R> {
    fn default() -> Self {
        AdjActivity {
            adj: R::default(),
            diag: Vec::new(),
            counts: Vec::new(),
            col_in: Vec::new(),
            block_mass: Vec::new(),
            mass: 0,
        }
    }
}

impl<R: AdjStore> AdjActivity<R> {
    /// Registers the next slot's scalar state — no agents, zero mass —
    /// opening a new block every [`BLOCK`] rows. Returns the new slot id.
    fn push_row(&mut self, diag: bool) -> usize {
        let id = self.adj.slots();
        assert!(id < u32::MAX as usize, "slot ids exceed u32");
        self.adj.push_slot();
        self.diag.push(diag);
        self.counts.push(0);
        self.col_in.push(0);
        if id.is_multiple_of(BLOCK) {
            self.block_mass.push(0);
        }
        id
    }

    /// Row `r`'s active weight `c_r · col_in[r] − [diag_r] · c_r`.
    #[inline]
    fn mass_of_row(&self, r: usize) -> u128 {
        let c = u128::from(self.counts[r]);
        c * u128::from(self.col_in[r]) - if self.diag[r] { c } else { 0 }
    }
}

/// Adds the signed `delta` to a block sum or the total; every such sum
/// stays at most `n(n − 1) < 2^126`, so `i128` deltas cannot overflow.
#[inline]
fn shift(sum: &mut u128, delta: i128) {
    *sum = sum.checked_add_signed(delta).expect("mass underflow");
}

/// Index of the entry holding the `rem`-th unit of `masses`' running
/// total, with `rem` reduced to the offset inside that entry.
#[inline]
fn find_unit(mut masses: impl Iterator<Item = u128>, rem: &mut u128) -> Option<usize> {
    masses.position(|m| {
        if *rem < m {
            return true;
        }
        *rem -= m;
        false
    })
}

impl<R: AdjStore> PairSampling for AdjActivity<R> {
    fn is_active(&self, i: usize, j: usize) -> bool {
        self.adj.contains(i, j)
    }

    fn sample_change(&self, r: u128, counts: &[u64]) -> (usize, usize) {
        // Blocks, then the rows of one block, then the out-row: the same
        // (initiator, responder) order as one flat walk over every pair.
        let mut rem = r;
        let block = find_unit(self.block_mass.iter().copied(), &mut rem)
            .expect("sampling walked past the total mass");
        let start = block * BLOCK;
        let rows = start..self.counts.len().min(start + BLOCK);
        let i = start
            + find_unit(rows.map(|row| self.mass_of_row(row)), &mut rem)
                .expect("block mass out of sync with row masses");
        let ci = u128::from(counts[i]);
        let mut found = usize::MAX;
        self.adj.walk_out(i, |j| {
            let w = ci * u128::from(counts[j].saturating_sub(u64::from(i == j)));
            if rem < w {
                found = j;
                return false;
            }
            rem -= w;
            true
        });
        assert!(
            found != usize::MAX,
            "row mass out of sync with pair weights"
        );
        (i, found)
    }
}

impl<R: AdjStore> Activity for AdjActivity<R> {
    fn add_slot(&mut self, counts: &[u64], mut active: impl FnMut(usize, usize) -> bool) {
        let id = self.push_row(false);
        debug_assert_eq!(counts.len(), id + 1, "counts not extended for new slot");
        debug_assert_eq!(counts[id], 0, "new slot must hold zero agents");
        for j in 0..id {
            if active(id, j) {
                self.adj.add_pair(id, j);
            }
            if active(j, id) {
                self.adj.add_pair(j, id);
            }
        }
        if active(id, id) {
            self.adj.add_pair(id, id);
            self.diag[id] = true;
        }
        // The new slot holds no agents, so no existing col_in or block sum
        // changes; only the new row's col_in must be summed once.
        let mut col_in = 0u64;
        self.adj.walk_out(id, |j| {
            col_in += counts[j];
            true
        });
        self.col_in[id] = col_in;
    }

    fn declare_symmetric(&mut self) {
        self.adj.declare_symmetric();
    }

    fn add_slot_from_lists(&mut self, counts: &[u64], out: &[u32], ins: &[u32], diag: bool) {
        let id = self.push_row(diag);
        debug_assert_eq!(counts.len(), id + 1, "counts not extended for new slot");
        debug_assert_eq!(counts[id], 0, "new slot must hold zero agents");
        // Out-row first (responders ascending), then the in-column
        // (initiators ascending), then the diagonal — every row receives
        // its appends in ascending id order, as add_pair requires.
        for &j in out {
            debug_assert!((j as usize) < id);
            self.adj.add_pair(id, j as usize);
        }
        for &i in ins {
            debug_assert!((i as usize) < id);
            self.adj.add_pair(i as usize, id);
        }
        if diag {
            self.adj.add_pair(id, id);
        }
        // The new slot holds no agents, so existing col_in and block sums
        // are untouched; the new row's col_in sums its responder counts
        // (the diagonal contributes the slot's own zero count).
        self.col_in[id] = out.iter().map(|&j| counts[j as usize]).sum();
    }

    // Out of line: the engine calls this up to four times per change-point,
    // and four inlined copies made small-slot runs (k = 3) measurably slower.
    #[inline(never)]
    fn count_changed(&mut self, slot: usize, delta: i64) {
        let old_row = self.mass_of_row(slot);
        let new_count = self.counts[slot]
            .checked_add_signed(delta)
            .expect("state count underflow");
        // Every other row r active into `slot` gains `delta · c_r`. The
        // slot's own row is updated separately below, so its count reads as
        // zero during the walk. In-row walks ascend, so the rows arrive in
        // runs that share a block: each run's counts sum in a register
        // (Σ c_r ≤ n < 2^63) and reach its block sum with one multiply.
        // `col_in[r]` includes the slot's old count, and the new count was
        // checked non-negative above, so the plain add cannot wrap.
        self.counts[slot] = 0;
        let (counts, col_in, block_mass) = (&self.counts, &mut self.col_in, &mut self.block_mass);
        let (mut block, mut run, mut total) = (0, 0u64, 0u64);
        self.adj.walk_in(slot, |r| {
            col_in[r] = col_in[r].wrapping_add_signed(delta);
            if r / BLOCK != block {
                if run > 0 {
                    shift(&mut block_mass[block], i128::from(delta) * i128::from(run));
                    total += run;
                }
                (block, run) = (r / BLOCK, 0);
            }
            run += counts[r];
            true
        });
        shift(&mut block_mass[block], i128::from(delta) * i128::from(run));
        // The slot's own row moves with both its count and, through an
        // active diagonal, its col_in.
        self.counts[slot] = new_count;
        let own = self.mass_of_row(slot) as i128 - old_row as i128;
        shift(&mut self.block_mass[slot / BLOCK], own);
        shift(
            &mut self.mass,
            i128::from(delta) * i128::from(total + run) + own,
        );
    }

    fn mass(&self) -> u128 {
        self.mass
    }

    /// Checks every slot's `col_in[i] = Σ_{j ∈ out(i)} c_j` by ascending
    /// slot and each block's sum after its last slot.
    fn audit_sums(&self, counts: &[u64]) -> Result<(), AuditError> {
        use AuditQuantity::{BlockMass, ColIn};
        for (b, &stored) in self.block_mass.iter().enumerate() {
            let start = b * BLOCK;
            let mut block = 0u128;
            for i in start..counts.len().min(start + BLOCK) {
                let (mut col_in, mut responders) = (0u128, 0u128);
                self.adj.walk_out(i, |j| {
                    col_in += u128::from(counts[j]);
                    responders += u128::from(counts[j].saturating_sub(u64::from(i == j)));
                    true
                });
                AuditError::check(ColIn, Some(i), self.col_in[i].into(), col_in)?;
                block += u128::from(counts[i]) * responders;
            }
            AuditError::check(BlockMass, Some(start), stored, block)?;
        }
        Ok(())
    }

    fn walk_out(&self, i: usize, f: &mut dyn FnMut(usize)) {
        self.adj.walk_out(i, |j| {
            f(j);
            true
        });
    }

    fn walk_in(&self, j: usize, f: &mut dyn FnMut(usize)) {
        self.adj.walk_in(j, |i| {
            f(i);
            true
        });
    }

    fn active_pairs(&self) -> usize {
        self.adj.pairs()
    }

    fn adjacency_bytes(&self) -> usize {
        self.adj.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Total weight of active ordered pairs, by brute force.
    fn bruteforce_mass(active: impl Fn(usize, usize) -> bool, counts: &[u64]) -> u128 {
        let mut mass = 0u128;
        for i in 0..counts.len() {
            for j in 0..counts.len() {
                if active(i, j) {
                    mass += u128::from(counts[i])
                        * u128::from(counts[j].saturating_sub(u64::from(i == j)));
                }
            }
        }
        mass
    }

    /// The sampling law every index must reproduce, by brute force: walk
    /// the ordered pairs `(i, j)` by initiator, then responder, each active
    /// pair spanning `c_i · (c_j − [i = j])` units, and return the pair the
    /// `r`-th unit lands on.
    fn bruteforce_sample(
        active: impl Fn(usize, usize) -> bool,
        counts: &[u64],
        r: u128,
    ) -> (usize, usize) {
        let mut rem = r;
        for i in 0..counts.len() {
            for j in 0..counts.len() {
                if !active(i, j) {
                    continue;
                }
                let w =
                    u128::from(counts[i]) * u128::from(counts[j].saturating_sub(u64::from(i == j)));
                if rem < w {
                    return (i, j);
                }
                rem -= w;
            }
        }
        panic!("r = {r} lies past the total mass");
    }

    /// Asserts every sum the index keeps against brute force: each slot's
    /// `col_in`, each block sum, and the total mass.
    fn assert_sums_exact<R: AdjStore>(
        idx: &AdjActivity<R>,
        active: impl Fn(usize, usize) -> bool,
        counts: &[u64],
        what: &str,
    ) {
        assert_eq!(idx.block_mass.len(), counts.len().div_ceil(BLOCK), "{what}");
        let mut blocks = vec![0u128; idx.block_mass.len()];
        for i in 0..counts.len() {
            let (mut col_in, mut responders) = (0u64, 0u64);
            for j in (0..counts.len()).filter(|&j| active(i, j)) {
                col_in += counts[j];
                responders += counts[j].saturating_sub(u64::from(i == j));
            }
            assert_eq!(idx.col_in[i], col_in, "{what}: col_in of slot {i}");
            blocks[i / BLOCK] += u128::from(counts[i]) * u128::from(responders);
        }
        assert_eq!(idx.block_mass, blocks, "{what}: block sums");
        assert_eq!(idx.mass(), blocks.iter().sum(), "{what}: mass");
    }

    /// Drives both indexes through an identical random schedule and checks
    /// them against the brute-force reference after every count change.
    #[test]
    fn all_indexes_agree_with_bruteforce() {
        // Activity rule: (i, j) is active iff (i * 7 + j * 3) % 4 == 0,
        // arbitrary but deterministic and ~25% dense.
        let active = |i: usize, j: usize| (i * 7 + j * 3).is_multiple_of(4);
        let mut rng = StdRng::seed_from_u64(11);
        let mut sparse = SparseActivity::default();
        let mut compact = CompactActivity::default();
        let mut counts: Vec<u64> = Vec::new();

        for round in 0..200 {
            if counts.len() < 12 && round % 8 == 0 {
                counts.push(0);
                sparse.add_slot(&counts, active);
                compact.add_slot(&counts, active);
            }
            let slot = rng.random_range(0..counts.len());
            let delta: i64 = if counts[slot] == 0 {
                3
            } else {
                [-1i64, 1, 2][rng.random_range(0..3usize)]
            };
            counts[slot] = counts[slot].checked_add_signed(delta).unwrap();
            sparse.count_changed(slot, delta);
            compact.count_changed(slot, delta);
            assert_sums_exact(&sparse, active, &counts, &format!("sparse round {round}"));
            assert_sums_exact(&compact, active, &counts, &format!("compact round {round}"));

            let expected = bruteforce_mass(active, &counts);
            if expected > 0 {
                for _ in 0..8 {
                    let r = rng.random_range(0..expected);
                    let drawn = bruteforce_sample(active, &counts, r);
                    assert_eq!(sparse.sample_change(r, &counts), drawn, "r = {r}");
                    assert_eq!(compact.sample_change(r, &counts), drawn, "r = {r}");
                }
            }
            for i in 0..counts.len() {
                for j in 0..counts.len() {
                    assert_eq!(sparse.is_active(i, j), active(i, j));
                    assert_eq!(compact.is_active(i, j), active(i, j));
                }
            }
        }
        assert_eq!(sparse.active_pairs(), compact.active_pairs());
    }

    /// Growing from zero to more than three blocks, with a whole block that
    /// never holds agents (zero-mass block) and every fifth slot empty
    /// (zero-mass rows inside live blocks), every count change must leave
    /// `col_in`, the block sums and the total exact, and every draw — at
    /// `r = 0`, at each block-boundary prefix sum, at `mass − 1` and at
    /// random `r` — must land on the pair the brute-force walk picks.
    #[test]
    fn block_sampling_matches_bruteforce_across_blocks() {
        let active = |i: usize, j: usize| (i + 3 * j).is_multiple_of(17);
        let target = 3 * BLOCK + 8;
        let holds_agents = |s: usize| s / BLOCK != 1 && !s.is_multiple_of(5);
        let mut rng = StdRng::seed_from_u64(21);
        let mut sparse = SparseActivity::default();
        let mut compact = CompactActivity::default();
        let mut counts: Vec<u64> = Vec::new();
        for round in 0..2 * target {
            if counts.len() < target {
                counts.push(0);
                sparse.add_slot(&counts, active);
                compact.add_slot(&counts, active);
            }
            let eligible: Vec<usize> = (0..counts.len()).filter(|&s| holds_agents(s)).collect();
            // Every fourth round makes several changes before the draws.
            let batch = if round % 4 == 3 { 8 } else { 1 };
            for _ in 0..batch.min(eligible.len()) {
                let slot = eligible[rng.random_range(0..eligible.len())];
                let delta: i64 = if counts[slot] == 0 {
                    2
                } else {
                    [-1i64, 1, 3][rng.random_range(0..3usize)]
                };
                counts[slot] = counts[slot].checked_add_signed(delta).unwrap();
                sparse.count_changed(slot, delta);
                compact.count_changed(slot, delta);
                let slots = counts.len();
                assert_sums_exact(
                    &sparse,
                    active,
                    &counts,
                    &format!("sparse at {slots} slots"),
                );
                assert_sums_exact(
                    &compact,
                    active,
                    &counts,
                    &format!("compact at {slots} slots"),
                );
            }

            let mass = bruteforce_mass(active, &counts);
            if mass == 0 {
                continue;
            }
            let boundaries: Vec<u128> = sparse
                .block_mass
                .iter()
                .scan(0u128, |prefix, &m| {
                    let at = *prefix;
                    *prefix += m;
                    Some(at)
                })
                .filter(|&at| at < mass)
                .collect();
            let draws = [0, mass - 1]
                .into_iter()
                .chain(boundaries)
                .chain((0..4).map(|_| rng.random_range(0..mass)));
            for r in draws {
                let expected = bruteforce_sample(active, &counts, r);
                assert_eq!(sparse.sample_change(r, &counts), expected, "r = {r}");
                assert_eq!(compact.sample_change(r, &counts), expected, "r = {r}");
            }
        }
        assert_eq!(counts.len(), target);
        assert!(sparse.block_mass.len() > 3, "grew past three blocks");
        assert_eq!(sparse.block_mass[1], 0, "block 1 stays a zero-mass block");
        assert!(
            (0..target).any(|s| sparse.mass_of_row(s) == 0 && sparse.block_mass[s / BLOCK] > 0),
            "zero-mass rows inside live blocks"
        );
    }

    #[test]
    fn u128_masses_survive_counts_past_u32() {
        // Two slots with ~2^32 agents each: the cross-pair weight alone
        // (~2^64) overflows u64 — the arithmetic must stay exact in u128.
        let active = |i: usize, j: usize| i != j;
        let big = u64::from(u32::MAX) + 7;
        let mut sparse = SparseActivity::default();
        let mut counts = Vec::new();
        for _ in 0..2 {
            counts.push(0);
            sparse.add_slot(&counts, active);
        }
        for (slot, c) in counts.iter_mut().enumerate() {
            *c = big;
            sparse.count_changed(slot, big as i64);
        }
        let expected = 2 * u128::from(big) * u128::from(big);
        assert!(expected > u128::from(u64::MAX));
        assert_eq!(sparse.mass(), expected);
        assert_eq!(sparse.sample_change(0, &counts), (0, 1));
        assert_eq!(sparse.sample_change(expected - 1, &counts), (1, 0));
    }

    /// The symmetric discovery path must produce the exact structure of the
    /// all-ordered-pairs path while querying each unordered pair once.
    #[test]
    fn symmetric_add_slot_halves_queries_and_matches() {
        // A symmetric rule (depends only on the unordered pair).
        let rule = |i: usize, j: usize| (i.max(j) * 5 + i.min(j)).is_multiple_of(3);
        let slots = 40usize;
        let mut counts = Vec::new();
        let mut plain = SparseActivity::default();
        let mut plain_queries = 0u64;
        let mut sym = SparseActivity::default();
        let mut sym_queries = 0u64;
        for s in 0..slots {
            counts.push(0);
            plain.add_slot(&counts, |i, j| {
                plain_queries += 1;
                rule(i, j)
            });
            sym.add_slot_symmetric(&counts, |i, j| {
                sym_queries += 1;
                rule(i, j)
            });
            // Both see the same adjacency after every slot.
            for i in 0..=s {
                for j in 0..=s {
                    assert_eq!(sym.is_active(i, j), plain.is_active(i, j), "({i},{j})");
                }
            }
        }
        assert_eq!(plain.active_pairs(), sym.active_pairs());
        // Plain: 2s+1 queries per slot; symmetric: s+1.
        assert_eq!(plain_queries, (0..slots as u64).map(|s| 2 * s + 1).sum());
        assert_eq!(sym_queries, (0..slots as u64).map(|s| s + 1).sum());
    }

    /// A symmetric-declared compact store serves in-queries from the shared
    /// out-rows and stays bit-compatible with the unshared stores.
    #[test]
    fn symmetric_compact_store_matches_unshared() {
        let rule = |i: usize, j: usize| (i.max(j) + 2 * i.min(j)).is_multiple_of(3);
        let mut rng = StdRng::seed_from_u64(31);
        let mut shared = CompactActivity::default();
        shared.declare_symmetric();
        let mut sparse = SparseActivity::default();
        let mut counts: Vec<u64> = Vec::new();
        for _ in 0..30 {
            counts.push(0);
            shared.add_slot_symmetric(&counts, rule);
            sparse.add_slot(&counts, rule);
            let slot = rng.random_range(0..counts.len());
            let delta = 1 + (slot as i64 % 3);
            counts[slot] += delta as u64;
            shared.count_changed(slot, delta);
            sparse.count_changed(slot, delta);
            assert_eq!(shared.mass(), sparse.mass());
            if shared.mass() > 0 {
                for _ in 0..6 {
                    let r = rng.random_range(0..shared.mass());
                    assert_eq!(
                        shared.sample_change(r, &counts),
                        sparse.sample_change(r, &counts)
                    );
                }
            }
        }
        assert_eq!(shared.active_pairs(), sparse.active_pairs());
        assert!(
            shared.adjacency_bytes() * 2 < sparse.adjacency_bytes(),
            "shared rows must be under half the flat footprint: {} vs {}",
            shared.adjacency_bytes(),
            sparse.adjacency_bytes()
        );
    }

    /// Ingesting pre-classified slots through `add_slot_from_lists` (the
    /// warm engine's lazy materialization hook) must equal per-pair
    /// discovery through `add_slot`, for every index, and change nothing
    /// about subsequent updates.
    #[test]
    fn from_lists_matches_incremental_discovery() {
        let active = |i: usize, j: usize| (3 * i + 5 * j).is_multiple_of(4);
        let slots = 80usize;
        let mut counts = vec![0u64; 0];
        let mut inc_sparse = SparseActivity::default();
        let mut inc_compact = CompactActivity::default();
        for _ in 0..slots {
            counts.push(0);
            inc_sparse.add_slot(&counts, active);
            inc_compact.add_slot(&counts, active);
        }
        let mut loaded_sparse = SparseActivity::default();
        let mut loaded_compact = CompactActivity::default();
        counts.clear();
        for id in 0..slots {
            counts.push(0);
            let out: Vec<u32> = (0..id)
                .filter(|&j| active(id, j))
                .map(|j| j as u32)
                .collect();
            let ins: Vec<u32> = (0..id)
                .filter(|&i| active(i, id))
                .map(|i| i as u32)
                .collect();
            let diag = active(id, id);
            loaded_sparse.add_slot_from_lists(&counts, &out, &ins, diag);
            loaded_compact.add_slot_from_lists(&counts, &out, &ins, diag);
        }

        let mut rng = StdRng::seed_from_u64(41);
        macro_rules! each {
            ($name:ident => $body:expr) => {{
                {
                    let $name = &mut inc_sparse;
                    $body;
                }
                {
                    let $name = &mut inc_compact;
                    $body;
                }
                {
                    let $name = &mut loaded_sparse;
                    $body;
                }
                {
                    let $name = &mut loaded_compact;
                    $body;
                }
            }};
        }
        for _ in 0..100 {
            let slot = rng.random_range(0..slots);
            counts[slot] += 2;
            each!(idx => idx.count_changed(slot, 2));
            let mass = inc_sparse.mass();
            each!(idx => assert_eq!(idx.mass(), mass));
            if mass > 0 {
                let r = rng.random_range(0..mass);
                let expected = inc_sparse.sample_change(r, &counts);
                each!(idx => assert_eq!(idx.sample_change(r, &counts), expected));
            }
        }
    }

    /// High-occupancy rows must convert to bitsets (and sample identically
    /// before and after the conversion).
    #[test]
    fn dense_rows_densify_and_sample_identically() {
        let slots = 400usize;
        // Row 0 is fully active (densifies); the rest nearly empty.
        let active = |i: usize, j: usize| i == 0 || (i + j).is_multiple_of(97);
        let mut compact = CompactActivity::default();
        let mut sparse = SparseActivity::default();
        let mut counts: Vec<u64> = Vec::new();
        for _ in 0..slots {
            counts.push(0);
            compact.add_slot(&counts, active);
            sparse.add_slot(&counts, active);
        }
        for (s, c) in counts.iter_mut().enumerate() {
            *c = 1 + (s as u64 % 5);
            compact.count_changed(s, *c as i64);
            sparse.count_changed(s, *c as i64);
        }
        assert_eq!(compact.mass(), sparse.mass());
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..200 {
            let r = rng.random_range(0..compact.mass());
            assert_eq!(
                compact.sample_change(r, &counts),
                sparse.sample_change(r, &counts),
                "r = {r}"
            );
        }
        // The full row plus the sparse tail must still be well under the
        // flat 8-bytes-per-pair layout, even without shared symmetric rows
        // (the ≥ 4× cut is asserted on the real symmetric workload in the
        // `discovery` bench).
        assert!(
            compact.adjacency_bytes() * 2 < sparse.adjacency_bytes(),
            "compact {} bytes vs flat {} bytes",
            compact.adjacency_bytes(),
            sparse.adjacency_bytes()
        );
        // walk_out must agree across representations.
        for i in [0usize, 1, 97] {
            let mut a = Vec::new();
            Activity::walk_out(&compact, i, &mut |j| a.push(j));
            let mut b = Vec::new();
            Activity::walk_out(&sparse, i, &mut |j| b.push(j));
            assert_eq!(a, b, "row {i}");
        }
    }

    /// Varint rows survive ids needing multi-byte encodings.
    #[test]
    fn varint_rows_roundtrip_large_gaps() {
        let mut row = CompactRow::new();
        let ids = [0u32, 1, 127, 128, 16_383, 16_384, 2_000_000, 2_000_001];
        for &id in &ids {
            row.push(id, 10_000_000);
        }
        let mut seen = Vec::new();
        row.walk(|j| {
            seen.push(j);
            true
        });
        assert_eq!(seen, ids);
        for &id in &ids {
            assert!(row.contains(id));
        }
        assert!(!row.contains(2));
        assert!(!row.contains(3_000_000));
    }
}

//! Versioned, checksummed on-disk persistence for discovered
//! [`TransitionTable`]s.
//!
//! Discovering a protocol's slot structure costs `O(slots²)` transition
//! calls — minutes of wall-clock per process at Circles `k ≳ 40` — yet the
//! result is a pure function of the protocol. This module turns discovery
//! into a build-once artifact: [`save`] serializes a table into a compact,
//! checksummed file and [`load`] bulk-reads it back into a
//! [`TransitionTable`] with **zero protocol calls**, ready to warm-start
//! engines through the lazy-oracle path
//! ([`CountEngine::with_snapshot_rng`](crate::CountEngine::with_snapshot_rng)).
//!
//! The byte-level layout is specified in `docs/transition-store-format.md`;
//! the invariants in short:
//!
//! - **Versioned**: a magic, an endianness marker and a format version gate
//!   every load; unknown versions are rejected, never guessed at.
//! - **Identity-locked**: a 64-bit FNV-1a [`fingerprint`] of the protocol's
//!   name, symmetry flag and
//!   [`fingerprint_param`](Protocol::fingerprint_param) (the color count `k`
//!   for Circles) is stored in the header, so a store built for one protocol
//!   parameterization can never load for another.
//! - **Checksummed**: a whole-file checksum (FNV-1a 64 folded over 8-byte
//!   words, see [`checksum64`]) detects truncation and bit rot; every
//!   corruption path fails loudly with a typed [`StoreError`] — never a
//!   silently wrong table.
//! - **Text states**: states are serialized through their `Display` /
//!   `FromStr` round-trip (the codec the JSONL traces already use), keeping
//!   the format independent of in-memory layout. Rows persist in the dual
//!   representation of [`CompactAdj`](crate::CompactAdj) — delta-varint
//!   lists while sparse, blocked bitsets once dense — so the bulk of a
//!   discovered Circles table loads back as word copies, not one varint
//!   decode per pair.
//!
//! - **Orbit form**: a v2 store ([`save_quotient`]) keeps one row per
//!   color-orbit representative, and [`load`] reads it back in that same
//!   form — a quotient table, like the one
//!   [`quotient_table`](crate::quotient_table) builds, is never expanded in
//!   memory. Only a v1 [`save`] of such a table writes every row out, one
//!   at a time.
//!
//! Files are written atomically and durably (synced temp file + rename +
//! directory sync), so a crashed writer leaves either the previous store or
//! the complete new one. Loads go through one
//! `std::fs::read` bulk read — the workspace forbids `unsafe`, so no
//! memory-mapping; the buffer is released before a v2 load builds the
//! group action's permutations, so a load peaks near twice the file size.

use std::collections::HashMap;
use std::fmt::{self, Display};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::activity::{AdjRows, RowRepr};
use crate::hashing::FxBuildHasher;
use crate::protocol::Protocol;
use crate::quotient::{OrbitRows, Orbits};
use crate::transition_table::{Rows, TransitionTable};

/// Newest format version this build reads. [`save`] writes version 1
/// (every row expanded); [`save_quotient`] writes version 2 — one row per
/// canonical orbit representative plus per-state orbit metadata, which
/// [`load`] keeps in orbit form with zero protocol calls.
pub const FORMAT_VERSION: u32 = 2;

/// The v1 layout: fully expanded rows.
pub const FORMAT_V1: u32 = 1;

/// The v2 layout: quotient representative rows plus orbit metadata (see
/// `docs/transition-store-format.md`).
pub const FORMAT_V2: u32 = 2;

/// Conventional file extension for store files (`.ppts`).
pub const STORE_EXT: &str = "ppts";

const MAGIC: [u8; 8] = *b"PPTABLE\0";
const ENDIAN_MARKER: u32 = 0x1A2B_3C4D;
const HEADER_LEN: usize = 0x88;
const CHECKSUM_OFFSET: usize = 0x80;
const SECTION_TABLE_OFFSET: usize = 0x40;
const FLAG_SYMMETRIC: u32 = 1;
/// Set exactly on v2 files: the rows section holds quotient representative
/// rows plus orbit metadata instead of every row.
const FLAG_QUOTIENT: u32 = 2;

/// Row-encoding flag byte: delta-varint id list.
const ROW_SPARSE: u8 = 0x00;
/// Row-encoding flag byte: blocked bitset.
const ROW_DENSE: u8 = 0x01;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a 64 hash.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The whole-file checksum: FNV-1a 64 folded over little-endian 8-byte
/// words (the trailing partial word zero-padded), with the byte length
/// folded in last so padding cannot alias a longer file. Word folding
/// keeps verification at memory speed on ~100 MB stores, where the
/// canonical byte-at-a-time FNV loop would dominate load time; one
/// multiply per word still diffuses any flipped bit through all later
/// state.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = (h ^ u64::from_le_bytes(word.try_into().expect("8-byte chunk")))
            .wrapping_mul(FNV_PRIME);
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h = (h ^ u64::from_le_bytes(last)).wrapping_mul(FNV_PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

/// The 64-bit identity fingerprint of a protocol parameterization: FNV-1a
/// over the protocol [`name`](Protocol::name), the
/// [`is_symmetric`](Protocol::is_symmetric) flag, whether the protocol
/// exposes a [color quotient](Protocol::color_quotient) (a quotient changes
/// *who answers* discovery queries, so cached tables must not cross that
/// line), and the [`fingerprint_param`](Protocol::fingerprint_param) (the
/// color count `k` for Circles) — separated by a byte that cannot occur in
/// UTF-8, so a name cannot masquerade as a flag.
///
/// [`load`] refuses any store whose header records a different fingerprint,
/// which is what makes cache lookups keyed by this value safe.
pub fn fingerprint<P: Protocol>(protocol: &P) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, protocol.name().as_bytes());
    h = fnv1a(
        h,
        &[
            0xFF,
            u8::from(protocol.is_symmetric()),
            u8::from(protocol.color_quotient().is_some()),
        ],
    );
    fnv1a(h, &protocol.fingerprint_param().to_le_bytes())
}

/// Typed failures of the on-disk store. Every corruption path on the load
/// side maps to a distinct variant so callers can report precisely and fall
/// back to cold discovery — a load never silently yields a wrong table.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the store magic — not a store file.
    BadMagic,
    /// The endianness marker does not decode; the file was produced by an
    /// incompatible writer.
    EndianMismatch,
    /// The header declares a format version this build does not read.
    UnsupportedVersion {
        /// Version recorded in the header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The file is shorter than its header or section table requires.
    Truncated {
        /// Bytes the header/sections require.
        needed: u64,
        /// Bytes actually present.
        len: u64,
    },
    /// The whole-file checksum does not match the stored one.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the file.
        computed: u64,
    },
    /// The store was built for a different protocol parameterization.
    IdentityMismatch {
        /// Fingerprint recorded in the header.
        stored: u64,
        /// Fingerprint of the protocol supplied to [`load`].
        expected: u64,
    },
    /// A section failed structural validation (bad varint, malformed state,
    /// out-of-range id, counts disagreeing with the header).
    Corrupt(String),
    /// A v2 (quotient) store could not be written or loaded: the protocol
    /// exposes no quotient, the state set is not orbit-closed, or the
    /// stored rows are not coherent with the group action.
    Quotient(String),
    /// An [`audit`] re-derivation disagreed with the table contents.
    AuditMismatch(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a transition-table store (bad magic)"),
            StoreError::EndianMismatch => write!(f, "store endianness marker mismatch"),
            StoreError::UnsupportedVersion { found, supported } => write!(
                f,
                "store format version {found} unsupported (this build reads versions 1..={supported})"
            ),
            StoreError::Truncated { needed, len } => {
                write!(f, "store truncated: {len} byte(s) present, {needed} required")
            }
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "store checksum mismatch: header records {stored:#018x}, file hashes to {computed:#018x}"
            ),
            StoreError::IdentityMismatch { stored, expected } => write!(
                f,
                "store fingerprint {stored:#018x} does not match protocol fingerprint {expected:#018x}"
            ),
            StoreError::Corrupt(msg) => write!(f, "store corrupt: {msg}"),
            StoreError::Quotient(msg) => write!(f, "quotient store: {msg}"),
            StoreError::AuditMismatch(msg) => write!(f, "store audit failed: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Quotient statistics of a v2 store, decoded from the fixed prefix of its
/// rows section — available from [`inspect`] without expanding anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotientStats {
    /// Number of canonical orbit representatives whose rows are stored.
    pub reps: u64,
    /// Order of the quotient group (`k` for the Circles rotation quotient).
    pub group_order: u32,
    /// Byte size the same table would occupy in the v1 (expanded) layout —
    /// recorded at save time so `inspect` can report the shrink factor.
    pub v1_bytes: u64,
}

/// Header-level metadata of a store file, as returned by [`inspect`] and
/// [`save`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreMeta {
    /// Protocol name recorded in the store.
    pub protocol: String,
    /// Format version of the file.
    pub version: u32,
    /// Protocol identity fingerprint (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Protocol family parameter (`k` for Circles, `0` by default).
    pub param: u64,
    /// Whether the protocol declared itself symmetric when the store was
    /// written.
    pub symmetric: bool,
    /// Number of canonical states.
    pub states: u64,
    /// Number of active ordered state pairs.
    pub pairs: u64,
    /// Number of memoized transition outcomes.
    pub outcomes: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Whole-file checksum recorded in (and verified against) the header.
    pub checksum: u64,
    /// Quotient statistics — `Some` exactly for v2 files.
    pub quotient: Option<QuotientStats>,
}

/// Appends `v` as an LEB128 varint (7 data bits per byte, high bit set on
/// continuation) — the same encoding `CompactAdj` rows use in memory.
/// Shared with the run-checkpoint codec ([`crate::run_checkpoint`]).
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Bounds-checked reader over one section, with varint decoding.
struct Cursor<'a> {
    section: &'static str,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(section: &'static str, buf: &'a [u8]) -> Self {
        Cursor {
            section,
            buf,
            pos: 0,
        }
    }

    fn varint(&mut self) -> Result<u64, StoreError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let &b = self.buf.get(self.pos).ok_or_else(|| {
                StoreError::Corrupt(format!("{} section ends inside a varint", self.section))
            })?;
            self.pos += 1;
            if shift >= 64 || (shift == 63 && b & 0x7F > 1) {
                return Err(StoreError::Corrupt(format!(
                    "oversized varint in {} section",
                    self.section
                )));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                StoreError::Corrupt(format!("{} section shorter than declared", self.section))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt(format!(
                "{} section has {} trailing byte(s)",
                self.section,
                self.buf.len() - self.pos
            )))
        }
    }
}

pub(crate) fn read_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4-byte slice"))
}

pub(crate) fn read_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8-byte slice"))
}

/// A verified header plus borrowed section slices — magic, endianness,
/// version, section bounds and whole-file checksum already checked.
struct RawStore<'a> {
    version: u32,
    fingerprint: u64,
    param: u64,
    flags: u32,
    states: u64,
    pairs: u64,
    outcomes: u64,
    checksum: u64,
    name: &'a [u8],
    states_sec: &'a [u8],
    rows_sec: &'a [u8],
    outcomes_sec: &'a [u8],
}

fn parse_and_verify(bytes: &mut [u8]) -> Result<RawStore<'_>, StoreError> {
    // A prefix of the magic is a truncated store, not a foreign file.
    let magic_len = MAGIC.len().min(bytes.len());
    if bytes[..magic_len] != MAGIC[..magic_len] {
        return Err(StoreError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            needed: HEADER_LEN as u64,
            len: bytes.len() as u64,
        });
    }
    if read_u32(bytes, 0x08) != ENDIAN_MARKER {
        return Err(StoreError::EndianMismatch);
    }
    let version = read_u32(bytes, 0x0C);
    if !(FORMAT_V1..=FORMAT_VERSION).contains(&version) {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    // Verify integrity before interpreting the rest of the header:
    // [`checksum64`] over the whole file with the checksum field read as
    // zero (zeroed in place here — the field is never consulted again).
    // Truncation past the header surfaces here.
    let stored = read_u64(bytes, CHECKSUM_OFFSET);
    bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
    let computed = checksum64(bytes);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    let bytes = &*bytes;
    // Section bounds; with a passing checksum this only trips on writer
    // bugs, but the guard keeps slicing panic-free by construction.
    let mut sections = [&bytes[..0]; 4];
    for (s, slot) in sections.iter_mut().enumerate() {
        let off = read_u64(bytes, SECTION_TABLE_OFFSET + s * 16);
        let len = read_u64(bytes, SECTION_TABLE_OFFSET + s * 16 + 8);
        let end = off.saturating_add(len);
        if off < HEADER_LEN as u64 || end > bytes.len() as u64 {
            return Err(StoreError::Truncated {
                needed: end,
                len: bytes.len() as u64,
            });
        }
        *slot = &bytes[off as usize..end as usize];
    }
    // The quotient flag and the version must agree: the flag redundantly
    // marks the rows-section layout, so a disagreement is writer damage
    // the checksum cannot see.
    let flags = read_u32(bytes, 0x20);
    if (flags & FLAG_QUOTIENT != 0) != (version == FORMAT_V2) {
        return Err(StoreError::Corrupt(format!(
            "version {version} disagrees with the quotient flag ({flags:#x})"
        )));
    }
    Ok(RawStore {
        version,
        fingerprint: read_u64(bytes, 0x10),
        param: read_u64(bytes, 0x18),
        flags,
        states: read_u64(bytes, 0x28),
        pairs: read_u64(bytes, 0x30),
        outcomes: read_u64(bytes, 0x38),
        checksum: stored,
        name: sections[0],
        states_sec: sections[1],
        rows_sec: sections[2],
        outcomes_sec: sections[3],
    })
}

/// Decodes an (in-memory, trusted) row representation into its ascending
/// id list.
fn row_ids(repr: RowRepr<'_>) -> Vec<u32> {
    match repr {
        RowRepr::Sparse { payload, len, .. } => {
            let mut ids = Vec::with_capacity(len as usize);
            let mut pos = 0;
            let mut cur = 0u32;
            for n in 0..len {
                let mut v = 0u32;
                let mut shift = 0;
                loop {
                    let b = payload[pos];
                    pos += 1;
                    v |= u32::from(b & 0x7F) << shift;
                    if b & 0x80 == 0 {
                        break;
                    }
                    shift += 7;
                }
                cur = if n == 0 { v } else { cur + v };
                ids.push(cur);
            }
            ids
        }
        RowRepr::Dense { blocks, len } => {
            let mut ids = Vec::with_capacity(len as usize);
            for (w, &word) in blocks.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    ids.push((w as u32) * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            ids
        }
    }
}

/// Number of ids in a row.
fn row_len(repr: RowRepr<'_>) -> u32 {
    let (RowRepr::Sparse { len, .. } | RowRepr::Dense { len, .. }) = repr;
    len
}

/// Bytes [`push_varint`] spends on `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The delta-varint payload of an ascending id list — the sparse row wire
/// format.
fn sparse_payload(ids: &[u32]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ids.len() * 2);
    let mut prev = 0u32;
    for (n, &id) in ids.iter().enumerate() {
        push_varint(&mut payload, u64::from(if n == 0 { id } else { id - prev }));
        prev = id;
    }
    payload
}

/// Appends one row's **canonical** v1 encoding: a varint count, then (when
/// non-empty) a flag byte and either the delta-varint payload
/// ([`ROW_SPARSE`]) or `row_words` bitset words ([`ROW_DENSE`]).
///
/// The representation is chosen from the row's *final contents* — sparse
/// iff the delta-varint payload fits `threshold` (the shared
/// [`CompactAdj`](crate::CompactAdj) densify policy) — **not** from the
/// in-memory representation. The two can disagree: incremental discovery
/// densifies against the slot count *at push time*, so a row filled early
/// may sit in a bitset that the final, larger threshold would keep sparse.
/// Re-deciding here is what makes equal tables byte-identical on disk
/// regardless of how they were built — and what [`save_quotient`]'s
/// coherence check relies on: the encoding is a function of the row's
/// contents alone, so two rows encode equally exactly when they are equal.
fn encode_row(out: &mut Vec<u8>, repr: RowRepr<'_>, threshold: usize, row_words: usize) {
    let (RowRepr::Sparse { len, .. } | RowRepr::Dense { len, .. }) = repr;
    push_varint(out, u64::from(len));
    if len == 0 {
        return;
    }
    let dense_bits = |out: &mut Vec<u8>, blocks: &[u64]| {
        out.push(ROW_DENSE);
        // In-memory rows may omit trailing all-zero words; the file always
        // carries `row_words` of them.
        for w in 0..row_words {
            let word = blocks.get(w).copied().unwrap_or(0);
            out.extend_from_slice(&word.to_le_bytes());
        }
    };
    match repr {
        RowRepr::Sparse { payload, .. } if payload.len() <= threshold => {
            out.push(ROW_SPARSE);
            push_varint(out, payload.len() as u64);
            out.extend_from_slice(payload);
        }
        RowRepr::Sparse { .. } => {
            let mut blocks = vec![0u64; row_words];
            for id in row_ids(repr) {
                blocks[id as usize / 64] |= 1 << (id % 64);
            }
            dense_bits(out, &blocks);
        }
        RowRepr::Dense { blocks, len } => {
            // Every id costs at least one payload byte, so a count past
            // the threshold can never round-trip to sparse.
            let payload = (len as usize <= threshold).then(|| sparse_payload(&row_ids(repr)));
            match payload.filter(|p| p.len() <= threshold) {
                Some(p) => {
                    out.push(ROW_SPARSE);
                    push_varint(out, p.len() as u64);
                    out.extend_from_slice(&p);
                }
                None => dense_bits(out, blocks),
            }
        }
    }
}

/// Assembles a complete store file — header (checksum patched in place)
/// followed by the four sections.
#[allow(clippy::too_many_arguments)] // one argument per fixed header field
fn assemble_file(
    version: u32,
    fp: u64,
    param: u64,
    flags: u32,
    states: u64,
    pairs: u64,
    outcomes: u64,
    sections: [&[u8]; 4],
) -> Vec<u8> {
    let body_len: usize = sections.iter().map(|s| s.len()).sum();
    let mut file = Vec::with_capacity(HEADER_LEN + body_len);
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&ENDIAN_MARKER.to_le_bytes());
    file.extend_from_slice(&version.to_le_bytes());
    file.extend_from_slice(&fp.to_le_bytes());
    file.extend_from_slice(&param.to_le_bytes());
    file.extend_from_slice(&flags.to_le_bytes());
    file.extend_from_slice(&0u32.to_le_bytes()); // reserved
    file.extend_from_slice(&states.to_le_bytes());
    file.extend_from_slice(&pairs.to_le_bytes());
    file.extend_from_slice(&outcomes.to_le_bytes());
    let mut off = HEADER_LEN as u64;
    for sec in sections {
        file.extend_from_slice(&off.to_le_bytes());
        file.extend_from_slice(&(sec.len() as u64).to_le_bytes());
        off += sec.len() as u64;
    }
    file.extend_from_slice(&[0u8; 8]); // checksum, patched below
    debug_assert_eq!(file.len(), HEADER_LEN);
    for sec in sections {
        file.extend_from_slice(sec);
    }
    // The placeholder is zero, so hashing the buffer as-is matches the
    // zeroed-field convention the verifier uses.
    let checksum = checksum64(&file);
    file[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
    file
}

/// Atomically and durably writes `bytes` to `path`: a temp file in the
/// target directory is fully written and synced, renamed over `path`, and
/// the directory is synced after the rename — so a crash, power loss
/// included, leaves either the previous file or the complete new one.
/// Shared by the store and run-checkpoint ([`crate::run_checkpoint`])
/// writers.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let stem = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = dir.join(format!(
        ".{stem}.{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let written = fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(bytes)?;
        f.sync_all()
    });
    if let Err(e) = written.and_then(|()| fs::rename(&tmp, path)) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // Only Unix opens (and so syncs) a directory as a file.
    #[cfg(unix)]
    fs::File::open(&dir)?.sync_all()?;
    Ok(())
}

/// Serializes `table` for `protocol` into `path` (the v1 layout: every row
/// expanded).
///
/// The write is atomic and durable (synced temp file + rename + directory
/// sync), so a crash leaves either the previous store or the new one.
/// `P::State: Display` supplies the state codec; [`load`] inverts it
/// through `FromStr`.
///
/// Returns the metadata of the written file.
///
/// # Errors
///
/// [`StoreError::Io`] when the temp file cannot be written, synced or
/// renamed.
pub fn save<P>(
    table: &TransitionTable<P>,
    protocol: &P,
    path: &Path,
) -> Result<StoreMeta, StoreError>
where
    P: Protocol,
    P::State: Display,
{
    // One immutable view of the whole segment chain, read one row at a
    // time: explicit rows zero-copy, orbit-form and multi-segment rows
    // through one reused bitset.
    let snap = table.snapshot();
    let slots = snap.len();

    let name = protocol.name().as_bytes().to_vec();

    let mut states_sec = Vec::new();
    snap.for_each_state(|_, state| {
        let text = state.to_string();
        push_varint(&mut states_sec, text.len() as u64);
        states_sec.extend_from_slice(text.as_bytes());
    });

    // Rows in the canonical per-row encoding (see [`encode_row`]): sparse
    // delta-varints or a blocked bitset, re-decided from final contents so
    // equal tables produce byte-identical files regardless of the order
    // discovery filled them in.
    let row_words = slots.div_ceil(64);
    let threshold = slots / 8 + 8;
    let mut rows_sec = Vec::new();
    let mut scratch = Vec::new();
    let mut pairs = 0u64;
    for i in 0..slots as u32 {
        let row = snap.row(i, &mut scratch);
        pairs += u64::from(row_len(row));
        encode_row(&mut rows_sec, row, threshold, row_words);
    }

    // Outcomes sorted by key pair, so the encoding is canonical: equal
    // tables produce byte-identical files.
    let outcome_list = snap.sorted_outcomes();
    let mut outcomes_sec = Vec::with_capacity(outcome_list.len() * 4);
    for ((i, j), (a, b)) in &outcome_list {
        for v in [i, j, a, b] {
            push_varint(&mut outcomes_sec, u64::from(*v));
        }
    }

    let symmetric = protocol.is_symmetric();
    let fp = fingerprint(protocol);
    let param = protocol.fingerprint_param();
    let n_outcomes = outcome_list.len() as u64;

    let file = assemble_file(
        FORMAT_V1,
        fp,
        param,
        if symmetric { FLAG_SYMMETRIC } else { 0 },
        slots as u64,
        pairs,
        n_outcomes,
        [&name, &states_sec, &rows_sec, &outcomes_sec].map(Vec::as_slice),
    );
    write_atomic(path, &file)?;

    Ok(StoreMeta {
        protocol: protocol.name().to_string(),
        version: FORMAT_V1,
        fingerprint: fp,
        param,
        symmetric,
        states: slots as u64,
        pairs,
        outcomes: n_outcomes,
        file_bytes: file.len() as u64,
        checksum: read_u64(&file, CHECKSUM_OFFSET),
        quotient: None,
    })
}

/// Serializes `table` for `protocol` into `path` in the **v2 quotient
/// layout**: the rows section stores one row per canonical orbit
/// representative plus, per state, the `(representative, group element)`
/// pair that reconstructs its row mechanically — shrinking row storage by
/// roughly the group order (`~k×` for Circles, `~48×` at `k = 50`).
/// States and outcomes persist exactly as in v1; [`load`] reads the rows
/// back in the same orbit form, with zero protocol calls.
///
/// Before writing, the table is checked to be *orbit-coherent*: every
/// state's canonical representative must be a stored state, and every row
/// must equal the group image of its representative's row. A table already
/// in orbit form under this protocol's quotient (as
/// [`quotient_table`](crate::quotient_table) builds it and [`load`] reads
/// it) is coherent by construction once its decomposition and action
/// match the quotient's; any other table is read one row at a time, and
/// each row's canonical encoding is compared with that of its orbit image,
/// in `O(pairs + states · row_words)` time. A table built by any discovery
/// path over an orbit-closed state set (e.g. a cold engine primed with the
/// full enumeration) passes; a table over a partial, non-closed state set
/// is rejected rather than silently mis-expanded on load.
///
/// # Errors
///
/// [`StoreError::Quotient`] when the protocol exposes no
/// [color quotient](Protocol::color_quotient) or the coherence check
/// fails; [`StoreError::Io`] as for [`save`].
pub fn save_quotient<P>(
    table: &TransitionTable<P>,
    protocol: &P,
    path: &Path,
) -> Result<StoreMeta, StoreError>
where
    P: Protocol,
    P::State: Display,
{
    let quotient = protocol.color_quotient().ok_or_else(|| {
        StoreError::Quotient(
            "protocol exposes no color quotient (write the v1 format instead)".into(),
        )
    })?;
    let snap = table.snapshot();
    let slots = snap.len();

    let mut index: HashMap<&P::State, u32, FxBuildHasher> =
        HashMap::with_capacity_and_hasher(slots, FxBuildHasher::default());
    for t in 0..slots as u32 {
        index.insert(snap.state(t), t);
    }
    // Orbit decomposition and action over the table's own state order.
    let orbits = Orbits::of_states(
        quotient,
        |s| index.get(s).copied(),
        |t| snap.state(t),
        slots,
    )
    .map_err(|e| {
        StoreError::Quotient(format!(
            "{e} — the table is not orbit-closed under the protocol's quotient; rebuild it \
             from the full state enumeration"
        ))
    })?;
    drop(index);

    let threshold = slots / 8 + 8;
    let row_words = slots.div_ceil(64);
    let own = snap.orbit_rows().filter(|rows| rows.orbits() == &orbits);
    let gathered;
    let rows = match own {
        Some(rows) => {
            drop(orbits);
            rows
        }
        None => {
            let mut reps = AdjRows::new();
            let mut scratch = Vec::new();
            for (r, &t) in orbits.rep_tids().iter().enumerate() {
                reps.push_slot();
                match snap.row(t, &mut scratch) {
                    RowRepr::Sparse { payload, last, len } => {
                        reps.set_row_payload(r, len, last, payload, slots)
                    }
                    RowRepr::Dense { blocks, .. } => reps.set_row_bits(r, blocks.to_vec(), slots),
                }
            }
            gathered = OrbitRows::new(orbits, reps);
            &gathered
        }
    };

    // Coherence check — every row must be the group image of its
    // representative's row — folded together with the v1 byte accounting
    // (the price of the expanded layout this save is avoiding). [`encode_row`]
    // is a function of row contents alone, so a stored row and its orbit
    // image encode equally exactly when they are equal, whichever
    // in-memory form the stored row has — no sort. Rows of a table already
    // in this orbit form are their images by construction; only their v1
    // size is needed, fixed for a row too long to stay sparse.
    let (mut got, mut want) = (Vec::new(), Vec::new());
    let (mut stored, mut image) = (Vec::new(), Vec::new());
    let mut v1_rows_len = 0usize;
    for t in 0..slots as u32 {
        let len = rows.row_len(t);
        if own.is_some() && len > threshold {
            v1_rows_len += varint_len(len as u64) + 1 + 8 * row_words;
            continue;
        }
        got.clear();
        encode_row(&mut got, snap.row(t, &mut stored), threshold, row_words);
        v1_rows_len += got.len();
        if own.is_some() || rows.orbits().is_rep(t) {
            continue;
        }
        want.clear();
        encode_row(&mut want, rows.row(t, &mut image), threshold, row_words);
        if got != want {
            return Err(StoreError::Quotient(format!(
                "row {t} is not the orbit image of its representative — the table was not \
                 built orbit-coherently"
            )));
        }
    }

    let name = protocol.name().as_bytes().to_vec();
    let mut states_sec = Vec::new();
    snap.for_each_state(|_, state| {
        let text = state.to_string();
        push_varint(&mut states_sec, text.len() as u64);
        states_sec.extend_from_slice(text.as_bytes());
    });
    let outcome_list = snap.sorted_outcomes();
    let mut outcomes_sec = Vec::with_capacity(outcome_list.len() * 4);
    for ((i, j), (a, b)) in &outcome_list {
        for v in [i, j, a, b] {
            push_varint(&mut outcomes_sec, u64::from(*v));
        }
    }

    let v1_bytes =
        (HEADER_LEN + name.len() + states_sec.len() + v1_rows_len + outcomes_sec.len()) as u64;

    // v2 rows section: group order, representative count, v1 byte price,
    // the ascending representative tid list (delta-varint), per-state
    // (representative index, group element) pairs, then the
    // representatives' rows in their canonical v1 encodings.
    let rep_tids = rows.orbits().rep_tids();
    let mut rows_sec = Vec::new();
    push_varint(&mut rows_sec, u64::from(quotient.group_order()));
    push_varint(&mut rows_sec, rep_tids.len() as u64);
    push_varint(&mut rows_sec, v1_bytes);
    let mut prev = 0u32;
    for (n, &r) in rep_tids.iter().enumerate() {
        push_varint(&mut rows_sec, u64::from(if n == 0 { r } else { r - prev }));
        prev = r;
    }
    for &(r, g) in rows.orbits().rep_of() {
        push_varint(&mut rows_sec, u64::from(r));
        push_varint(&mut rows_sec, u64::from(g));
    }
    for r in 0..rep_tids.len() {
        encode_row(&mut rows_sec, rows.rep_row(r), threshold, row_words);
    }

    let symmetric = protocol.is_symmetric();
    let fp = fingerprint(protocol);
    let param = protocol.fingerprint_param();
    let pairs = rows.pairs() as u64;
    let n_outcomes = outcome_list.len() as u64;
    let file = assemble_file(
        FORMAT_V2,
        fp,
        param,
        (if symmetric { FLAG_SYMMETRIC } else { 0 }) | FLAG_QUOTIENT,
        slots as u64,
        pairs,
        n_outcomes,
        [&name, &states_sec, &rows_sec, &outcomes_sec].map(Vec::as_slice),
    );
    write_atomic(path, &file)?;

    Ok(StoreMeta {
        protocol: protocol.name().to_string(),
        version: FORMAT_V2,
        fingerprint: fp,
        param,
        symmetric,
        states: slots as u64,
        pairs,
        outcomes: n_outcomes,
        file_bytes: file.len() as u64,
        checksum: read_u64(&file, CHECKSUM_OFFSET),
        quotient: Some(QuotientStats {
            reps: rows.orbits().rep_tids().len() as u64,
            group_order: quotient.group_order(),
            v1_bytes,
        }),
    })
}

/// Validates one sparse row payload — `count` ascending in-range ids in
/// delta-varint form, each varint at most 5 bytes (so the `u32` row walker
/// decodes it exactly), the slice fully consumed — and returns the last id.
fn validate_sparse_row(
    i: usize,
    payload: &[u8],
    count: u64,
    slots: usize,
) -> Result<u32, StoreError> {
    let mut cur = Cursor::new("rows", payload);
    let mut last = 0u64;
    for n in 0..count {
        let start = cur.pos;
        let v = cur.varint()?;
        if cur.pos - start > 5 {
            return Err(StoreError::Corrupt(format!(
                "row {i}: overlong responder varint"
            )));
        }
        let j = if n == 0 {
            v
        } else {
            if v == 0 {
                return Err(StoreError::Corrupt(format!(
                    "row {i}: zero gap (responder ids must strictly ascend)"
                )));
            }
            last.checked_add(v)
                .ok_or_else(|| StoreError::Corrupt(format!("row {i}: responder id overflows")))?
        };
        if j >= slots as u64 {
            return Err(StoreError::Corrupt(format!(
                "row {i}: responder id {j} out of range ({slots} states)"
            )));
        }
        last = j;
    }
    if cur.finish().is_err() {
        return Err(StoreError::Corrupt(format!(
            "row {i}: payload longer than its declared ids"
        )));
    }
    Ok(last as u32)
}

/// One row decoded from a rows section, still in its wire representation.
enum DecodedRow<'a> {
    Empty,
    Sparse {
        count: u32,
        last: u32,
        payload: &'a [u8],
    },
    Dense {
        blocks: Vec<u64>,
        count: u32,
    },
}

/// Decodes and structurally validates one row encoding at the cursor.
fn decode_one_row<'a>(
    cur: &mut Cursor<'a>,
    i: usize,
    slots: usize,
    row_words: usize,
) -> Result<DecodedRow<'a>, StoreError> {
    let count = cur.varint()?;
    if count == 0 {
        return Ok(DecodedRow::Empty);
    }
    if count > slots as u64 {
        return Err(StoreError::Corrupt(format!(
            "row {i} declares {count} responder(s), more than {slots} states"
        )));
    }
    match cur.take(1)?[0] {
        ROW_SPARSE => {
            let byte_len = cur.varint()?;
            let byte_len = usize::try_from(byte_len).map_err(|_| {
                StoreError::Corrupt(format!("row {i} declares an absurd payload length"))
            })?;
            let payload = cur.take(byte_len)?;
            let last = validate_sparse_row(i, payload, count, slots)?;
            Ok(DecodedRow::Sparse {
                count: count as u32,
                last,
                payload,
            })
        }
        ROW_DENSE => {
            let body = cur.take(row_words * 8)?;
            let mut blocks = vec![0u64; row_words];
            let mut ones = 0u64;
            for (block, chunk) in blocks.iter_mut().zip(body.chunks_exact(8)) {
                let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                ones += u64::from(word.count_ones());
                *block = word;
            }
            let tail_bits = slots - (row_words - 1) * 64;
            if tail_bits < 64 && blocks[row_words - 1] >> tail_bits != 0 {
                return Err(StoreError::Corrupt(format!(
                    "row {i}: bitset sets a responder beyond {slots} states"
                )));
            }
            if ones != count {
                return Err(StoreError::Corrupt(format!(
                    "row {i}: bitset popcount {ones} disagrees with declared count {count}"
                )));
            }
            Ok(DecodedRow::Dense {
                blocks,
                count: count as u32,
            })
        }
        other => Err(StoreError::Corrupt(format!(
            "row {i}: unknown row encoding {other:#04x}"
        ))),
    }
}

/// Decodes a v1 rows section into [`AdjRows`].
fn decode_v1_rows(sec: &[u8], slots: usize) -> Result<AdjRows, StoreError> {
    let mut cur = Cursor::new("rows", sec);
    let mut rows = AdjRows::new();
    for _ in 0..slots {
        rows.push_slot();
    }
    let row_words = slots.div_ceil(64);
    for i in 0..slots {
        match decode_one_row(&mut cur, i, slots, row_words)? {
            DecodedRow::Empty => {}
            DecodedRow::Sparse {
                count,
                last,
                payload,
            } => {
                // The validated payload is exactly the delta-varint
                // encoding the in-memory rows use, so adopt it wholesale
                // instead of re-encoding pair by pair.
                rows.set_row_varint(i, count, last, payload);
            }
            DecodedRow::Dense { blocks, count } => rows.set_row_dense(i, blocks, count),
        }
    }
    cur.finish()?;
    Ok(rows)
}

/// A rows section, decoded and structurally validated.
enum DecodedRows {
    /// v1: every row.
    Flat(AdjRows),
    /// v2, not yet tied to the protocol's quotient: the ascending
    /// representative tids, the per-state `(representative index, group
    /// element)` pairs and the representatives' out-rows.
    Orbit(Vec<u32>, Vec<(u32, u32)>, AdjRows),
}

/// Decodes a v2 rows section whose quotient has `group_order` elements.
fn decode_v2_rows(sec: &[u8], slots: usize, group_order: u32) -> Result<DecodedRows, StoreError> {
    let mut cur = Cursor::new("rows", sec);
    let stored_order = cur.varint()?;
    if stored_order != u64::from(group_order) {
        return Err(StoreError::Quotient(format!(
            "store records group order {stored_order}, the protocol's quotient has {group_order}"
        )));
    }
    let n_reps = cur.varint()?;
    if n_reps > slots as u64 || (n_reps == 0 && slots > 0) {
        return Err(StoreError::Corrupt(format!(
            "store declares {n_reps} representative(s) for {slots} state(s)"
        )));
    }
    let n_reps = n_reps as usize;
    let _v1_bytes = cur.varint()?;
    let mut rep_tids: Vec<u32> = Vec::with_capacity(n_reps);
    let mut prev = 0u64;
    for n in 0..n_reps {
        let v = cur.varint()?;
        let r = if n == 0 {
            v
        } else {
            if v == 0 {
                return Err(StoreError::Corrupt(
                    "representative tids must strictly ascend".into(),
                ));
            }
            prev + v
        };
        if r >= slots as u64 {
            return Err(StoreError::Corrupt(format!(
                "representative tid {r} out of range ({slots} states)"
            )));
        }
        rep_tids.push(r as u32);
        prev = r;
    }
    let mut rep_of: Vec<(u32, u32)> = Vec::with_capacity(slots);
    for t in 0..slots {
        let ri = cur.varint()?;
        if ri >= n_reps as u64 {
            return Err(StoreError::Corrupt(format!(
                "state {t} names representative index {ri}, out of {n_reps}"
            )));
        }
        let g = cur.varint()?;
        if g >= u64::from(group_order) {
            return Err(StoreError::Corrupt(format!(
                "state {t} names group element {g}, out of {group_order}"
            )));
        }
        rep_of.push((ri as u32, g as u32));
    }
    let row_words = slots.div_ceil(64);
    let mut reps = AdjRows::new();
    for (r, &t) in rep_tids.iter().enumerate() {
        reps.push_slot();
        match decode_one_row(&mut cur, t as usize, slots, row_words)? {
            DecodedRow::Empty => {}
            DecodedRow::Sparse {
                count,
                last,
                payload,
            } => reps.set_row_payload(r, count, last, payload, slots),
            DecodedRow::Dense { blocks, count } => reps.set_row_dense(r, blocks, count),
        }
    }
    cur.finish()?;
    Ok(DecodedRows::Orbit(rep_tids, rep_of, reps))
}

/// Reads `path` and reconstructs the [`TransitionTable`] it stores, with
/// **zero protocol calls**: the protocol value is consulted only for its
/// identity ([`fingerprint`]) and the states' `FromStr` codec. A v2
/// (quotient) store stays in orbit form — representative rows plus the
/// group action of the protocol's [color quotient](Protocol::color_quotient),
/// checked against every stored `(representative, element)` pair — so it
/// takes about its file size in memory; group applications, never
/// transitions.
///
/// # Errors
///
/// Every corruption is a typed [`StoreError`]: [`Io`](StoreError::Io) when
/// the file cannot be read (a missing file surfaces the inner
/// [`NotFound`](std::io::ErrorKind::NotFound)),
/// [`BadMagic`](StoreError::BadMagic) /
/// [`EndianMismatch`](StoreError::EndianMismatch) /
/// [`UnsupportedVersion`](StoreError::UnsupportedVersion) for foreign or
/// future files, [`Truncated`](StoreError::Truncated) when the header is
/// cut short, [`ChecksumMismatch`](StoreError::ChecksumMismatch) for any
/// bit damage past the header (including truncation into the sections),
/// [`IdentityMismatch`](StoreError::IdentityMismatch) when the store was
/// built for a different protocol parameterization, and
/// [`Corrupt`](StoreError::Corrupt) when a section fails structural
/// validation.
pub fn load<P>(protocol: &P, path: &Path) -> Result<TransitionTable<P>, StoreError>
where
    P: Protocol,
    P::State: FromStr,
    <P::State as FromStr>::Err: Display,
{
    let mut bytes = fs::read(path)?;
    let raw = parse_and_verify(&mut bytes)?;

    let expected = fingerprint(protocol);
    if raw.fingerprint != expected {
        return Err(StoreError::IdentityMismatch {
            stored: raw.fingerprint,
            expected,
        });
    }
    if raw.name != protocol.name().as_bytes() {
        return Err(StoreError::Corrupt(
            "protocol name disagrees with a matching fingerprint".into(),
        ));
    }
    let symmetric = raw.flags & FLAG_SYMMETRIC != 0;
    if symmetric != protocol.is_symmetric() {
        return Err(StoreError::Corrupt(
            "symmetry flag disagrees with a matching fingerprint".into(),
        ));
    }

    if raw.states > u64::from(u32::MAX) {
        return Err(StoreError::Corrupt(format!(
            "state count {} exceeds the u32 id space",
            raw.states
        )));
    }
    // Cheap lower bounds (each state costs >= 1 byte, each row >= 1 byte,
    // each outcome >= 4 bytes) so declared counts cannot force absurd
    // allocations before decoding catches the lie.
    if raw.states > raw.states_sec.len() as u64 || raw.states > raw.rows_sec.len() as u64 {
        return Err(StoreError::Corrupt(format!(
            "header declares {} state(s), more than the sections can hold",
            raw.states
        )));
    }
    if raw.outcomes.saturating_mul(4) > raw.outcomes_sec.len() as u64 {
        return Err(StoreError::Corrupt(format!(
            "header declares {} outcome(s), more than the section can hold",
            raw.outcomes
        )));
    }
    let slots = raw.states as usize;

    let mut cur = Cursor::new("states", raw.states_sec);
    let mut states: Vec<P::State> = Vec::with_capacity(slots);
    let mut index: HashMap<P::State, u32, FxBuildHasher> =
        HashMap::with_capacity_and_hasher(slots, FxBuildHasher::default());
    for id in 0..slots {
        let len = cur.varint()?;
        let len = usize::try_from(len)
            .map_err(|_| StoreError::Corrupt(format!("state {id} declares an absurd length")))?;
        let text = std::str::from_utf8(cur.take(len)?)
            .map_err(|_| StoreError::Corrupt(format!("state {id} is not valid utf-8")))?;
        let state: P::State = text
            .parse()
            .map_err(|e| StoreError::Corrupt(format!("state {id} ({text:?}): {e}")))?;
        if index.insert(state.clone(), id as u32).is_some() {
            return Err(StoreError::Corrupt(format!(
                "state {id} ({text:?}) duplicates an earlier state"
            )));
        }
        states.push(state);
    }
    cur.finish()?;

    let quotient = protocol.color_quotient();
    let rows = if raw.version == FORMAT_V2 {
        let quotient = quotient.ok_or_else(|| {
            StoreError::Quotient(
                "store is v2 (quotient) but the protocol exposes no color quotient".into(),
            )
        })?;
        decode_v2_rows(raw.rows_sec, slots, quotient.group_order())?
    } else {
        DecodedRows::Flat(decode_v1_rows(raw.rows_sec, slots)?)
    };

    let mut cur = Cursor::new("outcomes", raw.outcomes_sec);
    let mut outcomes: HashMap<(u32, u32), (u32, u32), FxBuildHasher> =
        HashMap::with_capacity_and_hasher(raw.outcomes as usize, FxBuildHasher::default());
    let mut prev: Option<(u32, u32)> = None;
    for _ in 0..raw.outcomes {
        let mut ids = [0u32; 4];
        for slot in &mut ids {
            let v = cur.varint()?;
            if v >= slots as u64 {
                return Err(StoreError::Corrupt(format!(
                    "outcome id {v} out of range ({slots} states)"
                )));
            }
            *slot = v as u32;
        }
        let key = (ids[0], ids[1]);
        if prev.is_some_and(|p| p >= key) {
            return Err(StoreError::Corrupt(format!(
                "outcome keys not strictly ascending at ({}, {})",
                key.0, key.1
            )));
        }
        prev = Some(key);
        outcomes.insert(key, (ids[2], ids[3]));
    }
    cur.finish()?;
    let pairs = raw.pairs;
    // Every section is decoded: release the file before the group action's
    // permutations are built, so a v2 load peaks near twice the file size.
    drop(bytes);

    let rows = match rows {
        DecodedRows::Flat(rows) => Rows::Flat(rows),
        DecodedRows::Orbit(rep_tids, rep_of, reps) => {
            let quotient = quotient.expect("v2 rows decode only with a quotient");
            let orbits = Orbits::from_parts(
                quotient,
                |s| index.get(s).copied(),
                |t| &states[t as usize],
                rep_tids,
                rep_of,
            )
            .map_err(|e| {
                StoreError::Quotient(format!(
                    "{e} — the store disagrees with the protocol's quotient"
                ))
            })?;
            Rows::Orbit(OrbitRows::new(orbits, reps))
        }
    };
    drop(index);
    if rows.pairs() as u64 != pairs {
        return Err(StoreError::Corrupt(format!(
            "header declares {pairs} active pair(s), rows decode to {}",
            rows.pairs()
        )));
    }
    let mut keys: Vec<&(u32, u32)> = outcomes.keys().collect();
    keys.sort_unstable();
    if let Some((i, j)) = keys.into_iter().find(|&&(i, j)| !rows.contains(i, j)) {
        return Err(StoreError::Corrupt(format!(
            "outcome recorded for null pair ({i}, {j})"
        )));
    }

    Ok(TransitionTable::from_parts(
        states, rows, outcomes, symmetric,
    ))
}

/// Reads and verifies only the header (plus the name section and, for v2,
/// the fixed quotient-stats prefix of the rows section) of a store file.
/// No states are decoded and no protocol value is needed, so any store can
/// be inspected — this is what the `table_store inspect` CLI subcommand
/// prints.
///
/// # Errors
///
/// The same header-level errors as [`load`]; section contents beyond the
/// name and the quotient prefix are covered by the checksum but not
/// structurally decoded.
pub fn inspect(path: &Path) -> Result<StoreMeta, StoreError> {
    let mut bytes = fs::read(path)?;
    let file_bytes = bytes.len() as u64;
    let raw = parse_and_verify(&mut bytes)?;
    let protocol = std::str::from_utf8(raw.name)
        .map_err(|_| StoreError::Corrupt("protocol name is not valid utf-8".into()))?
        .to_string();
    let quotient = if raw.version == FORMAT_V2 {
        let mut cur = Cursor::new("rows", raw.rows_sec);
        let group_order = cur.varint()?;
        let reps = cur.varint()?;
        let v1_bytes = cur.varint()?;
        let group_order = u32::try_from(group_order).map_err(|_| {
            StoreError::Corrupt(format!(
                "store declares an absurd group order {group_order}"
            ))
        })?;
        Some(QuotientStats {
            reps,
            group_order,
            v1_bytes,
        })
    } else {
        None
    };
    Ok(StoreMeta {
        protocol,
        version: raw.version,
        fingerprint: raw.fingerprint,
        param: raw.param,
        symmetric: raw.flags & FLAG_SYMMETRIC != 0,
        states: raw.states,
        pairs: raw.pairs,
        outcomes: raw.outcomes,
        file_bytes,
        checksum: raw.checksum,
        quotient,
    })
}

/// Statistics of a successful [`audit`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditReport {
    /// States in the audited table.
    pub states: usize,
    /// Ordered pairs re-classified through the protocol.
    pub pairs_checked: u64,
    /// Memoized outcomes re-derived through the protocol.
    pub outcomes_checked: u64,
}

/// Re-derives up to `max_pairs` pair classifications and outcomes of
/// `table` through the protocol's own transition function — the semantic
/// check [`load`] deliberately never performs (its contract is zero
/// protocol calls). The `table_store verify` CLI subcommand runs this
/// against a freshly loaded store.
///
/// # Errors
///
/// [`StoreError::AuditMismatch`] naming the first disagreeing pair or
/// outcome.
pub fn audit<P: Protocol>(
    protocol: &P,
    table: &TransitionTable<P>,
    max_pairs: u64,
) -> Result<AuditReport, StoreError> {
    let snap = table.snapshot();
    let n = snap.len();
    let mut pairs_checked = 0u64;
    // One row walk per audited row, so orbit-form rows are scattered once
    // rather than searched per pair.
    let mut row = vec![0u64; n.div_ceil(64)];
    'pairs: for i in 0..n as u32 {
        if pairs_checked >= max_pairs {
            break;
        }
        row.fill(0);
        snap.walk_out(i, |j| {
            row[j / 64] |= 1 << (j % 64);
            true
        });
        for j in 0..n as u32 {
            if pairs_checked >= max_pairs {
                break 'pairs;
            }
            let (si, sj) = (snap.state(i), snap.state(j));
            let active = !protocol.is_null_interaction(si, sj);
            if (row[j as usize / 64] >> (j % 64) & 1 == 1) != active {
                return Err(StoreError::AuditMismatch(format!(
                    "pair ({si:?}, {sj:?}) stored as {} but the protocol says {}",
                    if active { "null" } else { "active" },
                    if active { "active" } else { "null" },
                )));
            }
            pairs_checked += 1;
        }
    }
    let mut outcomes_checked = 0u64;
    for ((i, j), (a, b)) in snap.sorted_outcomes() {
        if outcomes_checked >= max_pairs {
            break;
        }
        let (ta, tb) = protocol.transition(snap.state(i), snap.state(j));
        if &ta != snap.state(a) || &tb != snap.state(b) {
            return Err(StoreError::AuditMismatch(format!(
                "outcome of pair ({i}, {j}) disagrees with the protocol"
            )));
        }
        outcomes_checked += 1;
    }
    Ok(AuditReport {
        states: n,
        pairs_checked,
        outcomes_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Toy {
        sym: bool,
        param: u64,
    }

    impl Protocol for Toy {
        type State = u8;
        type Input = u8;
        type Output = u8;

        fn name(&self) -> &str {
            "toy"
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
            self.sym
        }

        fn fingerprint_param(&self) -> u64 {
            self.param
        }
    }

    #[test]
    fn fingerprint_separates_param_and_symmetry() {
        let base = fingerprint(&Toy {
            sym: true,
            param: 3,
        });
        assert_ne!(
            base,
            fingerprint(&Toy {
                sym: true,
                param: 4
            })
        );
        assert_ne!(
            base,
            fingerprint(&Toy {
                sym: false,
                param: 3
            })
        );
        assert_eq!(
            base,
            fingerprint(&Toy {
                sym: true,
                param: 3
            })
        );
    }

    #[test]
    fn varint_round_trips() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &v in &values {
            push_varint(&mut buf, v);
        }
        let mut cur = Cursor::new("test", &buf);
        for &v in &values {
            assert_eq!(cur.varint().unwrap(), v);
        }
        cur.finish().unwrap();
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 10 continuation bytes push past 64 bits.
        let over = [0xFFu8; 10];
        assert!(matches!(
            Cursor::new("test", &over).varint(),
            Err(StoreError::Corrupt(_))
        ));
        let cut = [0x80u8];
        assert!(matches!(
            Cursor::new("test", &cut).varint(),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            StoreError::Io(std::io::Error::other("boom")),
            StoreError::BadMagic,
            StoreError::EndianMismatch,
            StoreError::UnsupportedVersion {
                found: 9,
                supported: FORMAT_VERSION,
            },
            StoreError::Truncated {
                needed: 136,
                len: 8,
            },
            StoreError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            StoreError::IdentityMismatch {
                stored: 1,
                expected: 2,
            },
            StoreError::Corrupt("bad".into()),
            StoreError::Quotient("bad".into()),
            StoreError::AuditMismatch("bad".into()),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }
}

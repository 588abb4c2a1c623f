//! Versioned on-disk run checkpoints (`.pprc`) — the crash-tolerance
//! substrate for long [`CountEngine`](crate::CountEngine) runs.
//!
//! A checkpoint captures everything a count-engine run needs to resume
//! bit-identically: the canonical slot → state list, per-slot counts, the
//! step/stats counters, the RNG stream position (via [`ResumableRng`]), the
//! optional recorded change-point trace, and named auxiliary sections for
//! layers above the engine (the hazard driver persists its pending plan tail
//! and hazard-RNG position there). Everything *derivable* from those — the
//! activity index, the output histogram, transition memos — is deliberately
//! **not** stored: the engine rebuilds them deterministically on resume, so
//! checkpoints stay `O(slots)` bytes, not `O(pairs)`.
//!
//! The file format is a sibling of the `.ppts` transition-table store
//! ([`transition_store`](crate::transition_store)) and follows the same
//! discipline: little-endian fixed header with magic, endianness marker,
//! format version, protocol identity fingerprint and section table; a
//! word-folded FNV checksum over the whole file (checksum field zeroed);
//! atomic, synced tmp + rename writes; and a typed error
//! ([`CheckpointError`]) for every corruption path — a load never silently
//! yields a wrong resume.
//! The byte-level layout is specified in `docs/run-checkpoint-format.md`.

use std::fmt::{self, Display};
use std::fs;
use std::path::Path;
use std::str::FromStr;

use rand::rngs::{Philox4x32, StdRng};
use rand::RngCore;

use crate::protocol::Protocol;
use crate::simulation::SimStats;
use crate::transition_store::{
    checksum64, fingerprint, push_varint, read_u32, read_u64, write_atomic,
};

/// Format version written by this build; loads accept exactly this version.
pub const FORMAT_VERSION: u32 = 1;

/// Canonical file extension of run checkpoints.
pub const CHECKPOINT_EXT: &str = "pprc";

const MAGIC: [u8; 8] = *b"PPRUNCK\0";
const ENDIAN_MARKER: u32 = 0x1A2B_3C4D;
/// Five sections follow the fixed fields: name, states, run, trace, aux.
const SECTION_COUNT: usize = 5;
const SECTION_TABLE_OFFSET: usize = 0x40;
const CHECKSUM_OFFSET: usize = SECTION_TABLE_OFFSET + SECTION_COUNT * 16;
const HEADER_LEN: usize = CHECKSUM_OFFSET + 8;
const FLAG_SYMMETRIC: u32 = 1;
/// Set when the engine was recording its change-point trace — distinguishes
/// "tracing with zero pairs so far" from "not tracing".
const FLAG_TRACING: u32 = 2;

/// Generators a checkpoint can name; [`ResumableRng::RNG_KIND`] values.
const RNG_KIND_PHILOX4X32: u32 = 1;
const RNG_KIND_STDRNG: u32 = 2;

/// Upper bound on serialized RNG state words — far above any generator in
/// the workspace (Philox: 7, xoshiro: 8), low enough that a corrupt word
/// count cannot drive an absurd allocation.
const MAX_RNG_WORDS: u64 = 64;

/// A seedable generator whose exact stream position can be serialized into a
/// checkpoint and restored bit-identically.
///
/// Implementations must guarantee the round-trip contract: a generator
/// restored via [`load_words`](Self::load_words) from
/// [`save_words`](Self::save_words) produces exactly the output sequence the
/// original would have produced from that point on — including mid-block
/// positions for block generators.
pub trait ResumableRng: RngCore + Sized {
    /// Stable format tag distinguishing this generator family in the
    /// checkpoint header. Never reuse a retired value.
    const RNG_KIND: u32;

    /// The generator's position, as 32-bit words.
    fn save_words(&self) -> Vec<u32>;

    /// Reconstructs a generator from [`save_words`](Self::save_words)
    /// output; `None` when the words are not a reachable generator state
    /// (corrupt checkpoints must fail loudly, not index out of bounds
    /// later).
    fn load_words(words: &[u32]) -> Option<Self>;
}

impl ResumableRng for Philox4x32 {
    const RNG_KIND: u32 = RNG_KIND_PHILOX4X32;

    fn save_words(&self) -> Vec<u32> {
        self.state_words().to_vec()
    }

    fn load_words(words: &[u32]) -> Option<Self> {
        let words: [u32; 7] = words.try_into().ok()?;
        Philox4x32::from_state_words(words)
    }
}

impl ResumableRng for StdRng {
    const RNG_KIND: u32 = RNG_KIND_STDRNG;

    fn save_words(&self) -> Vec<u32> {
        self.state_words()
            .iter()
            .flat_map(|&w| [w as u32, (w >> 32) as u32])
            .collect()
    }

    fn load_words(words: &[u32]) -> Option<Self> {
        let words: [u32; 8] = words.try_into().ok()?;
        let mut s = [0u64; 4];
        for (i, pair) in words.chunks_exact(2).enumerate() {
            s[i] = u64::from(pair[0]) | (u64::from(pair[1]) << 32);
        }
        Some(StdRng::from_state_words(s))
    }
}

/// Typed failures of the on-disk checkpoint. Mirrors
/// [`StoreError`](crate::StoreError)'s variant set — every corruption path
/// maps to a distinct variant, so supervisors can report precisely and fall
/// back to an earlier checkpoint (or a fresh run) instead of trusting a
/// damaged file.
#[derive(Debug)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic — not a checkpoint.
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
    /// The checkpoint was taken for a different protocol parameterization.
    IdentityMismatch {
        /// Fingerprint recorded in the header.
        stored: u64,
        /// Fingerprint of the protocol supplied to [`load`].
        expected: u64,
    },
    /// The checkpoint was taken under a different generator family than the
    /// engine resuming it.
    RngMismatch {
        /// RNG kind recorded in the header.
        stored: u32,
        /// RNG kind of the resuming engine.
        expected: u32,
    },
    /// A section failed structural validation (bad varint, malformed state,
    /// out-of-range slot id, counts disagreeing with the header).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a run checkpoint (bad magic)"),
            CheckpointError::EndianMismatch => write!(f, "checkpoint endianness marker mismatch"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} unsupported (this build reads version {supported})"
            ),
            CheckpointError::Truncated { needed, len } => write!(
                f,
                "checkpoint truncated: {len} byte(s) present, {needed} required"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: header records {stored:#018x}, file hashes to {computed:#018x}"
            ),
            CheckpointError::IdentityMismatch { stored, expected } => write!(
                f,
                "checkpoint fingerprint {stored:#018x} does not match protocol fingerprint {expected:#018x}"
            ),
            CheckpointError::RngMismatch { stored, expected } => write!(
                f,
                "checkpoint rng kind {stored} does not match the resuming engine's kind {expected}"
            ),
            CheckpointError::Corrupt(msg) => write!(f, "checkpoint corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Header-level metadata of a checkpoint file, as returned by [`inspect`]
/// and [`save`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Protocol name recorded in the checkpoint.
    pub protocol: String,
    /// Format version of the file.
    pub version: u32,
    /// Protocol identity fingerprint
    /// (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Protocol family parameter (`k` for Circles, `0` by default).
    pub param: u64,
    /// Whether the protocol declared itself symmetric at checkpoint time.
    pub symmetric: bool,
    /// Whether the engine was recording its change-point trace.
    pub tracing: bool,
    /// RNG family tag ([`ResumableRng::RNG_KIND`]).
    pub rng_kind: u32,
    /// Population size at checkpoint time.
    pub n: u64,
    /// Interactions executed at checkpoint time.
    pub steps: u64,
    /// Number of canonical slots.
    pub slots: u64,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Whole-file checksum recorded in (and verified against) the header.
    pub checksum: u64,
}

/// The in-memory form of a run checkpoint: a
/// [`CountEngine`](crate::CountEngine)'s resumable state.
///
/// Produced by [`CountEngine::checkpoint`](crate::CountEngine::checkpoint),
/// consumed by [`CountEngine::resume`](crate::CountEngine::resume);
/// serialized by [`save`]/[`load`]. `O(slots)` in memory and on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCheckpoint<S> {
    /// Protocol name, cross-checked on resume.
    pub protocol: String,
    /// Protocol identity fingerprint — the same value that keys `.ppts`
    /// cache files, so a checkpoint names the table store it can be warmed
    /// from.
    pub fingerprint: u64,
    /// Protocol family parameter.
    pub param: u64,
    /// Whether the protocol declared itself symmetric.
    pub symmetric: bool,
    /// Population size.
    pub n: u64,
    /// Step/state-change counters at checkpoint time.
    pub stats: SimStats,
    /// Latest step at which outputs were not unanimous (not derivable from
    /// counts — it is history).
    pub last_disagreement: Option<u64>,
    /// Every state ever observed, in canonical slot order.
    pub states: Vec<S>,
    /// Per-slot agent counts, aligned with `states`.
    pub counts: Vec<u64>,
    /// RNG family tag ([`ResumableRng::RNG_KIND`]).
    pub rng_kind: u32,
    /// RNG stream position ([`ResumableRng::save_words`]).
    pub rng_words: Vec<u32>,
    /// Recorded change-point trace as slot-id pairs, `Some` exactly when
    /// the engine was recording.
    pub trace: Option<Vec<(u32, u32)>>,
    /// Named auxiliary sections for layers above the engine (hazard plan
    /// tails, supervisor bookkeeping), sorted by name. The engine itself
    /// never reads these.
    pub aux: Vec<(String, Vec<u8>)>,
}

impl<S> RunCheckpoint<S> {
    /// The payload of auxiliary section `name`, if present.
    pub fn aux(&self, name: &str) -> Option<&[u8]> {
        self.aux
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| self.aux[i].1.as_slice())
    }

    /// Inserts or replaces auxiliary section `name`, keeping the list
    /// sorted (the canonical encoding order).
    pub fn set_aux(&mut self, name: &str, payload: Vec<u8>) {
        match self.aux.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.aux[i].1 = payload,
            Err(i) => self.aux.insert(i, (name.to_string(), payload)),
        }
    }

    /// Structural validity of the in-memory checkpoint — the invariants
    /// [`save`] requires and [`load`] guarantees.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] naming the violated invariant.
    pub fn validate(&self) -> Result<(), CheckpointError> {
        if self.states.len() != self.counts.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} state(s) but {} count(s)",
                self.states.len(),
                self.counts.len()
            )));
        }
        let mut total: u64 = 0;
        for &c in &self.counts {
            total = total
                .checked_add(c)
                .ok_or_else(|| CheckpointError::Corrupt("slot counts overflow u64".to_string()))?;
        }
        if total != self.n {
            return Err(CheckpointError::Corrupt(format!(
                "slot counts sum to {total}, header records n = {}",
                self.n
            )));
        }
        if self.n >= 1 << 63 {
            return Err(CheckpointError::Corrupt(format!(
                "population {} exceeds the 2^63 - 1 agent cap",
                self.n
            )));
        }
        if self.stats.last_change_step > self.stats.steps {
            return Err(CheckpointError::Corrupt(format!(
                "last change at step {} postdates the step counter {}",
                self.stats.last_change_step, self.stats.steps
            )));
        }
        if self.stats.state_changes > self.stats.steps {
            return Err(CheckpointError::Corrupt(format!(
                "{} state changes exceed {} steps",
                self.stats.state_changes, self.stats.steps
            )));
        }
        if let Some(t) = self.last_disagreement {
            if t > self.stats.steps {
                return Err(CheckpointError::Corrupt(format!(
                    "disagreement at step {t} postdates the step counter {}",
                    self.stats.steps
                )));
            }
        }
        if self.rng_words.len() as u64 > MAX_RNG_WORDS {
            return Err(CheckpointError::Corrupt(format!(
                "{} rng state words exceed the {MAX_RNG_WORDS}-word cap",
                self.rng_words.len()
            )));
        }
        let slots = self.states.len() as u32;
        if let Some(pairs) = &self.trace {
            for &(i, j) in pairs {
                if i >= slots || j >= slots {
                    return Err(CheckpointError::Corrupt(format!(
                        "trace pair ({i}, {j}) references a slot >= {slots}"
                    )));
                }
            }
        }
        if !self.aux.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(CheckpointError::Corrupt(
                "auxiliary sections are not strictly sorted by name".to_string(),
            ));
        }
        Ok(())
    }
}

/// Serializes `checkpoint` into `path`.
///
/// The write is atomic and durable: a temp file in the target directory is
/// fully written, checksummed and synced, then renamed over `path`, and the
/// directory is synced — so a crash, power loss included, leaves either the
/// previous checkpoint or the new one, never a torn file. `S: Display`
/// supplies the state codec; [`load`] inverts it through `FromStr`.
///
/// # Errors
///
/// [`CheckpointError::Io`] when the temp file cannot be written, synced or
/// renamed;
/// [`CheckpointError::Corrupt`] when the in-memory checkpoint violates its
/// own invariants ([`RunCheckpoint::validate`]).
pub fn save<S: Display>(
    checkpoint: &RunCheckpoint<S>,
    path: &Path,
) -> Result<CheckpointMeta, CheckpointError> {
    checkpoint.validate()?;

    let name = checkpoint.protocol.as_bytes().to_vec();

    let mut states_sec = Vec::new();
    for (state, &count) in checkpoint.states.iter().zip(&checkpoint.counts) {
        let text = state.to_string();
        push_varint(&mut states_sec, text.len() as u64);
        states_sec.extend_from_slice(text.as_bytes());
        push_varint(&mut states_sec, count);
    }

    let mut run_sec = Vec::new();
    push_varint(&mut run_sec, checkpoint.stats.state_changes);
    push_varint(&mut run_sec, checkpoint.stats.last_change_step);
    match checkpoint.last_disagreement {
        Some(t) => {
            run_sec.push(1);
            push_varint(&mut run_sec, t);
        }
        None => run_sec.push(0),
    }
    push_varint(&mut run_sec, checkpoint.rng_words.len() as u64);
    for &w in &checkpoint.rng_words {
        run_sec.extend_from_slice(&w.to_le_bytes());
    }

    let mut trace_sec = Vec::new();
    if let Some(pairs) = &checkpoint.trace {
        push_varint(&mut trace_sec, pairs.len() as u64);
        for &(i, j) in pairs {
            push_varint(&mut trace_sec, u64::from(i));
            push_varint(&mut trace_sec, u64::from(j));
        }
    }

    let mut aux_sec = Vec::new();
    push_varint(&mut aux_sec, checkpoint.aux.len() as u64);
    for (key, payload) in &checkpoint.aux {
        push_varint(&mut aux_sec, key.len() as u64);
        aux_sec.extend_from_slice(key.as_bytes());
        push_varint(&mut aux_sec, payload.len() as u64);
        aux_sec.extend_from_slice(payload);
    }

    let mut flags = 0u32;
    if checkpoint.symmetric {
        flags |= FLAG_SYMMETRIC;
    }
    if checkpoint.trace.is_some() {
        flags |= FLAG_TRACING;
    }

    let body_len = name.len() + states_sec.len() + run_sec.len() + trace_sec.len() + aux_sec.len();
    let mut file = Vec::with_capacity(HEADER_LEN + body_len);
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&ENDIAN_MARKER.to_le_bytes());
    file.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    file.extend_from_slice(&checkpoint.fingerprint.to_le_bytes());
    file.extend_from_slice(&checkpoint.param.to_le_bytes());
    file.extend_from_slice(&flags.to_le_bytes());
    file.extend_from_slice(&checkpoint.rng_kind.to_le_bytes());
    file.extend_from_slice(&checkpoint.n.to_le_bytes());
    file.extend_from_slice(&checkpoint.stats.steps.to_le_bytes());
    file.extend_from_slice(&(checkpoint.states.len() as u64).to_le_bytes());
    debug_assert_eq!(file.len(), SECTION_TABLE_OFFSET);
    let mut off = HEADER_LEN as u64;
    for sec in [&name, &states_sec, &run_sec, &trace_sec, &aux_sec] {
        file.extend_from_slice(&off.to_le_bytes());
        file.extend_from_slice(&(sec.len() as u64).to_le_bytes());
        off += sec.len() as u64;
    }
    file.extend_from_slice(&[0u8; 8]); // checksum, patched below
    debug_assert_eq!(file.len(), HEADER_LEN);
    file.extend_from_slice(&name);
    file.extend_from_slice(&states_sec);
    file.extend_from_slice(&run_sec);
    file.extend_from_slice(&trace_sec);
    file.extend_from_slice(&aux_sec);
    // The placeholder is zero, so hashing the buffer as-is matches the
    // zeroed-field convention the verifier uses.
    let checksum = checksum64(&file);
    file[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
    write_atomic(path, &file)?;

    Ok(CheckpointMeta {
        protocol: checkpoint.protocol.clone(),
        version: FORMAT_VERSION,
        fingerprint: checkpoint.fingerprint,
        param: checkpoint.param,
        symmetric: checkpoint.symmetric,
        tracing: checkpoint.trace.is_some(),
        rng_kind: checkpoint.rng_kind,
        n: checkpoint.n,
        steps: checkpoint.stats.steps,
        slots: checkpoint.states.len() as u64,
        file_bytes: file.len() as u64,
        checksum,
    })
}

/// Bounds-checked reader over one section, with varint decoding — the
/// `.pprc` twin of the store's cursor, erroring as [`CheckpointError`].
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

    fn varint(&mut self) -> Result<u64, CheckpointError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let &b = self.buf.get(self.pos).ok_or_else(|| {
                CheckpointError::Corrupt(format!("{} section ends inside a varint", self.section))
            })?;
            self.pos += 1;
            if shift >= 64 || (shift == 63 && b & 0x7F > 1) {
                return Err(CheckpointError::Corrupt(format!(
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

    fn byte(&mut self) -> Result<u8, CheckpointError> {
        let &b = self.buf.get(self.pos).ok_or_else(|| {
            CheckpointError::Corrupt(format!("{} section shorter than declared", self.section))
        })?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                CheckpointError::Corrupt(format!("{} section shorter than declared", self.section))
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} section has {} trailing byte(s)",
                self.section,
                self.buf.len() - self.pos
            )))
        }
    }
}

/// A verified header plus borrowed section slices — magic, endianness,
/// version, section bounds and whole-file checksum already checked.
struct RawCheckpoint<'a> {
    fingerprint: u64,
    param: u64,
    flags: u32,
    rng_kind: u32,
    n: u64,
    steps: u64,
    slots: u64,
    checksum: u64,
    sections: [&'a [u8]; SECTION_COUNT],
    file_len: u64,
}

fn parse_and_verify(bytes: &mut [u8]) -> Result<RawCheckpoint<'_>, CheckpointError> {
    let magic_len = bytes.len().min(MAGIC.len());
    if bytes[..magic_len] != MAGIC[..magic_len] {
        return Err(CheckpointError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(CheckpointError::Truncated {
            needed: HEADER_LEN as u64,
            len: bytes.len() as u64,
        });
    }
    if read_u32(bytes, 0x08) != ENDIAN_MARKER {
        return Err(CheckpointError::EndianMismatch);
    }
    let version = read_u32(bytes, 0x0C);
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let stored = read_u64(bytes, CHECKSUM_OFFSET);
    bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
    let computed = checksum64(bytes);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    let file_len = bytes.len() as u64;
    let mut sections = [&bytes[0..0]; SECTION_COUNT];
    for (s, section) in sections.iter_mut().enumerate() {
        let off = read_u64(bytes, SECTION_TABLE_OFFSET + 16 * s);
        let len = read_u64(bytes, SECTION_TABLE_OFFSET + 16 * s + 8);
        let end = off.checked_add(len).filter(|&e| e <= file_len);
        let (Some(end), true) = (end, off >= HEADER_LEN as u64) else {
            return Err(CheckpointError::Truncated {
                needed: off.saturating_add(len),
                len: file_len,
            });
        };
        *section = &bytes[off as usize..end as usize];
    }
    Ok(RawCheckpoint {
        fingerprint: read_u64(bytes, 0x10),
        param: read_u64(bytes, 0x18),
        flags: read_u32(bytes, 0x20),
        rng_kind: read_u32(bytes, 0x24),
        n: read_u64(bytes, 0x28),
        steps: read_u64(bytes, 0x30),
        slots: read_u64(bytes, 0x38),
        checksum: stored,
        sections,
        file_len,
    })
}

/// Reads the header of the checkpoint at `path` — magic, version, identity,
/// counters, checksum (verified against the whole file) — without decoding
/// the body. The `table_store`-style triage entry point.
///
/// # Errors
///
/// Any [`CheckpointError`] a full [`load`] would report for the header and
/// checksum; body corruption is only detected by [`load`].
pub fn inspect(path: &Path) -> Result<CheckpointMeta, CheckpointError> {
    let mut bytes = fs::read(path)?;
    let raw = parse_and_verify(&mut bytes)?;
    let protocol = String::from_utf8(raw.sections[0].to_vec())
        .map_err(|_| CheckpointError::Corrupt("protocol name is not UTF-8".to_string()))?;
    Ok(CheckpointMeta {
        protocol,
        version: FORMAT_VERSION,
        fingerprint: raw.fingerprint,
        param: raw.param,
        symmetric: raw.flags & FLAG_SYMMETRIC != 0,
        tracing: raw.flags & FLAG_TRACING != 0,
        rng_kind: raw.rng_kind,
        n: raw.n,
        steps: raw.steps,
        slots: raw.slots,
        file_bytes: raw.file_len,
        checksum: raw.checksum,
    })
}

/// Loads and fully validates the checkpoint at `path` for `protocol`,
/// checking the identity fingerprint, name and symmetry flag against the
/// supplied protocol and every section against the header counters. The
/// returned checkpoint satisfies [`RunCheckpoint::validate`].
///
/// # Errors
///
/// Every corruption path maps to a distinct [`CheckpointError`] variant; a
/// load never silently yields a checkpoint that would resume wrongly.
pub fn load<P>(protocol: &P, path: &Path) -> Result<RunCheckpoint<P::State>, CheckpointError>
where
    P: Protocol,
    P::State: FromStr,
    <P::State as FromStr>::Err: Display,
{
    let mut bytes = fs::read(path)?;
    let raw = parse_and_verify(&mut bytes)?;

    let expected = fingerprint(protocol);
    if raw.fingerprint != expected {
        return Err(CheckpointError::IdentityMismatch {
            stored: raw.fingerprint,
            expected,
        });
    }
    let name = std::str::from_utf8(raw.sections[0])
        .map_err(|_| CheckpointError::Corrupt("protocol name is not UTF-8".to_string()))?;
    if name != protocol.name() {
        return Err(CheckpointError::Corrupt(format!(
            "checkpoint names protocol {name:?}, expected {:?}",
            protocol.name()
        )));
    }
    let symmetric = raw.flags & FLAG_SYMMETRIC != 0;
    if symmetric != protocol.is_symmetric() {
        return Err(CheckpointError::Corrupt(format!(
            "checkpoint symmetry flag {symmetric} disagrees with the protocol"
        )));
    }

    let slots = usize::try_from(raw.slots)
        .ok()
        // Each slot costs at least two bytes (text length + count), so the
        // header cannot demand an absurd allocation the body lacks room for.
        .filter(|&s| s.checked_mul(2).is_some_and(|b| b <= raw.sections[1].len()))
        .ok_or_else(|| {
            CheckpointError::Corrupt(format!(
                "header declares {} slot(s), states section holds {} byte(s)",
                raw.slots,
                raw.sections[1].len()
            ))
        })?;
    let mut states = Vec::with_capacity(slots);
    let mut counts = Vec::with_capacity(slots);
    let mut cur = Cursor::new("states", raw.sections[1]);
    for i in 0..slots {
        let len = cur.varint()? as usize;
        let text = std::str::from_utf8(cur.take(len)?)
            .map_err(|_| CheckpointError::Corrupt(format!("state {i} is not UTF-8")))?;
        let state = text.parse::<P::State>().map_err(|e| {
            CheckpointError::Corrupt(format!("state {i} ({text:?}) does not parse: {e}"))
        })?;
        states.push(state);
        counts.push(cur.varint()?);
    }
    cur.finish()?;
    for i in 1..states.len() {
        if states[..i].contains(&states[i]) {
            return Err(CheckpointError::Corrupt(format!(
                "state {i} duplicates an earlier slot"
            )));
        }
    }

    let mut cur = Cursor::new("run", raw.sections[2]);
    let state_changes = cur.varint()?;
    let last_change_step = cur.varint()?;
    let last_disagreement = match cur.byte()? {
        0 => None,
        1 => Some(cur.varint()?),
        b => {
            return Err(CheckpointError::Corrupt(format!(
                "disagreement flag byte is {b}, not 0 or 1"
            )))
        }
    };
    let rng_len = cur.varint()?;
    if rng_len > MAX_RNG_WORDS {
        return Err(CheckpointError::Corrupt(format!(
            "{rng_len} rng state words exceed the {MAX_RNG_WORDS}-word cap"
        )));
    }
    let mut rng_words = Vec::with_capacity(rng_len as usize);
    for _ in 0..rng_len {
        let w = cur.take(4)?;
        rng_words.push(u32::from_le_bytes(w.try_into().expect("4-byte slice")));
    }
    cur.finish()?;

    let tracing = raw.flags & FLAG_TRACING != 0;
    let trace = if tracing {
        let mut cur = Cursor::new("trace", raw.sections[3]);
        let pairs = cur.varint()?;
        // Two varints of at least one byte each per pair.
        if pairs
            .checked_mul(2)
            .is_none_or(|b| b > raw.sections[3].len() as u64)
        {
            return Err(CheckpointError::Corrupt(format!(
                "trace declares {pairs} pair(s), section holds {} byte(s)",
                raw.sections[3].len()
            )));
        }
        let mut list = Vec::with_capacity(pairs as usize);
        for p in 0..pairs {
            let i = cur.varint()?;
            let j = cur.varint()?;
            if i >= raw.slots || j >= raw.slots {
                return Err(CheckpointError::Corrupt(format!(
                    "trace pair {p} ({i}, {j}) references a slot >= {}",
                    raw.slots
                )));
            }
            list.push((i as u32, j as u32));
        }
        cur.finish()?;
        Some(list)
    } else {
        if !raw.sections[3].is_empty() {
            return Err(CheckpointError::Corrupt(format!(
                "untraced checkpoint carries {} trace byte(s)",
                raw.sections[3].len()
            )));
        }
        None
    };

    let mut cur = Cursor::new("aux", raw.sections[4]);
    let aux_count = cur.varint()?;
    // Each entry needs at least two length varints.
    if aux_count
        .checked_mul(2)
        .is_none_or(|b| b > raw.sections[4].len() as u64)
    {
        return Err(CheckpointError::Corrupt(format!(
            "aux declares {aux_count} section(s), holds {} byte(s)",
            raw.sections[4].len()
        )));
    }
    let mut aux = Vec::with_capacity(aux_count as usize);
    for a in 0..aux_count {
        let key_len = cur.varint()? as usize;
        let key = std::str::from_utf8(cur.take(key_len)?)
            .map_err(|_| CheckpointError::Corrupt(format!("aux key {a} is not UTF-8")))?
            .to_string();
        if let Some((prev, _)) = aux.last() {
            if *prev >= key {
                return Err(CheckpointError::Corrupt(format!(
                    "aux key {key:?} out of order after {prev:?}"
                )));
            }
        }
        let payload_len = cur.varint()? as usize;
        let payload = cur.take(payload_len)?.to_vec();
        aux.push((key, payload));
    }
    cur.finish()?;

    let checkpoint = RunCheckpoint {
        protocol: name.to_string(),
        fingerprint: raw.fingerprint,
        param: raw.param,
        symmetric,
        n: raw.n,
        stats: SimStats {
            steps: raw.steps,
            state_changes,
            last_change_step,
        },
        last_disagreement,
        states,
        counts,
        rng_kind: raw.rng_kind,
        rng_words,
        trace,
        aux,
    };
    checkpoint.validate()?;
    Ok(checkpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn philox_resumable_round_trip_mid_block() {
        let mut rng = Philox4x32::stream(3, 9);
        rng.next_u64(); // used = 2, mid-block
        let words = ResumableRng::save_words(&rng);
        assert_eq!(words.len(), 7);
        let mut restored: Philox4x32 = ResumableRng::load_words(&words).unwrap();
        for _ in 0..16 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
        assert!(<Philox4x32 as ResumableRng>::load_words(&words[..6]).is_none());
    }

    #[test]
    fn stdrng_resumable_round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        rng.next_u64();
        let words = ResumableRng::save_words(&rng);
        assert_eq!(words.len(), 8);
        let mut restored: StdRng = ResumableRng::load_words(&words).unwrap();
        for _ in 0..16 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
        assert!(<StdRng as ResumableRng>::load_words(&words[..7]).is_none());
    }

    #[test]
    fn aux_sections_stay_sorted() {
        let mut ck: RunCheckpoint<u8> = RunCheckpoint {
            protocol: "t".into(),
            fingerprint: 0,
            param: 0,
            symmetric: false,
            n: 0,
            stats: SimStats::default(),
            last_disagreement: None,
            states: Vec::new(),
            counts: Vec::new(),
            rng_kind: 1,
            rng_words: Vec::new(),
            trace: None,
            aux: Vec::new(),
        };
        ck.set_aux("zeta", vec![1]);
        ck.set_aux("alpha", vec![2]);
        ck.set_aux("zeta", vec![3]);
        assert_eq!(ck.aux("alpha"), Some(&[2u8][..]));
        assert_eq!(ck.aux("zeta"), Some(&[3u8][..]));
        assert_eq!(ck.aux("missing"), None);
        assert!(ck.validate().is_ok());
    }

    #[test]
    fn validate_rejects_inconsistent_counts() {
        let ck: RunCheckpoint<u8> = RunCheckpoint {
            protocol: "t".into(),
            fingerprint: 0,
            param: 0,
            symmetric: false,
            n: 5,
            stats: SimStats::default(),
            last_disagreement: None,
            states: vec![1, 2],
            counts: vec![2, 2],
            rng_kind: 1,
            rng_words: Vec::new(),
            trace: None,
            aux: Vec::new(),
        };
        assert!(matches!(ck.validate(), Err(CheckpointError::Corrupt(_))));
    }
}

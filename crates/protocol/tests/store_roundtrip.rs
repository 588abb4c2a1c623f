//! Robustness of the on-disk transition-table store.
//!
//! Three claims:
//!
//! 1. **Round trips are lossless**: `save` → `load` reproduces a
//!    bit-identical table (`dump()` equality), and an engine warm-started
//!    from the loaded table replays a cold run's `RunReport` exactly —
//!    with **zero protocol transition calls** on the load itself.
//! 2. **Corruption fails loudly**: truncation at every prefix length, a
//!    flipped checksum byte, a flipped body byte, a wrong format version
//!    and a foreign magic each produce the matching typed [`StoreError`] —
//!    never a wrong table.
//! 3. **Identity is enforced**: a store saved for one protocol
//!    parameterization refuses to load for another
//!    ([`StoreError::IdentityMismatch`]).

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use pp_protocol::transition_store::{self, StoreError, FORMAT_V1, FORMAT_VERSION};
use pp_protocol::{CountEngine, Protocol, SparseActivity, TransitionTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A randomly generated symmetric rule over states `0..m` (u8 states give
/// the `Display`/`FromStr` codec for free); mirrors the `warm_table`
/// integration test's generator.
struct RandSym {
    m: u8,
    seed: u64,
    calls: Cell<u64>,
}

impl RandSym {
    fn new(m: u8, seed: u64) -> Self {
        RandSym {
            m,
            seed,
            calls: Cell::new(0),
        }
    }
}

fn mix(seed: u64, lo: u8, hi: u8) -> u64 {
    let mut h = seed ^ (u64::from(lo) << 8) ^ (u64::from(hi) << 20) ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl Protocol for RandSym {
    type State = u8;
    type Input = u8;
    type Output = u8;

    fn name(&self) -> &str {
        "rand-sym"
    }

    fn input(&self, i: &u8) -> u8 {
        *i % self.m
    }

    fn output(&self, s: &u8) -> u8 {
        *s
    }

    fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
        self.calls.set(self.calls.get() + 1);
        let (lo, hi) = (*a.min(b), *a.max(b));
        let h = mix(self.seed, lo, hi);
        if h.is_multiple_of(3) {
            let t = ((h >> 2) % u64::from(self.m)) as u8;
            (t, t)
        } else {
            (*a, *b)
        }
    }

    fn is_symmetric(&self) -> bool {
        true
    }

    fn fingerprint_param(&self) -> u64 {
        // Rule seed and state count identify the random protocol instance.
        self.seed ^ (u64::from(self.m) << 56)
    }
}

const BUDGET: u64 = 200_000;

/// A unique temp path per call, cleaned up by [`TempStore`]'s Drop.
struct TempStore(PathBuf);

impl TempStore {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        TempStore(std::env::temp_dir().join(format!(
            "pp-store-roundtrip-{}-{}.ppts",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Runs a bounded uniform trial, returning the warm table and the report.
fn discovered(
    protocol: &RandSym,
    inputs: &[u8],
    seed: u64,
) -> (TransitionTable<RandSym>, pp_protocol::RunReport<u8>) {
    let mut engine = CountEngine::from_inputs(protocol, inputs, seed);
    let _ = engine.run_until_silent(BUDGET);
    (engine.warm_table(), engine.report())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 1: save → load is bit-lossless, warm runs off the loaded
    /// table replay cold reports exactly, and the load itself makes zero
    /// protocol transition calls.
    #[test]
    fn round_trip_is_bit_identical(
        rule_seed in any::<u64>(),
        inputs in proptest::collection::vec(0u8..12, 2..40),
        run_seed in any::<u64>(),
    ) {
        let protocol = RandSym::new(12, rule_seed);
        let (table, cold_report) = discovered(&protocol, &inputs, run_seed);
        let tmp = TempStore::new();

        let meta = transition_store::save(&table, &protocol, &tmp.0).unwrap();
        prop_assert_eq!(meta.states as usize, table.len());
        prop_assert_eq!(meta.pairs as usize, table.active_pairs());

        let calls_before = protocol.calls.get();
        let loaded = transition_store::load(&protocol, &tmp.0).unwrap();
        prop_assert_eq!(
            protocol.calls.get(),
            calls_before,
            "loading must make zero protocol transition calls"
        );
        prop_assert_eq!(loaded.dump(), table.dump());

        // A warm engine over the loaded table replays the cold run's
        // report bit-identically (canonical slot order contract).
        let config = inputs.iter().map(|i| protocol.input(i)).collect();
        let mut warm = CountEngine::<_, _, SparseActivity, _>::with_snapshot_rng(
            &protocol,
            config,
            pp_protocol::UniformCountScheduler::new(),
            StdRng::seed_from_u64(run_seed),
            loaded.snapshot(),
        );
        let _ = warm.run_until_silent(BUDGET);
        prop_assert_eq!(warm.report(), cold_report);
    }

    /// Claim 2 (exhaustive truncation): every proper prefix of a valid
    /// store fails with a typed error — never loads.
    #[test]
    fn every_truncation_fails_loudly(
        rule_seed in any::<u64>(),
        cut_permille in 0u64..1000,
    ) {
        let protocol = RandSym::new(8, rule_seed);
        let (table, _) = discovered(&protocol, &[0, 1, 2, 3, 4, 5, 6, 7], 1);
        let tmp = TempStore::new();
        transition_store::save(&table, &protocol, &tmp.0).unwrap();
        let bytes = std::fs::read(&tmp.0).unwrap();
        let cut = bytes.len() * usize::try_from(cut_permille).unwrap() / 1000;
        std::fs::write(&tmp.0, &bytes[..cut]).unwrap();
        let err = transition_store::load(&protocol, &tmp.0).unwrap_err();
        prop_assert!(
            matches!(
                err,
                StoreError::Truncated { .. } | StoreError::ChecksumMismatch { .. }
            ),
            "prefix of {cut}/{} bytes gave {err}", bytes.len()
        );
    }
}

/// Builds one small valid store on disk and returns its bytes.
fn saved_store(protocol: &RandSym) -> (TempStore, Vec<u8>) {
    let (table, _) = discovered(protocol, &[0, 1, 2, 3, 4, 5], 3);
    let tmp = TempStore::new();
    transition_store::save(&table, protocol, &tmp.0).unwrap();
    let bytes = std::fs::read(&tmp.0).unwrap();
    (tmp, bytes)
}

#[test]
fn flipped_checksum_byte_is_a_checksum_mismatch() {
    let protocol = RandSym::new(8, 0xABCDEF);
    let (tmp, mut bytes) = saved_store(&protocol);
    bytes[0x80] ^= 0xFF; // first byte of the stored checksum
    std::fs::write(&tmp.0, &bytes).unwrap();
    assert!(matches!(
        transition_store::load(&protocol, &tmp.0),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

#[test]
fn flipped_body_byte_is_a_checksum_mismatch() {
    let protocol = RandSym::new(8, 0xABCDEF);
    let (tmp, mut bytes) = saved_store(&protocol);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&tmp.0, &bytes).unwrap();
    assert!(matches!(
        transition_store::load(&protocol, &tmp.0),
        Err(StoreError::ChecksumMismatch { .. })
    ));
}

#[test]
fn wrong_version_is_unsupported() {
    let protocol = RandSym::new(8, 0xABCDEF);
    let (tmp, mut bytes) = saved_store(&protocol);
    bytes[0x0C..0x10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&tmp.0, &bytes).unwrap();
    match transition_store::load(&protocol, &tmp.0) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn foreign_magic_is_rejected() {
    let protocol = RandSym::new(8, 0xABCDEF);
    let (tmp, mut bytes) = saved_store(&protocol);
    bytes[0] = b'X';
    std::fs::write(&tmp.0, &bytes).unwrap();
    assert!(matches!(
        transition_store::load(&protocol, &tmp.0),
        Err(StoreError::BadMagic)
    ));
    std::fs::write(&tmp.0, b"not a store at all").unwrap();
    assert!(matches!(
        transition_store::load(&protocol, &tmp.0),
        Err(StoreError::BadMagic)
    ));
}

#[test]
fn flipped_endian_marker_is_an_endian_mismatch() {
    let protocol = RandSym::new(8, 0xABCDEF);
    let (tmp, mut bytes) = saved_store(&protocol);
    bytes[0x08..0x0C].reverse(); // a big-endian writer's marker
    std::fs::write(&tmp.0, &bytes).unwrap();
    assert!(matches!(
        transition_store::load(&protocol, &tmp.0),
        Err(StoreError::EndianMismatch)
    ));
}

#[test]
fn mismatched_fingerprint_is_an_identity_mismatch() {
    let writer = RandSym::new(8, 0xABCDEF);
    let (tmp, _) = saved_store(&writer);
    // Same state space, different rule seed: a different protocol identity.
    let reader = RandSym::new(8, 0xABCDEE);
    match transition_store::load(&reader, &tmp.0) {
        Err(StoreError::IdentityMismatch { stored, expected }) => {
            assert_eq!(stored, transition_store::fingerprint(&writer));
            assert_eq!(expected, transition_store::fingerprint(&reader));
        }
        other => panic!("expected IdentityMismatch, got {other:?}"),
    }
}

#[test]
fn missing_file_is_io_not_found() {
    let protocol = RandSym::new(8, 1);
    let path = std::env::temp_dir().join("pp-store-never-written.ppts");
    match transition_store::load(&protocol, &path) {
        Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
}

#[test]
fn inspect_reports_the_header_without_a_protocol() {
    let protocol = RandSym::new(8, 0x5EED);
    let (table, _) = discovered(&protocol, &[0, 1, 2, 3, 4, 5, 6, 7], 9);
    let tmp = TempStore::new();
    let saved = transition_store::save(&table, &protocol, &tmp.0).unwrap();
    let inspected = transition_store::inspect(&tmp.0).unwrap();
    assert_eq!(inspected, saved);
    assert_eq!(inspected.protocol, "rand-sym");
    assert_eq!(inspected.version, FORMAT_V1);
    assert_eq!(
        inspected.fingerprint,
        transition_store::fingerprint(&protocol)
    );
    assert_eq!(inspected.states as usize, table.len());
}

#[test]
fn audit_catches_a_protocol_that_drifted() {
    // Same fingerprint_param forced onto a different rule: load succeeds
    // (identity looks right) but audit must expose the semantic drift.
    struct Impostor(RandSym, u64);
    impl Protocol for Impostor {
        type State = u8;
        type Input = u8;
        type Output = u8;
        fn name(&self) -> &str {
            self.0.name()
        }
        fn input(&self, i: &u8) -> u8 {
            self.0.input(i)
        }
        fn output(&self, s: &u8) -> u8 {
            self.0.output(s)
        }
        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            self.0.transition(a, b)
        }
        fn is_symmetric(&self) -> bool {
            true
        }
        fn fingerprint_param(&self) -> u64 {
            self.1
        }
    }

    let writer = RandSym::new(8, 77);
    let param = writer.fingerprint_param();
    let (tmp, _) = saved_store(&writer);
    // A different rule wearing the writer's identity.
    let impostor = Impostor(RandSym::new(8, 78), param);
    let table = transition_store::load(&impostor, &tmp.0).unwrap();
    assert!(
        transition_store::audit(&impostor, &table, u64::MAX).is_err(),
        "audit must notice the table disagrees with the impostor's rule"
    );
    // The genuine protocol audits clean.
    let table = transition_store::load(&writer, &tmp.0).unwrap();
    let report = transition_store::audit(&writer, &table, u64::MAX).unwrap();
    assert_eq!(report.states, table.len());
}

//! Robustness of the on-disk run checkpoint (`.pprc`).
//!
//! Three claims, mirroring `store_roundtrip.rs` for the sibling `.ppts`
//! format:
//!
//! 1. **Resume is bit-exact everywhere**: a run interrupted at a randomly
//!    chosen change-point, checkpointed to disk, loaded back and resumed
//!    finishes with the same `RunReport`, recorded `CountTrace` and final
//!    configuration as the uninterrupted reference — across every activity
//!    index ({sparse, compact}) and both cold and warm starts, and
//!    the loaded checkpoint equals the saved one field-for-field.
//! 2. **Corruption fails loudly**: truncation at every prefix length and a
//!    bit flip at an arbitrary offset each produce a typed
//!    [`CheckpointError`] — never a panic, never a silently-wrong resume.
//! 3. **Identity is enforced**: a checkpoint saved under one protocol
//!    parameterization refuses to resume under another.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use pp_protocol::run_checkpoint::{self, CheckpointError, FORMAT_VERSION};
use pp_protocol::{
    Activity, CompactActivity, CountConfig, CountEngine, CountTrace, Protocol, RunCheckpoint,
    RunReport, SparseActivity, TransitionTable, UniformCountScheduler,
};
use proptest::prelude::*;
use rand::rngs::Philox4x32;

/// A randomly generated symmetric rule over states `0..m`; mirrors the
/// `store_roundtrip` generator (u8 states give the `Display`/`FromStr`
/// codec for free).
struct RandSym {
    m: u8,
    seed: u64,
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
        self.seed ^ (u64::from(self.m) << 56)
    }
}

const BUDGET: u64 = 200_000;

/// A unique temp path per call, cleaned up on Drop.
struct TempCk(PathBuf);

impl TempCk {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        TempCk(std::env::temp_dir().join(format!(
            "pp-run-checkpoint-{}-{}.pprc",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for TempCk {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Builds an engine over activity index `A`, cold or warm from `table`.
fn make_engine<'p, A: Activity>(
    protocol: &'p RandSym,
    config: CountConfig<u8>,
    seed: u64,
    table: Option<&TransitionTable<RandSym>>,
) -> CountEngine<'p, RandSym, UniformCountScheduler, A, Philox4x32> {
    let scheduler = UniformCountScheduler::new();
    let rng = Philox4x32::stream(5, seed);
    match table {
        Some(table) => {
            CountEngine::with_snapshot_rng(protocol, config, scheduler, rng, table.snapshot())
        }
        None => CountEngine::with_rng(protocol, config, scheduler, rng),
    }
}

/// Drives an engine to silence (or the step budget) and returns its
/// observable outcome — the full bit-identity surface.
fn finish<A: Activity>(
    mut engine: CountEngine<'_, RandSym, UniformCountScheduler, A, Philox4x32>,
) -> (RunReport<u8>, Option<CountTrace<u8>>, CountConfig<u8>) {
    let _ = engine.run_until_silent(BUDGET);
    let trace = engine.take_trace();
    (engine.report(), trace, engine.config())
}

/// One matrix cell: reference run vs interrupt-at-a-random-change-point →
/// save → load → resume.
fn roundtrip_case<A: Activity>(
    protocol: &RandSym,
    config: &CountConfig<u8>,
    seed: u64,
    table: Option<&TransitionTable<RandSym>>,
    every: u64,
    break_at: u64,
) {
    let mut reference = make_engine::<A>(protocol, config.clone(), seed, table);
    reference.record_trace();
    let want = finish(reference);

    let mut engine = make_engine::<A>(protocol, config.clone(), seed, table);
    engine.record_trace();
    let mut saved = None;
    let mut offers = 0u64;
    let _ = engine.run_until_silent_checkpointed(BUDGET, every, |e| {
        offers += 1;
        if offers == break_at {
            saved = Some(e.checkpoint());
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    let Some(ck) = saved else {
        // The run ended before the chosen change-point; the hooked run
        // itself must already match the reference.
        assert_eq!(finish(engine), want);
        return;
    };

    let tmp = TempCk::new();
    let meta = run_checkpoint::save(&ck, &tmp.0).unwrap();
    assert_eq!(meta.slots as usize, ck.states.len());
    let loaded: RunCheckpoint<u8> = run_checkpoint::load(protocol, &tmp.0).unwrap();
    assert_eq!(&loaded, &ck, "save → load must be lossless");

    let resumed =
        CountEngine::<_, _, A, Philox4x32>::resume(protocol, UniformCountScheduler::new(), &loaded)
            .unwrap();
    assert_eq!(finish(resumed), want, "resumed run must be bit-identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Claim 1: the full {sparse, compact} × {cold, warm} matrix
    /// resumes bit-identically from a random change-point.
    #[test]
    fn resume_is_bit_identical_across_engines_and_warmth(
        rule_seed in any::<u64>(),
        inputs in proptest::collection::vec(0u8..10, 4..48),
        run_seed in any::<u64>(),
        every in 1u64..24,
        break_at in 1u64..6,
    ) {
        let protocol = RandSym { m: 10, seed: rule_seed };
        let config: CountConfig<u8> = inputs.iter().map(|i| protocol.input(i)).collect();
        // Discover a warm table from a throwaway cold run.
        let table = {
            let mut engine = CountEngine::from_inputs(&protocol, &inputs, 1);
            let _ = engine.run_until_silent(BUDGET);
            engine.warm_table()
        };
        for table in [None, Some(&table)] {
            roundtrip_case::<SparseActivity>(&protocol, &config, run_seed, table, every, break_at);
            roundtrip_case::<CompactActivity>(&protocol, &config, run_seed, table, every, break_at);
        }
    }
}

/// Builds one valid checkpoint on disk mid-run and returns its bytes.
fn saved_checkpoint(protocol: &RandSym) -> (TempCk, Vec<u8>) {
    let inputs: Vec<u8> = (0..64).map(|i| i % 8).collect();
    let config: CountConfig<u8> = inputs.iter().map(|i| protocol.input(i)).collect();
    let mut engine = make_engine::<SparseActivity>(protocol, config, 3, None);
    engine.record_trace();
    let mut saved = None;
    let _ = engine.run_until_silent_checkpointed(BUDGET, 2, |e| {
        saved = Some(e.checkpoint());
        ControlFlow::Break(())
    });
    let ck = saved.expect("the run reaches at least two state changes");
    let tmp = TempCk::new();
    run_checkpoint::save(&ck, &tmp.0).unwrap();
    let bytes = std::fs::read(&tmp.0).unwrap();
    (tmp, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 2 (exhaustive truncation): every proper prefix of a valid
    /// checkpoint fails with a typed error — never loads.
    #[test]
    fn every_truncation_fails_loudly(
        rule_seed in any::<u64>(),
        cut_permille in 0u64..1000,
    ) {
        let protocol = RandSym { m: 8, seed: rule_seed };
        let (tmp, bytes) = saved_checkpoint(&protocol);
        let cut = bytes.len() * usize::try_from(cut_permille).unwrap() / 1000;
        std::fs::write(&tmp.0, &bytes[..cut]).unwrap();
        let err = run_checkpoint::load::<RandSym>(&protocol, &tmp.0).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CheckpointError::Truncated { .. } | CheckpointError::ChecksumMismatch { .. }
            ),
            "prefix of {cut}/{} bytes gave {err}", bytes.len()
        );
    }

    /// Claim 2 (arbitrary bit flips): flipping any single bit anywhere in
    /// the file yields a typed error — the whole-file checksum leaves no
    /// unprotected byte, so corruption can never resume silently wrong.
    #[test]
    fn any_single_bit_flip_fails_loudly(
        rule_seed in any::<u64>(),
        offset_permille in 0u64..1000,
        bit in 0u8..8,
    ) {
        let protocol = RandSym { m: 8, seed: rule_seed };
        let (tmp, mut bytes) = saved_checkpoint(&protocol);
        let offset = bytes.len() * usize::try_from(offset_permille).unwrap() / 1000;
        let offset = offset.min(bytes.len() - 1);
        bytes[offset] ^= 1 << bit;
        std::fs::write(&tmp.0, &bytes).unwrap();
        let err = run_checkpoint::load::<RandSym>(&protocol, &tmp.0).unwrap_err();
        // Which typed error depends on the field hit (magic, endianness,
        // version, section table, checksum, body); all are loud.
        prop_assert!(
            !matches!(err, CheckpointError::Io(_)),
            "a readable corrupt file must give a format error, got {err}"
        );
    }
}

#[test]
fn wrong_version_is_unsupported() {
    let protocol = RandSym {
        m: 8,
        seed: 0xABCDEF,
    };
    let (tmp, mut bytes) = saved_checkpoint(&protocol);
    bytes[0x0C..0x10].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    std::fs::write(&tmp.0, &bytes).unwrap();
    match run_checkpoint::load::<RandSym>(&protocol, &tmp.0) {
        Err(CheckpointError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn foreign_magic_is_rejected() {
    let protocol = RandSym {
        m: 8,
        seed: 0xABCDEF,
    };
    let (tmp, mut bytes) = saved_checkpoint(&protocol);
    bytes[0] = b'X';
    std::fs::write(&tmp.0, &bytes).unwrap();
    assert!(matches!(
        run_checkpoint::load::<RandSym>(&protocol, &tmp.0),
        Err(CheckpointError::BadMagic)
    ));
    std::fs::write(&tmp.0, b"not a checkpoint").unwrap();
    assert!(matches!(
        run_checkpoint::load::<RandSym>(&protocol, &tmp.0),
        Err(CheckpointError::BadMagic)
    ));
}

#[test]
fn flipped_endian_marker_is_an_endian_mismatch() {
    let protocol = RandSym {
        m: 8,
        seed: 0xABCDEF,
    };
    let (tmp, mut bytes) = saved_checkpoint(&protocol);
    bytes[0x08..0x0C].reverse(); // a big-endian writer's marker
    std::fs::write(&tmp.0, &bytes).unwrap();
    assert!(matches!(
        run_checkpoint::load::<RandSym>(&protocol, &tmp.0),
        Err(CheckpointError::EndianMismatch)
    ));
}

/// Claim 3: a checkpoint saved under one protocol parameterization refuses
/// to load under another.
#[test]
fn mismatched_fingerprint_is_an_identity_mismatch() {
    let writer = RandSym {
        m: 8,
        seed: 0xABCDEF,
    };
    let (tmp, _) = saved_checkpoint(&writer);
    let reader = RandSym {
        m: 8,
        seed: 0xABCDEE,
    };
    assert!(matches!(
        run_checkpoint::load::<RandSym>(&reader, &tmp.0),
        Err(CheckpointError::IdentityMismatch { .. })
    ));
}

#[test]
fn missing_file_is_io_not_found() {
    let protocol = RandSym { m: 8, seed: 1 };
    let path = std::env::temp_dir().join("pp-checkpoint-never-written.pprc");
    match run_checkpoint::load::<RandSym>(&protocol, &path) {
        Err(CheckpointError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        other => panic!("expected Io(NotFound), got {other:?}"),
    }
}

//! Checkpoint persistence for hazardous runs — the glue that makes a
//! [`run_with_hazards`](crate::hazards::run_with_hazards) campaign crash-tolerant.
//!
//! The engine's own [`RunCheckpoint`] captures counts, counters and the
//! trial RNG, but a hazardous run carries extra driver state: which hazards
//! already fired, the pending [`HazardPlan`] tail, the quarantined (stuck)
//! mass, and the *hazard* RNG's stream position. This module persists all of
//! that in one named auxiliary checkpoint section
//! ([`HAZARD_AUX_SECTION`]), and provides
//! [`run_with_hazards_checkpointed`] — a drop-in for `run_with_hazards`
//! whose trajectory (engine draws *and* hazard draws) is bit-identical to
//! the uninterrupted driver, while periodically offering complete,
//! resumable checkpoints to a save hook.
//!
//! Resume flow: load the `.pprc`, [`decode_hazard_aux`] its hazard section
//! into a [`HazardProgress`] plus the restored hazard RNG, resume the
//! engine ([`CountEngine::resume`]), and call
//! [`run_with_hazards_checkpointed`] again — the remainder of the run is
//! byte-identical to the run that was never killed.

use std::fmt::Display;
use std::ops::ControlFlow;
use std::str::FromStr;

use pp_protocol::{
    Activity, CheckpointError, CountConfig, CountEngine, CountScheduler, FrameworkError, Protocol,
    ResumableRng, RunCheckpoint,
};

use crate::hazards::{apply_hazard, Hazard, HazardKind, HazardOutcome, HazardPlan};

/// Name of the auxiliary checkpoint section holding hazard-driver state.
/// The `/v1` suffix versions the payload independently of the `.pprc`
/// container format.
pub const HAZARD_AUX_SECTION: &str = "hazards/v1";

/// Upper bound on hazard-RNG state words in the aux payload — mirrors the
/// engine checkpoint's own cap so a corrupt count cannot drive an absurd
/// allocation.
const MAX_RNG_WORDS: u64 = 64;

/// The hazard driver's resumable state: how far through the schedule a run
/// got, what remains, and the mass quarantined so far. Fresh runs start
/// from [`HazardProgress::fresh`]; resumed runs decode theirs from the
/// checkpoint's aux section with [`decode_hazard_aux`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HazardProgress<S: Clone + Ord> {
    /// Hazards fired before this progress was captured.
    pub applied: usize,
    /// Interaction count when the last fired hazard struck (0 when none
    /// has).
    pub last_hazard_step: u64,
    /// The engine's `state_changes` counter when the last hazard struck —
    /// the baseline for recovery accounting.
    pub changes_at_last_hazard: u64,
    /// The not-yet-fired tail of the schedule.
    pub pending: HazardPlan,
    /// Mass removed by [`HazardKind::Stick`] so far, in the state each unit
    /// was stuck in.
    pub quarantined: CountConfig<S>,
}

impl<S: Clone + Ord> HazardProgress<S> {
    /// Progress for a run that has not started its schedule: nothing fired,
    /// everything pending.
    pub fn fresh(plan: HazardPlan) -> Self {
        HazardProgress {
            applied: 0,
            last_hazard_step: 0,
            changes_at_last_hazard: 0,
            pending: plan,
            quarantined: CountConfig::new(),
        }
    }
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn hazard_kind_byte(kind: HazardKind) -> u8 {
    match kind {
        HazardKind::Crash => 0,
        HazardKind::Corrupt => 1,
        HazardKind::Stick => 2,
        HazardKind::Depart => 3,
        HazardKind::Arrive => 4,
    }
}

fn hazard_kind_from_byte(b: u8) -> Option<HazardKind> {
    Some(match b {
        0 => HazardKind::Crash,
        1 => HazardKind::Corrupt,
        2 => HazardKind::Stick,
        3 => HazardKind::Depart,
        4 => HazardKind::Arrive,
        _ => return None,
    })
}

/// Serializes hazard-driver state plus the hazard RNG's stream position
/// into an aux payload for
/// [`RunCheckpoint::set_aux`]`(`[`HAZARD_AUX_SECTION`]`, ..)`.
/// [`decode_hazard_aux`] is the exact inverse.
pub fn encode_hazard_aux<S: Display + Clone + Ord, H: ResumableRng>(
    progress: &HazardProgress<S>,
    hazard_rng: &H,
) -> Vec<u8> {
    let mut buf = Vec::new();
    push_varint(&mut buf, progress.applied as u64);
    push_varint(&mut buf, progress.last_hazard_step);
    push_varint(&mut buf, progress.changes_at_last_hazard);
    push_varint(&mut buf, progress.pending.len() as u64);
    for hazard in progress.pending.events() {
        push_varint(&mut buf, hazard.at_step);
        buf.push(hazard_kind_byte(hazard.kind));
    }
    push_varint(&mut buf, progress.quarantined.distinct() as u64);
    for (state, count) in progress.quarantined.iter() {
        let text = state.to_string();
        push_varint(&mut buf, text.len() as u64);
        buf.extend_from_slice(text.as_bytes());
        push_varint(&mut buf, count as u64);
    }
    let words = hazard_rng.save_words();
    push_varint(&mut buf, u64::from(H::RNG_KIND));
    push_varint(&mut buf, words.len() as u64);
    for w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    buf
}

/// Bounds-checked reader over the aux payload, erroring as
/// [`CheckpointError::Corrupt`] with a `hazard aux` prefix.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn corrupt(msg: &str) -> CheckpointError {
        CheckpointError::Corrupt(format!("hazard aux: {msg}"))
    }

    fn varint(&mut self) -> Result<u64, CheckpointError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let &b = self
                .buf
                .get(self.pos)
                .ok_or_else(|| Self::corrupt("payload ends inside a varint"))?;
            self.pos += 1;
            if shift >= 64 || (shift == 63 && b & 0x7F > 1) {
                return Err(Self::corrupt("oversized varint"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn byte(&mut self) -> Result<u8, CheckpointError> {
        let &b = self
            .buf
            .get(self.pos)
            .ok_or_else(|| Self::corrupt("payload shorter than declared"))?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::corrupt("payload shorter than declared"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn finish(self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Self::corrupt("trailing bytes"))
        }
    }
}

/// Deserializes an [`encode_hazard_aux`] payload back into the driver's
/// progress and its restored hazard RNG.
///
/// # Errors
///
/// [`CheckpointError::RngMismatch`] when the payload was written under a
/// different hazard-RNG family than `H`; [`CheckpointError::Corrupt`] for
/// every structural defect (bad varint, unknown hazard kind, unsorted plan,
/// undecodable RNG words, truncation, trailing bytes).
pub fn decode_hazard_aux<S, H>(bytes: &[u8]) -> Result<(HazardProgress<S>, H), CheckpointError>
where
    S: FromStr + Clone + Ord,
    <S as FromStr>::Err: Display,
    H: ResumableRng,
{
    let mut cur = Cursor { buf: bytes, pos: 0 };
    let applied = usize::try_from(cur.varint()?)
        .map_err(|_| Cursor::corrupt("applied count exceeds usize"))?;
    let last_hazard_step = cur.varint()?;
    let changes_at_last_hazard = cur.varint()?;

    let pending_len = cur.varint()?;
    // Each pending hazard needs at least two bytes (step varint + kind).
    if pending_len
        .checked_mul(2)
        .is_none_or(|b| b > bytes.len() as u64)
    {
        return Err(Cursor::corrupt("pending count exceeds the payload"));
    }
    let mut pending = HazardPlan::new();
    let mut prev_step = 0u64;
    for _ in 0..pending_len {
        let at_step = cur.varint()?;
        if at_step < prev_step {
            return Err(Cursor::corrupt("pending hazards out of step order"));
        }
        prev_step = at_step;
        let kind = hazard_kind_from_byte(cur.byte()?)
            .ok_or_else(|| Cursor::corrupt("unknown hazard kind byte"))?;
        pending.push(Hazard { at_step, kind });
    }

    let distinct = cur.varint()?;
    if distinct
        .checked_mul(2)
        .is_none_or(|b| b > bytes.len() as u64)
    {
        return Err(Cursor::corrupt("quarantine count exceeds the payload"));
    }
    let mut quarantined = CountConfig::new();
    for i in 0..distinct {
        let len = usize::try_from(cur.varint()?)
            .map_err(|_| Cursor::corrupt("state text length exceeds usize"))?;
        let text = std::str::from_utf8(cur.take(len)?)
            .map_err(|_| Cursor::corrupt("quarantined state is not UTF-8"))?;
        let state = text.parse::<S>().map_err(|e| {
            Cursor::corrupt(&format!(
                "quarantined state {i} ({text:?}) does not parse: {e}"
            ))
        })?;
        let count = usize::try_from(cur.varint()?)
            .map_err(|_| Cursor::corrupt("quarantine count exceeds usize"))?;
        if count == 0 || quarantined.count(&state) != 0 {
            return Err(Cursor::corrupt("quarantine entry empty or duplicated"));
        }
        quarantined.insert(state, count);
    }

    let rng_kind =
        u32::try_from(cur.varint()?).map_err(|_| Cursor::corrupt("rng kind exceeds u32"))?;
    if rng_kind != H::RNG_KIND {
        return Err(CheckpointError::RngMismatch {
            stored: rng_kind,
            expected: H::RNG_KIND,
        });
    }
    let word_count = cur.varint()?;
    if word_count > MAX_RNG_WORDS {
        return Err(Cursor::corrupt("rng word count exceeds the cap"));
    }
    let mut words = Vec::with_capacity(word_count as usize);
    for _ in 0..word_count {
        let w = cur.take(4)?;
        words.push(u32::from_le_bytes(w.try_into().expect("4-byte slice")));
    }
    cur.finish()?;
    let rng = H::load_words(&words)
        .ok_or_else(|| Cursor::corrupt("rng state words do not decode to a generator state"))?;

    Ok((
        HazardProgress {
            applied,
            last_hazard_step,
            changes_at_last_hazard,
            pending,
            quarantined,
        },
        rng,
    ))
}

/// [`run_with_hazards`](crate::hazards::run_with_hazards) with periodic resumable
/// checkpoints: every `every_changes` state changes the `save` hook
/// receives a complete [`RunCheckpoint`] — engine state plus a
/// [`HAZARD_AUX_SECTION`] carrying the schedule tail, quarantine ledger and
/// hazard-RNG position. The hook typically persists it with
/// [`pp_protocol::run_checkpoint::save`]; returning
/// [`ControlFlow::Break`] pauses the run
/// ([`FrameworkError::Interrupted`]).
///
/// With `every_changes == 0` (or a hook that never breaks) the run is
/// **bit-identical** to `run_with_hazards` over the same engine, plan, pool
/// and RNGs — hooks observe, they never draw. A killed run resumed from the
/// last saved checkpoint (engine via [`CountEngine::resume`], driver via
/// [`decode_hazard_aux`]) continues exactly where the uninterrupted run
/// would be, including every subsequent hazard draw.
///
/// # Errors
///
/// As [`run_with_hazards`](crate::hazards::run_with_hazards), plus
/// [`FrameworkError::Interrupted`] when the hook breaks.
///
/// # Panics
///
/// Panics when the pending schedule draws restart states and `pool` is
/// empty or zero-weight.
pub fn run_with_hazards_checkpointed<P, CS, A, R, H, F>(
    engine: &mut CountEngine<'_, P, CS, A, R>,
    progress: HazardProgress<P::State>,
    pool: &[(P::Input, u64)],
    hazard_rng: &mut H,
    max_steps: u64,
    every_changes: u64,
    mut save: F,
) -> Result<HazardOutcome<P>, FrameworkError>
where
    P: Protocol,
    P::State: Display,
    CS: CountScheduler<P::State>,
    A: Activity,
    R: ResumableRng,
    H: ResumableRng,
    F: FnMut(&RunCheckpoint<P::State>) -> ControlFlow<()>,
{
    let pool_total: u64 = pool.iter().map(|(_, w)| w).sum();
    assert!(
        pool_total > 0
            || progress
                .pending
                .events()
                .iter()
                .all(|h| !h.kind.needs_pool()),
        "hazard plan draws restart states but the pool is empty"
    );
    let HazardProgress {
        applied: applied_before,
        mut last_hazard_step,
        mut changes_at_last_hazard,
        pending,
        mut quarantined,
    } = progress;
    let events = pending.events().to_vec();
    let mut fired = 0usize;
    for (idx, hazard) in events.iter().enumerate() {
        if hazard.at_step > max_steps {
            break;
        }
        if engine.n() >= 2 {
            engine.advance_to_checkpointed(hazard.at_step, every_changes, |e| {
                let mut tail = HazardPlan::new();
                for h in &events[idx..] {
                    tail.push(*h);
                }
                let snapshot = HazardProgress {
                    applied: applied_before + idx,
                    last_hazard_step,
                    changes_at_last_hazard,
                    pending: tail,
                    quarantined: quarantined.clone(),
                };
                let mut ck = e.checkpoint();
                ck.set_aux(
                    HAZARD_AUX_SECTION,
                    encode_hazard_aux(&snapshot, &*hazard_rng),
                );
                save(&ck)
            })?;
        }
        apply_hazard(
            engine,
            hazard.kind,
            pool,
            pool_total,
            hazard_rng,
            &mut quarantined,
        )?;
        debug_assert_eq!(engine.audit(), Ok(()));
        fired = idx + 1;
        last_hazard_step = engine.steps().max(hazard.at_step);
        changes_at_last_hazard = engine.stats().state_changes;
    }
    let tail_hook = |e: &CountEngine<'_, P, CS, A, R>| {
        let snapshot = HazardProgress {
            applied: applied_before + fired,
            last_hazard_step,
            changes_at_last_hazard,
            pending: HazardPlan::new(),
            quarantined: quarantined.clone(),
        };
        let mut ck = e.checkpoint();
        ck.set_aux(
            HAZARD_AUX_SECTION,
            encode_hazard_aux(&snapshot, &*hazard_rng),
        );
        save(&ck)
    };
    let (report, silent) =
        match engine.run_until_silent_checkpointed(max_steps, every_changes, tail_hook) {
            Ok(report) => (report, true),
            Err(FrameworkError::MaxStepsExceeded { .. }) => (engine.report(), false),
            Err(e) => return Err(e),
        };
    let final_config = engine.config();
    let final_n = engine.n() + quarantined.n() as u64;
    Ok(HazardOutcome {
        recovery_steps: report.steps_to_silence.saturating_sub(last_hazard_step),
        recovery_changes: report.state_changes - changes_at_last_hazard,
        stabilized: silent && fired == events.len(),
        report,
        applied: applied_before + fired,
        last_hazard_step,
        final_config,
        quarantined,
        final_n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_protocol::{SparseActivity, UniformCountScheduler};
    use rand::rngs::Philox4x32;
    use rand::RngCore;

    use crate::hazards::run_with_hazards;

    /// Symmetric max toy (both agents adopt the larger value).
    #[derive(Debug)]
    struct SymMax;

    impl Protocol for SymMax {
        type State = u8;
        type Input = u8;
        type Output = u8;

        fn name(&self) -> &str {
            "sym-max"
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
            true
        }
    }

    fn mixed_plan(n: u64) -> HazardPlan {
        let mut plan = HazardPlan::new();
        for (i, kind) in [
            HazardKind::Crash,
            HazardKind::Corrupt,
            HazardKind::Stick,
            HazardKind::Depart,
            HazardKind::Arrive,
            HazardKind::Crash,
        ]
        .into_iter()
        .enumerate()
        {
            plan.push(Hazard {
                at_step: (i as u64 + 1) * n / 4,
                kind,
            });
        }
        plan
    }

    fn engine_from(
        seed: u64,
    ) -> CountEngine<'static, SymMax, UniformCountScheduler, SparseActivity, Philox4x32> {
        let config: CountConfig<u8> = (0..400u32).map(|i| (i % 19) as u8).collect();
        CountEngine::with_rng(
            &SymMax,
            config,
            UniformCountScheduler::new(),
            Philox4x32::stream(11, seed),
        )
    }

    #[test]
    fn aux_payload_round_trips() {
        let mut plan = HazardPlan::crashes([10, 20, 30]);
        plan.push(Hazard {
            at_step: 25,
            kind: HazardKind::Stick,
        });
        let mut quarantined = CountConfig::new();
        quarantined.insert(3u8, 2);
        quarantined.insert(7u8, 1);
        let progress = HazardProgress {
            applied: 4,
            last_hazard_step: 99,
            changes_at_last_hazard: 42,
            pending: plan,
            quarantined,
        };
        let mut rng = Philox4x32::stream(5, 6);
        rng.next_u64(); // mid-block position must survive the round trip
        let payload = encode_hazard_aux(&progress, &rng);
        let (decoded, mut restored): (HazardProgress<u8>, Philox4x32) =
            decode_hazard_aux(&payload).unwrap();
        assert_eq!(decoded, progress);
        for _ in 0..8 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn aux_corruption_yields_typed_errors() {
        let progress: HazardProgress<u8> = HazardProgress::fresh(HazardPlan::crashes([7]));
        let rng = Philox4x32::stream(0, 0);
        let payload = encode_hazard_aux(&progress, &rng);
        // Truncation at every prefix either round-trips (never true here:
        // full length is required) or errors typed — no panic.
        for cut in 0..payload.len() {
            let err = decode_hazard_aux::<u8, Philox4x32>(&payload[..cut]).unwrap_err();
            assert!(matches!(
                err,
                CheckpointError::Corrupt(_) | CheckpointError::RngMismatch { .. }
            ));
        }
        // Trailing garbage is rejected too.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_hazard_aux::<u8, Philox4x32>(&long).is_err());
        // Wrong RNG family is a mismatch, not a decode.
        use rand::rngs::StdRng;
        assert!(matches!(
            decode_hazard_aux::<u8, StdRng>(&payload),
            Err(CheckpointError::RngMismatch {
                stored: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn checkpointed_driver_matches_uninterrupted_hazard_run() {
        let pool: Vec<(u8, u64)> = (0..19).map(|c| (c as u8, 1)).collect();
        let plan = mixed_plan(400);

        let mut reference = engine_from(1);
        let mut ref_rng = Philox4x32::stream(11, 1 | (1 << 63));
        let expected =
            run_with_hazards(&mut reference, &plan, &pool, &mut ref_rng, u64::MAX).unwrap();

        let mut hooked = engine_from(1);
        let mut rng = Philox4x32::stream(11, 1 | (1 << 63));
        let mut checkpoints = 0u32;
        let outcome = run_with_hazards_checkpointed(
            &mut hooked,
            HazardProgress::fresh(plan),
            &pool,
            &mut rng,
            u64::MAX,
            25,
            |ck| {
                assert!(ck.aux(HAZARD_AUX_SECTION).is_some());
                checkpoints += 1;
                ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert!(checkpoints > 0, "the hook fired at least once");
        assert_eq!(outcome.report, expected.report);
        assert_eq!(outcome.applied, expected.applied);
        assert_eq!(outcome.stabilized, expected.stabilized);
        assert_eq!(outcome.last_hazard_step, expected.last_hazard_step);
        assert_eq!(outcome.recovery_steps, expected.recovery_steps);
        assert_eq!(outcome.recovery_changes, expected.recovery_changes);
        assert_eq!(outcome.final_config, expected.final_config);
        assert_eq!(outcome.quarantined, expected.quarantined);
        assert_eq!(outcome.final_n, expected.final_n);
    }

    #[test]
    fn killed_and_resumed_hazard_run_is_bit_identical() {
        let pool: Vec<(u8, u64)> = (0..19).map(|c| (c as u8, 1)).collect();
        let plan = mixed_plan(400);

        let mut reference = engine_from(2);
        let mut ref_rng = Philox4x32::stream(11, 2 | (1 << 63));
        let expected =
            run_with_hazards(&mut reference, &plan, &pool, &mut ref_rng, u64::MAX).unwrap();

        // "Kill" the run at its third checkpoint offer.
        let mut victim = engine_from(2);
        let mut rng = Philox4x32::stream(11, 2 | (1 << 63));
        let mut latest = None;
        let mut offers = 0u32;
        let err = run_with_hazards_checkpointed(
            &mut victim,
            HazardProgress::fresh(plan),
            &pool,
            &mut rng,
            u64::MAX,
            20,
            |ck| {
                latest = Some(ck.clone());
                offers += 1;
                if offers == 3 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        )
        .unwrap_err();
        assert!(matches!(err, FrameworkError::Interrupted { .. }));
        let ck = latest.expect("a checkpoint was offered");

        // Resume from nothing but the checkpoint: engine + hazard driver.
        let (progress, mut resumed_rng): (HazardProgress<u8>, Philox4x32) =
            decode_hazard_aux(ck.aux(HAZARD_AUX_SECTION).unwrap()).unwrap();
        let mut resumed = CountEngine::<_, _, SparseActivity, Philox4x32>::resume(
            &SymMax,
            UniformCountScheduler::new(),
            &ck,
        )
        .unwrap();
        let outcome = run_with_hazards_checkpointed(
            &mut resumed,
            progress,
            &pool,
            &mut resumed_rng,
            u64::MAX,
            0,
            |_| ControlFlow::Continue(()),
        )
        .unwrap();
        assert_eq!(outcome.report, expected.report);
        assert_eq!(outcome.applied, expected.applied);
        assert_eq!(outcome.stabilized, expected.stabilized);
        assert_eq!(outcome.final_config, expected.final_config);
        assert_eq!(outcome.quarantined, expected.quarantined);
        assert_eq!(outcome.final_n, expected.final_n);
    }
}

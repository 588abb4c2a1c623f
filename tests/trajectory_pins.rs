//! Cross-commit trajectory pins for the count engine.
//!
//! The determinism suites elsewhere compare two runs *within one build*
//! (cold vs warm, sparse vs compact, checkpointed vs straight). These
//! tests pin the literal [`RunReport`] fields of fixed-seed Circles runs,
//! so a change to the activity index, the scheduler's draws or slot
//! numbering that shifts any trajectory fails here even when every
//! in-build comparison still agrees. Fixed-seed reports are the contract:
//! a change that means to alter the sampling law updates these constants
//! and says why.

use circles::analysis::workloads::margin_counts;
use circles::core::{CirclesProtocol, CirclesState, Color};
use circles::protocol::{
    CompactCountEngine, CountConfig, CountEngine, Protocol, RunReport, UniformCountScheduler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The margin workload as an anonymous configuration: color 0 leads by
/// `n / 10` over equally supported losers.
fn margin_config(protocol: &CirclesProtocol, n: u64, k: u16) -> CountConfig<CirclesState> {
    let mut config = CountConfig::new();
    for (color, count) in margin_counts(n, k, n / 10) {
        config.insert(protocol.input(&color), count as usize);
    }
    config
}

/// The pinned fields of one report: `(steps, state_changes,
/// steps_to_silence, consensus)`.
fn pinned(report: &RunReport<Color>) -> (u64, u64, u64, Option<Color>) {
    (
        report.steps,
        report.state_changes,
        report.steps_to_silence,
        report.consensus,
    )
}

/// k = 3 fits 18 slots, all inside one 64-row block of the activity index.
#[test]
fn k3_sparse_run_is_pinned() {
    let protocol = CirclesProtocol::new(3).unwrap();
    let config = margin_config(&protocol, 10_000, 3);
    let mut engine = CountEngine::from_config(&protocol, config, 2024);
    let report = engine.run_until_silent(u64::MAX / 2).unwrap();
    assert_eq!(
        pinned(&report),
        (117_151_707, 27_014, 117_151_707, Some(Color(0)))
    );
    assert_eq!(engine.slots(), 18);
}

/// k = 10 reaches 624 slots — ten 64-row blocks — so every draw crosses
/// block boundaries. The warm rerun on the compressed-row index, from the
/// table the cold run exported, must land on the same pins.
#[test]
fn k10_sparse_and_warm_compact_runs_are_pinned() {
    const PINS: (u64, u64, u64, Option<Color>) = (4_991_765, 7_569, 4_991_765, Some(Color(0)));
    let protocol = CirclesProtocol::new(10).unwrap();
    let config = margin_config(&protocol, 2_000, 10);
    let mut cold = CountEngine::from_config(&protocol, config.clone(), 7);
    let report = cold.run_until_silent(u64::MAX / 2).unwrap();
    assert_eq!(pinned(&report), PINS, "cold sparse");
    assert_eq!(cold.slots(), 624);

    let table = cold.warm_table();
    let mut warm = CompactCountEngine::with_snapshot_rng(
        &protocol,
        config,
        UniformCountScheduler::new(),
        StdRng::seed_from_u64(7),
        table.snapshot(),
    );
    let report = warm.run_until_silent(u64::MAX / 2).unwrap();
    assert_eq!(pinned(&report), PINS, "warm compact");
    assert_eq!(warm.slots(), 624);
}

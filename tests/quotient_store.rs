//! Quotient tables and `.ppts` v2 stores, end to end.
//!
//! Circles `k = 4` is built through its rotation quotient, saved in the v2
//! layout and loaded back. The loaded table (kept in orbit form) must match
//! what a cold engine discovers over the full state enumeration, must load
//! with zero protocol calls, and must serve warm runs, and runs resumed
//! from their checkpoints, that report exactly what cold runs report.

use std::ops::ControlFlow;
use std::path::PathBuf;

use circles::analysis::workloads::margin_workload;
use circles::core::{CirclesProtocol, Color};
use circles::protocol::{
    quotient_table, run_checkpoint, transition_store, CountConfig, CountEngine, EnumerableProtocol,
    Protocol, RunReport, TransitionTable, UniformCountScheduler,
};
use pp_bench::CallCounter;
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: u16 = 4;
const N: usize = 2_000;

/// A file path under the temp dir, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str) -> Self {
        TempFile(std::env::temp_dir().join(format!(
            "circles-quotient-store-{tag}-{}",
            std::process::id()
        )))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn config(protocol: &CirclesProtocol) -> CountConfig<<CirclesProtocol as Protocol>::State> {
    margin_workload(N, K, N / 10)
        .iter()
        .map(|c| protocol.input(c))
        .collect()
}

fn cold_report(protocol: &CirclesProtocol, seed: u64) -> RunReport<Color> {
    let mut engine: CountEngine<'_, CirclesProtocol> = CountEngine::with_rng(
        protocol,
        config(protocol),
        UniformCountScheduler::new(),
        StdRng::seed_from_u64(seed),
    );
    engine.run_until_silent(u64::MAX).unwrap()
}

#[test]
fn v2_store_serves_warm_and_resumed_runs_like_cold_ones() {
    let protocol = CirclesProtocol::new(K).unwrap();
    let built = quotient_table(&protocol).unwrap();
    let store = TempFile::new("k4.ppts");
    let meta = transition_store::save_quotient(&built, &protocol, &store.0).unwrap();
    assert_eq!(meta.version, transition_store::FORMAT_V2);

    let counter = CallCounter::new(&protocol);
    transition_store::load(&counter, &store.0).unwrap();
    assert_eq!(
        counter.calls(),
        0,
        "loading a store makes no protocol calls"
    );
    let loaded = transition_store::load(&protocol, &store.0).unwrap();

    let primed = TransitionTable::new();
    let mut engine = CountEngine::from_config(&protocol, CountConfig::new(), 0);
    engine.prime_states(protocol.states());
    engine.export_to(&primed);
    assert_eq!(loaded.dump(), primed.dump());
    assert_eq!(built.dump(), primed.dump());

    let snap = loaded.snapshot();
    for seed in [1, 29] {
        let cold = cold_report(&protocol, seed);
        assert_eq!(cold.consensus, Some(Color(0)));

        let checkpoint = TempFile::new(&format!("seed{seed}.pprc"));
        let mut warm: CountEngine<'_, CirclesProtocol> = CountEngine::with_snapshot_rng(
            &protocol,
            config(&protocol),
            UniformCountScheduler::new(),
            StdRng::seed_from_u64(seed),
            snap.clone(),
        );
        let mut saves = 0;
        let report = warm
            .run_until_silent_checkpointed(u64::MAX, 500, |e| {
                run_checkpoint::save(&e.checkpoint(), &checkpoint.0).unwrap();
                saves += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(report, cold, "seed {seed}: warm run");
        assert!(saves > 0, "seed {seed}: the run ended before a checkpoint");

        let ck = run_checkpoint::load(&protocol, &checkpoint.0).unwrap();
        let mut resumed: CountEngine<'_, CirclesProtocol> = CountEngine::resume_with_snapshot(
            &protocol,
            UniformCountScheduler::new(),
            &ck,
            snap.clone(),
        )
        .unwrap();
        assert_eq!(
            resumed.run_until_silent(u64::MAX).unwrap(),
            cold,
            "seed {seed}: resumed run"
        );
    }
}

//! The persistent-store claim at `k = 30`: a saved transition table loads
//! into a warm engine with **zero protocol transition calls**, bit-identical
//! results, and a load bill that is a small fraction of cold discovery.
//!
//! The store under test is either the CI artifact named by the
//! `PP_TABLE_STORE` environment variable (built once per pipeline by the
//! `table_store` CLI) or, absent that, a store this bench builds itself in
//! a temp directory — same bytes either way, since the format is canonical.
//!
//! Reported rows (see `results/README.md`):
//! `table_store/slots`, `table_store/cold_discovery_ns` (one `O(slots²)`
//! in-process discovery of the store's state set),
//! `table_store/save_ns`, `table_store/file_bytes`,
//! `table_store/load_ns` (disk → verified `TransitionTable`, zero protocol
//! calls), `table_store/warm_prime_ns` (loaded table → fully materialized
//! warm engine), `table_store/warm_prime_calls` (**asserted `== 0`**: the
//! acceptance criterion that persistence replaces every discovery call),
//! `table_store/cold_over_load_x` (cold discovery over load, **asserted
//! `>= 10`**: reading the store must cost a small fraction of
//! rediscovering its contents), `table_store/cold_over_warm_x` (cold
//! discovery over load + prime, informational: priming is engine
//! materialization that any warm start pays, disk-backed or not, so it is
//! benched but not gated here — `warm_sweep` owns that surface), and
//! `table_store/quotient_save_ns` / `table_store/quotient_load_ns` (the v2
//! quotient-layout writer, orbit-coherence check included, and loader on
//! the full `k = 24` enumeration built here by `quotient_table`; the round
//! trip is asserted to reproduce the table).
//!
//! The bench also runs one seed cold and one seed warm-from-disk and
//! asserts the two `RunReport`s are bit-identical — the store can only
//! save time, never change a trajectory.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use circles_core::{CirclesProtocol, CirclesState};
use pp_analysis::workloads::margin_workload;
use pp_bench::CallCounter;
use pp_protocol::transition_store;
use pp_protocol::{
    CompactCountEngine, CountConfig, CountEngine, Protocol, TransitionTable, UniformCountScheduler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const K: u16 = 30;
const N: usize = 3_000;
/// Color count of the full-enumeration table the v2 rows time.
const QUOTIENT_K: u16 = 24;

fn bench_table_store(c: &mut Criterion) {
    let protocol = CirclesProtocol::new(K).unwrap();
    let inputs = margin_workload(N, K, N / 10);
    let config: CountConfig<CirclesState> = inputs.iter().map(|i| protocol.input(i)).collect();

    // The store under test: the CI artifact, or one built here.
    let own_store =
        std::env::temp_dir().join(format!("pp-table-store-bench-{}.ppts", std::process::id()));
    let (store_path, save_ns) = match std::env::var("PP_TABLE_STORE") {
        Ok(path) if std::path::Path::new(&path).exists() => {
            println!("table_store: using CI store artifact {path}");
            (std::path::PathBuf::from(path), None)
        }
        _ => {
            let mut scout = CountEngine::from_config(&protocol, config.clone(), 7);
            scout.run_until_silent(u64::MAX / 2).unwrap();
            let table = scout.warm_table();
            let start = Instant::now();
            let meta = transition_store::save(&table, &protocol, &own_store).unwrap();
            let save_ns = start.elapsed().as_nanos() as f64;
            println!(
                "table_store: built {} ({} states, {} bytes) in {:.1}ms",
                own_store.display(),
                meta.states,
                meta.file_bytes,
                save_ns / 1e6
            );
            (own_store.clone(), Some(save_ns))
        }
    };

    // Load: disk -> verified table, asserted zero protocol calls (the
    // loader never receives the protocol's transition function, but the
    // counter documents the contract end-to-end anyway).
    let counter = CallCounter::new(&protocol);
    let start = Instant::now();
    let loaded: TransitionTable<CallCounter<'_, CirclesProtocol>> =
        transition_store::load(&counter, &store_path).unwrap();
    let load_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(counter.calls(), 0, "loading must make zero calls");
    let slots = loaded.len();
    let file_bytes = std::fs::metadata(&store_path).unwrap().len();
    assert!(
        slots >= 5_000,
        "a k = 30 store must carry thousands of slots"
    );

    // Warm prime: materialize every stored state in a warm engine. This is
    // the acceptance criterion: zero protocol transition calls.
    let states = loaded.dump().states;
    let counted_config: CountConfig<CirclesState> =
        inputs.iter().map(|i| counter.input(i)).collect();
    counter.reset();
    let start = Instant::now();
    let mut warm = CompactCountEngine::with_snapshot_rng(
        &counter,
        counted_config,
        UniformCountScheduler::new(),
        StdRng::seed_from_u64(7),
        loaded.snapshot(),
    );
    warm.prime_states(states.iter().copied());
    let warm_prime_ns = start.elapsed().as_nanos() as f64;
    let warm_prime_calls = counter.calls();
    assert_eq!(warm.slots(), slots, "priming covers the whole store");
    assert_eq!(
        warm_prime_calls, 0,
        "a stored table must warm-start with zero protocol transition calls"
    );

    // One cold discovery of the same state set, for the ratio. Median of
    // two samples.
    let cold_sample = || {
        let counter = CallCounter::new(&protocol);
        let counted_config: CountConfig<CirclesState> =
            inputs.iter().map(|i| counter.input(i)).collect();
        let mut engine = CountEngine::from_config(&counter, counted_config, 7);
        let start = Instant::now();
        engine.prime_states(states.iter().copied());
        (start.elapsed().as_nanos() as f64, counter.calls())
    };
    let (a, b) = (cold_sample(), cold_sample());
    let (cold_discovery_ns, cold_calls) = if a.0 < b.0 { a } else { b };
    assert!(cold_calls > 0, "cold discovery pays protocol calls");

    let cold_over_load = cold_discovery_ns / load_ns;
    let cold_over_warm = cold_discovery_ns / (load_ns + warm_prime_ns);
    criterion::report_external("table_store/slots", slots as f64, 1);
    criterion::report_external("table_store/cold_discovery_ns", cold_discovery_ns, 2);
    if let Some(save_ns) = save_ns {
        criterion::report_external("table_store/save_ns", save_ns, 1);
    }
    criterion::report_external("table_store/file_bytes", file_bytes as f64, 1);
    criterion::report_external("table_store/load_ns", load_ns, 1);
    criterion::report_external("table_store/warm_prime_ns", warm_prime_ns, 1);
    criterion::report_external("table_store/warm_prime_calls", warm_prime_calls as f64, 1);
    criterion::report_external("table_store/cold_over_load_x", cold_over_load, 1);
    criterion::report_external("table_store/cold_over_warm_x", cold_over_warm, 1);
    println!(
        "table_store: k={K} slots={slots} file={file_bytes}B; load {:.1}ms \
         (+ prime {:.1}ms) vs cold discovery {:.2}s ({cold_calls} calls) \
         => load {cold_over_load:.0}x, end-to-end {cold_over_warm:.0}x",
        load_ns / 1e6,
        warm_prime_ns / 1e6,
        cold_discovery_ns / 1e9,
    );
    assert!(
        cold_over_load >= 10.0,
        "loading a store must cost a small fraction of cold discovery, \
         got {cold_over_load:.1}x"
    );

    // Trajectory equivalence: one cold seed vs the same seed warm-started
    // from the on-disk store — bit-identical reports.
    let mut cold = CountEngine::from_config(&protocol, config.clone(), 11);
    cold.run_until_silent(u64::MAX / 2).unwrap();
    let disk_table: TransitionTable<CirclesProtocol> =
        transition_store::load(&protocol, &store_path).unwrap();
    let mut warm = CompactCountEngine::with_snapshot_rng(
        &protocol,
        config,
        UniformCountScheduler::new(),
        StdRng::seed_from_u64(11),
        disk_table.snapshot(),
    );
    warm.run_until_silent(u64::MAX / 2).unwrap();
    assert_eq!(
        warm.report(),
        cold.report(),
        "a warm run from the on-disk store must replay the cold run exactly"
    );

    let _ = std::fs::remove_file(&own_store);

    // The v2 (quotient) layout: save — orbit-coherence check included —
    // and load of the full k = 24 enumeration, built through the quotient.
    let full_protocol = CirclesProtocol::new(QUOTIENT_K).unwrap();
    let full = pp_protocol::quotient_table(&full_protocol).expect("circles exposes a quotient");
    let v2_store = std::env::temp_dir().join(format!(
        "pp-table-store-bench-v2-{}.ppts",
        std::process::id()
    ));
    let start = Instant::now();
    transition_store::save_quotient(&full, &full_protocol, &v2_store).unwrap();
    let quotient_save_ns = start.elapsed().as_nanos() as f64;
    let start = Instant::now();
    let reloaded = transition_store::load(&full_protocol, &v2_store).unwrap();
    let quotient_load_ns = start.elapsed().as_nanos() as f64;
    let _ = std::fs::remove_file(&v2_store);
    assert!(
        reloaded.dump() == full.dump(),
        "the v2 round trip must reproduce the table"
    );
    criterion::report_external("table_store/quotient_save_ns", quotient_save_ns, 1);
    criterion::report_external("table_store/quotient_load_ns", quotient_load_ns, 1);
    println!(
        "table_store: k={QUOTIENT_K} full table ({} states) v2 save {:.1}ms, load {:.1}ms",
        full.len(),
        quotient_save_ns / 1e6,
        quotient_load_ns / 1e6,
    );
    let _ = c;
}

criterion_group!(benches, bench_table_store);
criterion_main!(benches);

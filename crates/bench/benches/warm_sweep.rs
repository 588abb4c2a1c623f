//! Warm-table multi-seed sweep at `k = 30`: the amortized-discovery claim,
//! plus the sweep-level determinism surface CI diffs byte-for-byte.
//!
//! A 16-seed sweep on the count backend is dominated, cold, by 16
//! repetitions of the identical `O(slots²)` protocol-transition discovery.
//! With one [`TransitionTable`] threaded through the sweep (`TrialRunner`'s
//! warm path), seed 1 discovers once and seeds 2..16 materialize the
//! structure lazily from table snapshots — *zero protocol calls* for
//! table-known pairs, and (since the canonical-slot-order work) trajectories
//! bit-identical to cold runs. This bench counts both discovery bills in
//! protocol transition calls and **asserts the warm sweep makes ≥ 10× fewer
//! discovery calls than 16 cold runs** (structural expectation: 16×, since
//! warm materialization makes none). Wall-clock for both paths is reported
//! for the trend diff; the canonical lazy path trades the former bulk-load
//! memcpy for snapshot lookups, so its time row carries a fresh label
//! (`warm_materialize_ns`) starting its own baseline.
//!
//! The end-to-end 16-seed warm sweep runs through
//! `TrialRunner::run_with_table` on `PP_BENCH_THREADS` workers (default:
//! all CPUs) and, when `PP_WARM_SWEEP_REPORT` names a file, writes one JSON
//! line per trial (seed + measurements, no timings). CI runs the bench at
//! two thread counts and diffs the two reports byte-for-byte — the
//! executable form of "bench rows are thread-count-independent".
//!
//! Reported rows: `warm_sweep/cold_discovery_ns` and
//! `warm_sweep/cold_discovery_calls` (one cold discovery through the
//! engine's symmetric memo, in wall-clock and transition calls; the call
//! count is asserted to be exactly one call per unordered slot pair),
//! `warm_sweep/warm_materialize_ns` (one lazy warm materialization of the
//! same slot set + export), `warm_sweep/discovery_call_ratio_x` (16 cold
//! bills over the warm bill, in transition calls),
//! `warm_sweep/discovery_time_ratio_x` (same in wall-clock),
//! `warm_sweep/sweep_ns` (the end-to-end warm sweep),
//! `warm_sweep/epoch_snapshot_ns` (one epoch-snapshot capture on the
//! populated table).

use std::io::Write;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use circles_core::{CirclesProtocol, CirclesState};
use pp_analysis::table_cache::TableCache;
use pp_analysis::trial::{Backend, TrialRunner};
use pp_analysis::workloads::{margin_workload, true_winner};
use pp_bench::CallCounter;
use pp_protocol::{
    CompactCountEngine, CountConfig, CountEngine, Protocol, TransitionTable, UniformCountScheduler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

// `k = 30` is the regime where discovery dominates; `n = 3000` keeps the
// sixteen end-to-end runs CI-sized (the slot table is ~5×10³ here — the
// ≥ 10^4-slot compact-footprint criterion lives in the `discovery` bench).
const K: u16 = 30;
const N: usize = 3_000;
const SEEDS: u64 = 16;

fn bench_warm_sweep(c: &mut Criterion) {
    let protocol = CirclesProtocol::new(K).unwrap();
    let inputs = margin_workload(N, K, N / 10);
    let expected = true_winner(&inputs, K);
    let config: CountConfig<CirclesState> = inputs.iter().map(|i| protocol.input(i)).collect();

    // Scout: the state set every trial of this workload discovers.
    let mut scout = CountEngine::from_config(&protocol, config.clone(), 7);
    scout.run_until_silent(u64::MAX / 2).unwrap();
    let states: Vec<CirclesState> = scout.known_states().to_vec();
    let slots = states.len();
    assert!(
        slots >= 5_000,
        "sweep workload must exercise thousands of slots"
    );

    // One cold discovery bill, in wall-clock and transition calls. Median
    // of two samples to absorb timer noise.
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
    assert_eq!(
        cold_calls,
        (slots * (slots + 1) / 2) as u64,
        "cold discovery must classify each unordered slot pair exactly once"
    );

    // One warm bill: materialize the same slot set lazily from the table
    // snapshot plus the export a warm trial performs afterwards, on the
    // compact engine warm trials actually use. Median of three. The table
    // was discovered by the plain protocol, so the counter sees exactly
    // the calls the warm path still needs (structurally: none).
    let counted_table: TransitionTable<CallCounter<'_, CirclesProtocol>> = {
        // The scout table rebuilt under the counting protocol's type: same
        // seed, same workload, so the discovered structure is identical.
        let counter = CallCounter::new(&protocol);
        let counted_config: CountConfig<CirclesState> =
            inputs.iter().map(|i| counter.input(i)).collect();
        let mut engine = CountEngine::from_config(&counter, counted_config, 7);
        engine.run_until_silent(u64::MAX / 2).unwrap();
        engine.warm_table()
    };
    let warm_sample = || {
        let counter = CallCounter::new(&protocol);
        let counted_config: CountConfig<CirclesState> =
            inputs.iter().map(|i| counter.input(i)).collect();
        let start = Instant::now();
        let mut engine = CompactCountEngine::with_snapshot_rng(
            &counter,
            counted_config,
            UniformCountScheduler::new(),
            StdRng::seed_from_u64(7),
            counted_table.snapshot(),
        );
        engine.prime_states(states.iter().copied());
        assert_eq!(
            engine.slots(),
            counted_table.len(),
            "lazy materialization must cover the scout's whole slot set"
        );
        engine.export_to(&counted_table);
        (start.elapsed().as_nanos() as f64, counter.calls())
    };
    let mut warm_samples = [warm_sample(), warm_sample(), warm_sample()];
    warm_samples.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite times"));
    let (warm_materialize_ns, warm_calls) = warm_samples[1];

    // Discovery bills: 16 cold discoveries vs 1 discovery + 15 warm
    // materializations — in protocol calls (the asserted invariant: warm
    // materialization replaces every call with a snapshot lookup) and in
    // wall-clock (reported for the trend).
    let call_bill_cold = (cold_calls * SEEDS) as f64;
    let call_bill_warm = (cold_calls + warm_calls * (SEEDS - 1)) as f64;
    let call_ratio = call_bill_cold / call_bill_warm;
    let time_bill_cold = cold_discovery_ns * SEEDS as f64;
    let time_bill_warm = cold_discovery_ns + warm_materialize_ns * (SEEDS - 1) as f64;
    let time_ratio = time_bill_cold / time_bill_warm;
    criterion::report_external("warm_sweep/slots", slots as f64, 1);
    criterion::report_external("warm_sweep/cold_discovery_ns", cold_discovery_ns, 2);
    criterion::report_external("warm_sweep/cold_discovery_calls", cold_calls as f64, 1);
    criterion::report_external("warm_sweep/warm_materialize_ns", warm_materialize_ns, 3);
    criterion::report_external("warm_sweep/warm_materialize_calls", warm_calls as f64, 1);
    criterion::report_external("warm_sweep/discovery_call_ratio_x", call_ratio, 1);
    criterion::report_external("warm_sweep/discovery_time_ratio_x", time_ratio, 1);
    println!(
        "warm_sweep: k={K} slots={slots}; cold discovery {cold_calls} calls \
         ({:.2}s)/seed vs warm materialization {warm_calls} calls ({:.1}ms)/seed \
         => 16-seed discovery bill {call_ratio:.1}x smaller in calls, \
         {time_ratio:.1}x in wall-clock",
        cold_discovery_ns / 1e9,
        warm_materialize_ns / 1e6,
    );
    assert!(
        call_ratio >= 10.0,
        "a 16-seed warm sweep must pay >= 10x fewer protocol transition \
         calls for discovery than 16 cold runs, got {call_ratio:.1}x"
    );

    // The real sweep, end-to-end: fresh table, first seed warms it
    // serially, the rest fan out against snapshots of it. Thread count is
    // configurable so CI can assert the report is thread-independent.
    let threads: usize = match pp_bench::env_override::<usize>("PP_BENCH_THREADS") {
        Some(0) => {
            pp_bench::env_override_fail("PP_BENCH_THREADS", "0", "thread count must be at least 1")
        }
        Some(threads) => threads,
        None => 0, // unset: defer to the runner's default (all CPUs)
    };
    // When a table cache is configured (CI shares the k = 30 store built by
    // the `table-store` job via `PP_TABLE_CACHE`), start the sweep from the
    // cached table instead of rediscovering it — trial reports are
    // bit-identical either way, the cache only moves the discovery bill.
    let table = match TableCache::from_env() {
        Some(cache) => cache.load_or_empty(&protocol).0,
        None => TransitionTable::new(),
    };
    let mut runner = TrialRunner::new(Backend::Count).seeds(SEEDS);
    if threads > 0 {
        runner = runner.threads(threads);
    }
    let start = Instant::now();
    let results = runner.run_with_table(&protocol, &inputs, expected, &table);
    let sweep_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(results.len(), SEEDS as usize);
    assert!(
        results.iter().all(|r| r.stabilized && r.correct),
        "every warm trial must stabilize on the winner"
    );
    // Seeds other than the scout's can visit extra states, so the table
    // can exceed the scout's slot count but never undershoot it by much.
    assert!(table.len() >= 5_000, "the sweep populated the table");
    criterion::report_external("warm_sweep/sweep_ns", sweep_ns, 1);
    println!(
        "warm_sweep: 16-seed warm sweep to silence in {:.2}s (table: {} states, \
         {} active pairs, {} outcomes)",
        sweep_ns / 1e9,
        table.len(),
        table.active_pairs(),
        table.outcome_count(),
    );

    // The per-trial cost of a warm start's table view: an epoch snapshot is
    // an Arc bump plus a segment watermark, amortized over a loop since a
    // single capture sits at timer resolution.
    let epoch_snapshot_ns = {
        const CAPTURES: u32 = 4096;
        let start = Instant::now();
        for _ in 0..CAPTURES {
            std::hint::black_box(table.snapshot());
        }
        start.elapsed().as_nanos() as f64 / f64::from(CAPTURES)
    };
    criterion::report_external("warm_sweep/epoch_snapshot_ns", epoch_snapshot_ns, 1);
    println!("warm_sweep: epoch snapshot {epoch_snapshot_ns:.0}ns per capture");

    // Timing-free trial report for the CI determinism diff: identical
    // bytes at every thread count, or the sweep is not reproducible.
    if let Ok(path) = std::env::var("PP_WARM_SWEEP_REPORT") {
        let mut out = std::fs::File::create(&path).expect("report file creatable");
        for (seed, r) in results.iter().enumerate() {
            writeln!(
                out,
                "{{\"seed\":{seed},\"steps_to_silence\":{},\"steps_to_consensus\":{},\
                 \"state_changes\":{},\"stabilized\":{},\"correct\":{}}}",
                r.steps_to_silence, r.steps_to_consensus, r.state_changes, r.stabilized, r.correct,
            )
            .expect("report line written");
        }
        println!("warm_sweep: trial report written to {path}");
    }
    let _ = c; // one-shot measurement; no criterion sampling needed
}

criterion_group!(benches, bench_warm_sweep);
criterion_main!(benches);

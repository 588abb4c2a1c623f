//! Hazard-layer benches: the fault-free overhead contract and the
//! full-scale `n = 10^9`, `k = 30` hazard row.
//!
//! Two parts:
//!
//! 1. `fault_free_overhead` — the hazard driver with an **empty plan** must
//!    be free: it wraps the engine's own `run_until_silent`, draws nothing
//!    from the hazard stream, and produces a `RunReport` byte-identical to
//!    the plain engine run of the same seed (asserted here, and
//!    property-tested across activity indexes in
//!    `pp_extensions/tests/properties.rs`). The wall-clock ratio is
//!    reported as `hazards/fault_free_overhead_x` (a ratio row, exempt from
//!    the 2× trend gate) and asserted ≈ 1× (≤ 1.5 to ride out CI noise).
//! 2. `hazard_large_n` — a crash/corrupt/churn schedule against `n = 10^9`
//!    agents at `k = 30`, run to silence and graded. The workload is
//!    near-unanimous (the winner holds all but one agent per loser color),
//!    which keeps state changes `O(k²)` instead of `Θ(n)` — the regime
//!    where a 10^9-agent hazard run is CI-affordable (sub-millisecond of
//!    engine work) while still exercising slot discovery, the activity
//!    index and mass perturbation at full population scale. When
//!    `PP_TABLE_CACHE` holds the k = 30 store (CI's `store-cache`
//!    artifact), the run warm-loads the table through the compact engine;
//!    otherwise it discovers cold — the graded outcome is identical either
//!    way. Asserts the run stabilizes on the correct winner with churn
//!    balanced out (`final_n == n`).
//!
//! Reported rows: `hazards/fault_free_overhead_x`, `hazards/large_n_ns`,
//! `hazards/large_n_recovery_changes` (deterministic, so its trend ratio is
//! exactly 1 unless the engine or schedule semantics change).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use circles_core::{CirclesProtocol, CirclesState, Color};
use pp_analysis::table_cache::TableCache;
use pp_analysis::workloads::margin_counts;
use pp_extensions::hazards::{
    run_circles_hazards, run_with_hazards, Hazard, HazardKind, HazardPlan, HazardReport,
};
use pp_protocol::{
    CompactCountEngine, CountConfig, CountEngine, SparseActivity, UniformCountScheduler,
};
use rand::rngs::Philox4x32;

fn config_from(counts: &[(Color, u64)]) -> CountConfig<CirclesState> {
    let mut config = CountConfig::new();
    for &(color, count) in counts {
        config.insert(
            CirclesState::initial(color),
            count.try_into().expect("count fits a usize"),
        );
    }
    config
}

/// Part 1: empty-plan runs must cost what plain runs cost and report the
/// same bytes.
fn bench_fault_free_overhead(c: &mut Criterion) {
    let k = 3u16;
    let n: u64 = if criterion::quick_mode() {
        100_000
    } else {
        1_000_000
    };
    let counts = margin_counts(n, k, n / 10);
    let protocol = CirclesProtocol::new(k).unwrap();
    let reps = 5;
    let mut plain_ns = Vec::with_capacity(reps);
    let mut hazard_ns = Vec::with_capacity(reps);
    let mut reports = (None, None);
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &protocol,
            config_from(&counts),
            UniformCountScheduler::new(),
            Philox4x32::stream(0, 7),
        );
        let plain = engine.run_until_silent(u64::MAX / 2).unwrap();
        plain_ns.push(t0.elapsed().as_nanos() as f64);
        let t1 = Instant::now();
        let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
            &protocol,
            config_from(&counts),
            UniformCountScheduler::new(),
            Philox4x32::stream(0, 7),
        );
        let mut hazard_rng = Philox4x32::stream(0, 7 | 1 << 63);
        let outcome = run_with_hazards(
            &mut engine,
            &HazardPlan::new(),
            &[],
            &mut hazard_rng,
            u64::MAX / 2,
        )
        .unwrap();
        hazard_ns.push(t1.elapsed().as_nanos() as f64);
        assert!(outcome.stabilized);
        assert_eq!(
            outcome.report, plain,
            "an empty hazard plan must replay the plain run byte-identically"
        );
        reports = (Some(plain), Some(outcome.report));
    }
    plain_ns.sort_by(f64::total_cmp);
    hazard_ns.sort_by(f64::total_cmp);
    let ratio = hazard_ns[reps / 2] / plain_ns[reps / 2];
    assert!(
        ratio <= 1.5,
        "fault-free hazard overhead should be ~1x, measured {ratio:.2}x"
    );
    criterion::report_external("hazards/fault_free_overhead_x", ratio, reps);
    println!(
        "hazards: fault-free overhead {ratio:.2}x at n = 10^{} (reports identical: {})",
        (n as f64).log10() as u32,
        reports.0 == reports.1,
    );
    let _ = c; // one-shot measurement; no criterion sampling needed
}

/// The CI hazard schedule: eight events spread over the first `8n`
/// interactions, covering crash, corruption and both churn directions.
fn ci_schedule(n: u64) -> HazardPlan {
    let mut plan = HazardPlan::new();
    for i in 0..8u64 {
        plan.push(Hazard {
            at_step: (i + 1) * n,
            kind: match i % 4 {
                0 => HazardKind::Crash,
                1 => HazardKind::Corrupt,
                2 => HazardKind::Arrive,
                _ => HazardKind::Depart,
            },
        });
    }
    plan
}

/// Part 2: the full-scale hazard row.
fn bench_hazard_large_n(c: &mut Criterion) {
    let k = 30u16;
    let n: u64 = 1_000_000_000;
    let protocol = CirclesProtocol::new(k).unwrap();
    let losers = u64::from(k) - 1;
    let mut counts = vec![(Color(0), n - losers)];
    counts.extend((1..k).map(|c| (Color(c), 1)));
    let plan = ci_schedule(n);
    let table = TableCache::from_env().map(|cache| cache.load_or_empty(&protocol).0);
    let run = |seed: u64| -> HazardReport {
        let mut hazard_rng = Philox4x32::stream(0, seed | 1 << 63);
        match &table {
            Some(table) => {
                let mut engine = CompactCountEngine::<_, _, Philox4x32>::with_snapshot_rng(
                    &protocol,
                    config_from(&counts),
                    UniformCountScheduler::new(),
                    Philox4x32::stream(0, seed),
                    table.snapshot(),
                );
                run_circles_hazards(
                    &mut engine,
                    Some(Color(0)),
                    &plan,
                    &counts,
                    &mut hazard_rng,
                    u64::MAX / 2,
                )
                .unwrap()
            }
            None => {
                let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
                    &protocol,
                    config_from(&counts),
                    UniformCountScheduler::new(),
                    Philox4x32::stream(0, seed),
                );
                run_circles_hazards(
                    &mut engine,
                    Some(Color(0)),
                    &plan,
                    &counts,
                    &mut hazard_rng,
                    u64::MAX / 2,
                )
                .unwrap()
            }
        }
    };
    let t0 = Instant::now();
    let mut last = None;
    for seed in 0..3 {
        let report = run(seed);
        assert!(
            report.stabilized && report.correct,
            "n = 10^9 hazard run must recover the winner: {report:?}"
        );
        assert_eq!(
            report.final_n, n,
            "one arrival and one departure must cancel"
        );
        assert_eq!(report.hazards_applied, 8);
        last = Some(report);
    }
    let elapsed_ns = t0.elapsed().as_nanos() as f64;
    let last = last.unwrap();
    criterion::report_external("hazards/large_n_ns", elapsed_ns, 3);
    criterion::report_external(
        "hazards/large_n_recovery_changes",
        last.recovery_changes as f64,
        1,
    );
    println!(
        "hazards: 3-seed n=10^9 k=30 sweep ({}) in {:.1}ms; last seed: damage={}, \
         recovery_changes={}",
        if table.is_some() { "warm" } else { "cold" },
        elapsed_ns / 1e6,
        last.conservation_damage,
        last.recovery_changes,
    );
    let _ = c; // one-shot measurement; no criterion sampling needed
}

criterion_group!(benches, bench_fault_free_overhead, bench_hazard_large_n);
criterion_main!(benches);

//! Backend comparison: the indexed engine vs the batched count engine on
//! the paper protocol, same workloads, end-to-end to silence.
//!
//! Five parts:
//!
//! 1. `backend_to_silence` — both backends run identical margin workloads to
//!    silence at sizes where the indexed engine can finish.
//! 2. `count_to_silence_large` — the count engine alone at `n = 10^5` and
//!    `10^6` (full mode), where a full indexed run would take hours: these
//!    runs cover `10^9`–`10^12` interactions in well under a second.
//! 3. `speedup_check` — a one-shot large-`n` comparison: the count engine
//!    runs to silence; the indexed engine is timed over a fixed interaction
//!    prefix of the same workload, and its full-run time is the measured
//!    per-interaction cost times the interaction count the count run
//!    established. The implied speedup is recorded in the JSON report and
//!    **asserted to be ≥ 50×**, so a count-engine regression fails the CI
//!    bench-smoke job instead of drifting silently.
//! 4. `slot_scaling` — the sparse *activity index*'s per-change-point cost
//!    at `k = 30` (slot tables ≥ 10^4) and at `k = 10` (~830 slots, dense
//!    activity): the engine is primed with the discovered state set so the
//!    one-time `O(slots²)` transition discovery stays out of the
//!    measurement, then runs to silence.
//! 5. `large_n` — a one-shot Circles run at `n = 10^9` (count-level margin
//!    workload, no input vector materialized) that must complete to
//!    silence with the correct winner — the population scale the former
//!    `u32::MAX` cap made unreachable. Skippable locally via
//!    `PP_BENCH_SKIP_LARGE_N=1`; CI always runs it.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use circles_core::{CirclesProtocol, CirclesState, Color};
use pp_analysis::workloads::{margin_counts, margin_workload, true_winner};
use pp_protocol::{CountConfig, CountEngine, Population, Simulation, UniformPairScheduler};

const K: u16 = 3;

fn workload(n: usize) -> Vec<Color> {
    margin_workload(n, K, n / 10)
}

fn run_indexed_to_silence(inputs: &[Color], seed: u64) -> u64 {
    let protocol = CirclesProtocol::new(K).unwrap();
    let population = Population::from_inputs(&protocol, inputs);
    let n = population.len() as u64;
    let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), seed);
    sim.run_until_silent(u64::MAX / 2, n)
        .unwrap()
        .steps_to_silence
}

fn run_count_to_silence(inputs: &[Color], seed: u64) -> u64 {
    let protocol = CirclesProtocol::new(K).unwrap();
    let mut engine = CountEngine::from_inputs(&protocol, inputs, seed);
    engine
        .run_until_silent(u64::MAX / 2)
        .unwrap()
        .steps_to_silence
}

/// Head-to-head at sizes the indexed engine can still finish.
fn bench_backends_to_silence(c: &mut Criterion) {
    let mut group = c.benchmark_group("backend_to_silence");
    group.sample_size(10);
    let ns: &[usize] = if criterion::quick_mode() {
        &[2_000]
    } else {
        &[2_000, 10_000]
    };
    for &n in ns {
        let inputs = workload(n);
        group.bench_with_input(
            BenchmarkId::new("indexed", format!("n{n}")),
            &inputs,
            |b, inputs| b.iter(|| run_indexed_to_silence(inputs, 7)),
        );
        group.bench_with_input(
            BenchmarkId::new("count", format!("n{n}")),
            &inputs,
            |b, inputs| b.iter(|| run_count_to_silence(inputs, 7)),
        );
    }
    group.finish();
}

/// The count engine where only it can go: `n` up to a million, to silence.
fn bench_count_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_to_silence_large");
    group.sample_size(10);
    let ns: &[usize] = if criterion::quick_mode() {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    for &n in ns {
        let inputs = workload(n);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}")),
            &inputs,
            |b, inputs| b.iter(|| run_count_to_silence(inputs, 7)),
        );
    }
    group.finish();
}

/// One-shot `n = 10^6` comparison enforcing the ≥ 50× speedup claim.
///
/// The indexed engine cannot run `~10^11` interactions in a bench, so its
/// full-run time is bounded *from below* by measuring a fixed prefix and
/// extrapolating linearly at the measured per-interaction cost (the indexed
/// per-step cost does not depend on how far the run has progressed).
fn bench_speedup_check(c: &mut Criterion) {
    let n = 1_000_000usize;
    let inputs = workload(n);
    let protocol = CirclesProtocol::new(K).unwrap();
    let expected = true_winner(&inputs, K);

    // Count engine: full run to silence.
    let count_start = Instant::now();
    let mut engine = CountEngine::from_inputs(&protocol, &inputs, 7);
    let report = engine.run_until_silent(u64::MAX / 2).unwrap();
    let count_ns = count_start.elapsed().as_nanos() as f64;
    assert_eq!(
        report.consensus,
        Some(expected),
        "count run must be correct"
    );
    let total_steps = report.steps;

    // Indexed engine: fixed-prefix per-interaction cost on the same inputs.
    const PREFIX: u64 = 10_000_000;
    let population = Population::from_inputs(&protocol, &inputs);
    let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), 7);
    let indexed_start = Instant::now();
    for _ in 0..PREFIX {
        let _ = sim.step().unwrap();
    }
    let per_step_ns = indexed_start.elapsed().as_nanos() as f64 / PREFIX as f64;

    let implied_indexed_ns = per_step_ns * total_steps as f64;
    let speedup = implied_indexed_ns / count_ns;
    criterion::report_external("speedup_check/count_full_ns", count_ns, 1);
    criterion::report_external("speedup_check/indexed_per_step_ns", per_step_ns, 1);
    criterion::report_external(
        "speedup_check/implied_indexed_full_ns",
        implied_indexed_ns,
        1,
    );
    criterion::report_external("speedup_check/implied_speedup_x", speedup, 1);
    println!(
        "speedup_check: n={n}, {total_steps} interactions; count {:.3}s vs indexed \
         ~{:.0}s implied ⇒ {speedup:.0}x",
        count_ns / 1e9,
        implied_indexed_ns / 1e9,
    );
    assert!(
        speedup >= 50.0,
        "count engine regressed below the 50x bar: implied speedup {speedup:.1}x"
    );
    let _ = c; // one-shot measurement; no criterion sampling needed
}

/// Per-change-point cost of the sparse activity index on a margin
/// workload, with discovery primed out of the measurement: a scout run
/// discovers the slot table the workload visits, and a fresh engine primed
/// with that state set runs to silence on the same seed. Returns the slot
/// count, the change-points and the nanoseconds per change-point.
fn primed_per_change_ns(k: u16, n: usize) -> (usize, u64, f64) {
    let protocol = CirclesProtocol::new(k).unwrap();
    let inputs = margin_workload(n, k, n / 10);
    let config: CountConfig<CirclesState> = inputs
        .iter()
        .map(|i| pp_protocol::Protocol::input(&protocol, i))
        .collect();

    let mut scout = CountEngine::from_config(&protocol, config.clone(), 7);
    let scout_report = scout.run_until_silent(u64::MAX / 2).unwrap();
    let states: Vec<CirclesState> = scout.known_states().to_vec();
    assert_eq!(scout_report.consensus, Some(true_winner(&inputs, k)));

    let mut engine = CountEngine::from_config(&protocol, config, 7);
    engine.prime_states(states.iter().cloned());
    let start = Instant::now();
    let report = engine.run_until_silent(u64::MAX / 2).unwrap();
    let ns = start.elapsed().as_nanos() as f64;
    (
        states.len(),
        report.state_changes,
        ns / report.state_changes as f64,
    )
}

/// Sparse activity index, primed: per-change-point cost on a slot table
/// past 10^4 (`k = 30`, sparse activity) and in the dense regime (`k = 10`,
/// ~830 slots with ~40% of ordered slot pairs active), where the in-row
/// walks of `count_changed` are the cost.
fn bench_slot_scaling(c: &mut Criterion) {
    let (k, n) = (30u16, 12_000usize);
    let (slots, changes, per_change) = primed_per_change_ns(k, n);
    assert!(
        slots >= 10_000,
        "slot-scaling workload must exercise >= 10^4 slots, got {slots}"
    );
    criterion::report_external("slot_scaling/slots", slots as f64, 1);
    criterion::report_external("slot_scaling/sparse_per_change_ns", per_change, 1);
    println!(
        "slot_scaling: k={k} n={n} slots={slots}, {changes} change-points; \
         sparse {per_change:.0}ns per change-point"
    );

    let (k, n) = (
        10u16,
        if criterion::quick_mode() {
            30_000
        } else {
            100_000
        },
    );
    let (slots, changes, per_change) = primed_per_change_ns(k, n);
    assert!(
        slots > 3 * 64,
        "dense workload must span several 64-row blocks, got {slots} slots"
    );
    criterion::report_external("slot_scaling/k10_per_change_ns", per_change, 1);
    println!(
        "slot_scaling: k={k} n={n} slots={slots}, {changes} change-points; \
         sparse {per_change:.0}ns per change-point"
    );
    let _ = c; // one-shot measurements; no criterion sampling needed
}

/// One-shot `n = 10^9` Circles run to silence — the population scale the
/// former `u32::MAX` cap made impossible. The workload is built at count
/// level (`margin_counts`), so no `n`-sized input vector ever exists.
fn bench_large_n(c: &mut Criterion) {
    if std::env::var("PP_BENCH_SKIP_LARGE_N").is_ok() {
        println!("large_n: skipped via PP_BENCH_SKIP_LARGE_N");
        return;
    }
    let n: u64 = 1_000_000_000;
    let protocol = CirclesProtocol::new(K).unwrap();
    let mut config = CountConfig::new();
    for (color, count) in margin_counts(n, K, n / 10) {
        config.insert(
            pp_protocol::Protocol::input(&protocol, &color),
            count as usize,
        );
    }
    let start = Instant::now();
    let mut engine = CountEngine::from_config(&protocol, config, 7);
    let report = engine.run_until_silent(u64::MAX / 2).unwrap();
    let elapsed_ns = start.elapsed().as_nanos() as f64;
    assert_eq!(
        report.consensus,
        Some(Color(0)),
        "n = 10^9 run must elect the margin winner"
    );
    assert!(engine.is_silent());
    let per_change = elapsed_ns / report.state_changes as f64;
    criterion::report_external("large_n/count_full_ns", elapsed_ns, 1);
    criterion::report_external("large_n/interactions", report.steps as f64, 1);
    criterion::report_external("large_n/state_changes", report.state_changes as f64, 1);
    criterion::report_external("large_n/per_change_ns", per_change, 1);
    println!(
        "large_n: n=10^9 silenced after {} interactions ({} state changes) \
         in {:.1}s ({per_change:.0}ns per change-point)",
        report.steps,
        report.state_changes,
        elapsed_ns / 1e9
    );
    let _ = c; // one-shot measurement; no criterion sampling needed
}

criterion_group!(
    benches,
    bench_backends_to_silence,
    bench_count_large,
    bench_speedup_check,
    bench_slot_scaling,
    bench_large_n
);
criterion_main!(benches);

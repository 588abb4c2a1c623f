//! Run-checkpoint benches: the fault-free overhead contract and the
//! `.pprc` write/load/resume cost rows.
//!
//! Two parts:
//!
//! 1. `checkpoint_overhead` — the checkpointed driver with a hook that
//!    builds (but does not persist) a full [`RunCheckpoint`] every 64 state
//!    changes, against the plain `run_until_silent` of the same seed, on
//!    the fault-free `n = 10^9`, `k = 30` near-unanimous workload (the
//!    `hazards` bench's regime: state changes stay `O(k²)`, so full
//!    population scale is CI-affordable). Hooks observe without drawing, so
//!    the reports must be byte-identical (asserted), and the wall-clock
//!    ratio must stay within the robustness contract's **≤ 1.05×** bound
//!    (asserted; each sample loops several runs and the ratio compares
//!    medians, so scheduler noise does not masquerade as overhead).
//!    Reported as `checkpoint/overhead_x` — a ratio row, exempt from the
//!    2× trend gate.
//! 2. `checkpoint_codec` — save the silent engine's checkpoint to disk,
//!    load it back, resume an engine from it, and assert the resumed
//!    engine reports byte-identically. Reported as `checkpoint/save_ns`,
//!    `checkpoint/load_ns`, `checkpoint/resume_ns` and
//!    `checkpoint/file_bytes` (all medians; `file_bytes` is deterministic,
//!    so its trend ratio is exactly 1 unless the format changes).
//!
//! When `PP_TABLE_CACHE` holds the k = 30 store (CI's `store-cache`
//! artifact), part 1 runs warm through the compact engine; the trajectory —
//! and therefore every assertion — is identical either way.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use circles_core::{CirclesProtocol, CirclesState, Color};
use pp_analysis::table_cache::TableCache;
use pp_protocol::{
    run_checkpoint, Activity, CompactCountEngine, CountConfig, CountEngine, RunCheckpoint,
    SparseActivity, UniformCountScheduler,
};
use rand::rngs::Philox4x32;

/// Near-unanimous color counts at `n` agents and `k` colors.
fn config(n: u64, k: u16) -> CountConfig<CirclesState> {
    let losers = u64::from(k) - 1;
    let mut counts = CountConfig::new();
    counts.insert(
        CirclesState::initial(Color(0)),
        (n - losers).try_into().expect("count fits a usize"),
    );
    for c in 1..k {
        counts.insert(CirclesState::initial(Color(c)), 1);
    }
    counts
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Part 1 worker, generic over the activity index so the warm (compact)
/// and cold (sparse) paths share one measurement loop.
fn measure_overhead<'p, A, F>(make: F, reps: usize, loops: usize) -> (f64, u64)
where
    A: Activity,
    F: Fn() -> CountEngine<'p, CirclesProtocol, UniformCountScheduler, A, Philox4x32>,
{
    let mut plain_ns = Vec::with_capacity(reps);
    let mut hooked_ns = Vec::with_capacity(reps);
    let mut offers_total = 0u64;
    for _ in 0..reps {
        let t0 = Instant::now();
        let mut plain_report = None;
        for _ in 0..loops {
            let mut engine = make();
            plain_report = Some(engine.run_until_silent(u64::MAX / 2).unwrap());
        }
        plain_ns.push(t0.elapsed().as_nanos() as f64);

        let t1 = Instant::now();
        let mut hooked_report = None;
        for _ in 0..loops {
            let mut engine = make();
            let mut offers = 0u64;
            let report = engine
                .run_until_silent_checkpointed(u64::MAX / 2, 64, |e| {
                    let ck = e.checkpoint();
                    std::hint::black_box(&ck);
                    offers += 1;
                    std::ops::ControlFlow::Continue(())
                })
                .unwrap();
            offers_total += offers;
            hooked_report = Some(report);
        }
        hooked_ns.push(t1.elapsed().as_nanos() as f64);
        assert_eq!(
            hooked_report, plain_report,
            "checkpoint hooks must not perturb the trajectory"
        );
    }
    (median(hooked_ns) / median(plain_ns), offers_total)
}

/// Part 1: fault-free checkpointing must cost ≤ 1.05× the plain run.
fn bench_checkpoint_overhead(c: &mut Criterion) {
    let k = 30u16;
    let n: u64 = if criterion::quick_mode() {
        10_000_000
    } else {
        1_000_000_000
    };
    let reps = 9;
    let loops = 5;
    let protocol = CirclesProtocol::new(k).unwrap();
    let table = TableCache::from_env()
        .map(|cache| cache.load_or_empty(&protocol).0)
        .filter(|table| !table.is_empty());
    let (ratio, offers) = match &table {
        Some(table) => measure_overhead(
            || {
                CompactCountEngine::<_, _, Philox4x32>::with_snapshot_rng(
                    &protocol,
                    config(n, k),
                    UniformCountScheduler::new(),
                    Philox4x32::stream(0, 9),
                    table.snapshot(),
                )
            },
            reps,
            loops,
        ),
        None => measure_overhead(
            || {
                CountEngine::<_, _, SparseActivity, _>::with_rng(
                    &protocol,
                    config(n, k),
                    UniformCountScheduler::new(),
                    Philox4x32::stream(0, 9),
                )
            },
            reps,
            loops,
        ),
    };
    assert!(offers > 0, "the checkpoint hook must actually fire");
    assert!(
        ratio <= 1.05,
        "fault-free checkpointing must stay within 1.05x of the plain run, measured {ratio:.3}x"
    );
    criterion::report_external("checkpoint/overhead_x", ratio, reps);
    println!(
        "checkpoint: fault-free overhead {ratio:.3}x at n = 10^{} ({}, {} hook offers)",
        (n as f64).log10() as u32,
        if table.is_some() { "warm" } else { "cold" },
        offers,
    );
    let _ = c; // one-shot measurement; no criterion sampling needed
}

/// Part 2: `.pprc` save/load/resume costs, plus resume exactness.
fn bench_checkpoint_codec(c: &mut Criterion) {
    let k = 30u16;
    let n: u64 = if criterion::quick_mode() {
        10_000_000
    } else {
        1_000_000_000
    };
    let reps = 9;
    let protocol = CirclesProtocol::new(k).unwrap();
    let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
        &protocol,
        config(n, k),
        UniformCountScheduler::new(),
        Philox4x32::stream(0, 11),
    );
    let report = engine.run_until_silent(u64::MAX / 2).unwrap();
    let ck = engine.checkpoint();
    let path =
        std::env::temp_dir().join(format!("pp-bench-checkpoint-{}.pprc", std::process::id()));

    let mut save_ns = Vec::with_capacity(reps);
    let mut file_bytes = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        let meta = run_checkpoint::save(&ck, &path).unwrap();
        save_ns.push(t.elapsed().as_nanos() as f64);
        file_bytes = meta.file_bytes;
    }

    let mut load_ns = Vec::with_capacity(reps);
    let mut loaded = None;
    for _ in 0..reps {
        let t = Instant::now();
        let back: RunCheckpoint<CirclesState> = run_checkpoint::load(&protocol, &path).unwrap();
        load_ns.push(t.elapsed().as_nanos() as f64);
        loaded = Some(back);
    }
    let loaded = loaded.unwrap();

    let mut resume_ns = Vec::with_capacity(reps);
    let mut resumed_report = None;
    for _ in 0..reps {
        let t = Instant::now();
        let resumed = CountEngine::<_, _, SparseActivity, Philox4x32>::resume(
            &protocol,
            UniformCountScheduler::new(),
            &loaded,
        )
        .unwrap();
        resume_ns.push(t.elapsed().as_nanos() as f64);
        resumed_report = Some(resumed.report());
    }
    assert_eq!(
        resumed_report.unwrap(),
        report,
        "a resumed silent engine must report byte-identically"
    );
    let _ = std::fs::remove_file(&path);

    criterion::report_external("checkpoint/save_ns", median(save_ns), reps);
    criterion::report_external("checkpoint/load_ns", median(load_ns), reps);
    criterion::report_external("checkpoint/resume_ns", median(resume_ns), reps);
    criterion::report_external("checkpoint/file_bytes", file_bytes as f64, 1);
    println!(
        "checkpoint: {file_bytes}-byte file at n = 10^{} ({} slots)",
        (n as f64).log10() as u32,
        ck.states.len(),
    );
    let _ = c; // one-shot measurement; no criterion sampling needed
}

criterion_group!(benches, bench_checkpoint_overhead, bench_checkpoint_codec);
criterion_main!(benches);

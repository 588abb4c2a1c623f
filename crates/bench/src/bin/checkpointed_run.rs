//! Crash/resume driver for the checkpointed `n = 10^9` hazard run — the
//! CI kill/resume gate's workhorse.
//!
//! ```text
//! checkpointed_run reference --report R [--n N] [--k K] [--seed S]
//! checkpointed_run run       --checkpoint C --report R [--every E]
//!                            [--kill-after M] [--stall-ms MS] [--n ..]
//! checkpointed_run resume    --checkpoint C --report R [--every E] [--n ..]
//! ```
//!
//! All three modes execute the same near-unanimous Circles workload (the
//! winner holds all but one agent per loser color — the regime where a
//! `10^9`-agent run is CI-affordable, see the `hazards` bench) under the
//! same 8-event crash/corrupt/churn schedule:
//!
//! - `reference` runs uninterrupted with checkpointing disabled and writes
//!   a timing-free report.
//! - `run` checkpoints to `--checkpoint` every `--every` state changes
//!   (atomic `.pprc` writes). `--kill-after M` aborts the process — no
//!   destructors, a genuine crash — right after the `M`-th checkpoint
//!   lands; `--stall-ms` sleeps inside each checkpoint offer, widening the
//!   window for an external `kill -9`.
//! - `resume` loads the latest checkpoint (engine state, schedule tail,
//!   quarantine ledger, both RNG positions), continues the run, and writes
//!   the same report.
//!
//! The gate: the `resume` report after a killed `run` must be **byte
//! identical** to the `reference` report. When `PP_TABLE_CACHE` holds the
//! k = 30 store, all modes warm-load it (warm and cold trajectories are
//! bit-identical by the canonical-slot contract, so mixing is harmless —
//! the cache only moves the discovery bill).
//!
//! Exit status: 0 on success, 1 on runtime failure (typed checkpoint/run
//! errors), 2 on a usage error; `--kill-after` dies by `SIGABRT`.

use std::fmt::Write as _;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::time::Duration;

use circles_core::{CirclesProtocol, CirclesState, Color};
use pp_analysis::table_cache::TableCache;
use pp_extensions::hazard_checkpoint::{
    decode_hazard_aux, run_with_hazards_checkpointed, HazardProgress, HAZARD_AUX_SECTION,
};
use pp_extensions::hazards::{Hazard, HazardKind, HazardOutcome, HazardPlan};
use pp_protocol::{
    run_checkpoint, Activity, CompactCountEngine, CountConfig, CountEngine, RunCheckpoint,
    SparseActivity, UniformCountScheduler,
};
use rand::rngs::Philox4x32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Reference,
    Run,
    Resume,
}

#[derive(Debug)]
struct Opts {
    mode: Mode,
    n: u64,
    k: u16,
    seed: u64,
    every: u64,
    checkpoint: Option<PathBuf>,
    report: Option<PathBuf>,
    kill_after: Option<u64>,
    stall_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: checkpointed_run <reference|run|resume> --report FILE \
         [--checkpoint FILE] [--n N] [--k K] [--seed S] [--every CHANGES] \
         [--kill-after CHECKPOINTS] [--stall-ms MS]"
    );
    std::process::exit(2);
}

fn arg_error(flag: &str, value: &str, reason: impl std::fmt::Display) -> ! {
    eprintln!("error: invalid argument {flag}={value}: {reason}");
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let mode = match args.next().as_deref() {
        Some("reference") => Mode::Reference,
        Some("run") => Mode::Run,
        Some("resume") => Mode::Resume,
        _ => usage(),
    };
    let mut opts = Opts {
        mode,
        n: 1_000_000_000,
        k: 30,
        seed: 0,
        every: 64,
        checkpoint: None,
        report: None,
        kill_after: None,
        stall_ms: 0,
    };
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        let number = |flag: &str, value: &str| -> u64 {
            value.parse().unwrap_or_else(|e| arg_error(flag, value, e))
        };
        match flag.as_str() {
            "--n" => opts.n = number("--n", &value),
            "--k" => {
                opts.k = match number("--k", &value).try_into() {
                    Ok(k) if k >= 2 => k,
                    _ => arg_error("--k", &value, "color count must be in 2..=65535"),
                }
            }
            "--seed" => opts.seed = number("--seed", &value),
            "--every" => opts.every = number("--every", &value).max(1),
            "--kill-after" => opts.kill_after = Some(number("--kill-after", &value).max(1)),
            "--stall-ms" => opts.stall_ms = number("--stall-ms", &value),
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(&value)),
            "--report" => opts.report = Some(PathBuf::from(&value)),
            _ => usage(),
        }
    }
    if opts.report.is_none() {
        usage();
    }
    if opts.mode != Mode::Reference && opts.checkpoint.is_none() {
        usage();
    }
    opts
}

/// The CI hazard schedule — identical to the `hazards` bench's: eight
/// events over the first `8n` interactions covering crash, corruption and
/// both churn directions.
fn schedule(n: u64) -> HazardPlan {
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

/// Near-unanimous color counts: the winner holds all but one agent per
/// loser color.
fn color_counts(n: u64, k: u16) -> Vec<(Color, u64)> {
    let losers = u64::from(k) - 1;
    let mut counts = vec![(Color(0), n - losers)];
    counts.extend((1..k).map(|c| (Color(c), 1)));
    counts
}

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

/// Shared run loop: drive the checkpointed hazard campaign over whichever
/// engine/activity the cache situation produced, persisting checkpoints and
/// honoring the crash-injection knobs.
fn drive<A: Activity>(
    engine: &mut CountEngine<'_, CirclesProtocol, UniformCountScheduler, A, Philox4x32>,
    progress: HazardProgress<CirclesState>,
    pool: &[(Color, u64)],
    hazard_rng: &mut Philox4x32,
    opts: &Opts,
) -> HazardOutcome<CirclesProtocol> {
    let every = if opts.mode == Mode::Reference {
        0 // checkpointing disabled: the uninterrupted reference trajectory
    } else {
        opts.every
    };
    let mut saved = 0u64;
    let outcome = run_with_hazards_checkpointed(
        engine,
        progress,
        pool,
        hazard_rng,
        u64::MAX / 2,
        every,
        |ck| {
            if let Some(path) = &opts.checkpoint {
                if let Err(e) = run_checkpoint::save(ck, path) {
                    eprintln!("error: cannot write checkpoint {}: {e}", path.display());
                    std::process::exit(1);
                }
                saved += 1;
            }
            if opts.stall_ms > 0 {
                std::thread::sleep(Duration::from_millis(opts.stall_ms));
            }
            if opts.kill_after.is_some_and(|m| saved >= m) {
                eprintln!("checkpointed_run: simulated crash after {saved} checkpoint(s)");
                std::process::abort();
            }
            ControlFlow::Continue(())
        },
    );
    match outcome {
        Ok(outcome) => {
            eprintln!(
                "checkpointed_run: completed ({} checkpoint(s) written)",
                saved
            );
            outcome
        }
        Err(e) => {
            eprintln!("error: hazard run failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Order-independent digest of the final configuration, so reports can be
/// byte-diffed without embedding thousands of state lines. `DefaultHasher`
/// is deterministic across processes.
fn config_digest(config: &CountConfig<CirclesState>) -> u64 {
    let mut h = DefaultHasher::new();
    for (state, count) in config.iter() {
        state.to_string().hash(&mut h);
        count.hash(&mut h);
    }
    h.finish()
}

/// The timing-free report both sides of the byte-diff write.
fn render_report(outcome: &HazardOutcome<CirclesProtocol>, opts: &Opts) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "protocol=circles k={} n={} seed={}",
        opts.k, opts.n, opts.seed
    );
    let _ = writeln!(s, "stabilized={}", outcome.stabilized);
    let _ = writeln!(s, "applied={}", outcome.applied);
    let _ = writeln!(s, "last_hazard_step={}", outcome.last_hazard_step);
    let _ = writeln!(s, "recovery_steps={}", outcome.recovery_steps);
    let _ = writeln!(s, "recovery_changes={}", outcome.recovery_changes);
    let _ = writeln!(s, "final_n={}", outcome.final_n);
    let _ = writeln!(s, "quarantined={}", outcome.quarantined.n());
    let _ = writeln!(s, "steps={}", outcome.report.steps);
    let _ = writeln!(s, "steps_to_silence={}", outcome.report.steps_to_silence);
    let _ = writeln!(
        s,
        "steps_to_consensus={}",
        outcome.report.steps_to_consensus
    );
    let _ = writeln!(s, "state_changes={}", outcome.report.state_changes);
    let _ = writeln!(s, "consensus={:?}", outcome.report.consensus);
    let _ = writeln!(s, "final_distinct={}", outcome.final_config.distinct());
    let _ = writeln!(
        s,
        "final_config_digest={:016x}",
        config_digest(&outcome.final_config)
    );
    s
}

fn main() {
    let opts = parse_args();
    let protocol =
        CirclesProtocol::new(opts.k).unwrap_or_else(|e| arg_error("--k", &opts.k.to_string(), e));
    let counts = color_counts(opts.n, opts.k);
    let table = TableCache::from_env()
        .map(|cache| cache.load_or_empty(&protocol).0)
        .filter(|table| !table.is_empty());

    let outcome = match opts.mode {
        Mode::Reference | Mode::Run => {
            let progress = HazardProgress::fresh(schedule(opts.n));
            let trial_rng = Philox4x32::stream(0, opts.seed);
            let mut hazard_rng = Philox4x32::stream(0, opts.seed | 1 << 63);
            match &table {
                Some(table) => {
                    let mut engine = CompactCountEngine::<_, _, Philox4x32>::with_snapshot_rng(
                        &protocol,
                        config_from(&counts),
                        UniformCountScheduler::new(),
                        trial_rng,
                        table.snapshot(),
                    );
                    drive(&mut engine, progress, &counts, &mut hazard_rng, &opts)
                }
                None => {
                    let mut engine = CountEngine::<_, _, SparseActivity, _>::with_rng(
                        &protocol,
                        config_from(&counts),
                        UniformCountScheduler::new(),
                        trial_rng,
                    );
                    drive(&mut engine, progress, &counts, &mut hazard_rng, &opts)
                }
            }
        }
        Mode::Resume => {
            let path = opts.checkpoint.as_ref().expect("checked in parse_args");
            let ck: RunCheckpoint<CirclesState> = run_checkpoint::load(&protocol, path)
                .unwrap_or_else(|e| {
                    eprintln!("error: cannot load checkpoint {}: {e}", path.display());
                    std::process::exit(1);
                });
            let aux = ck.aux(HAZARD_AUX_SECTION).unwrap_or_else(|| {
                eprintln!(
                    "error: checkpoint {} has no {HAZARD_AUX_SECTION} section \
                     (not a hazard-run checkpoint)",
                    path.display()
                );
                std::process::exit(1);
            });
            let (progress, mut hazard_rng): (HazardProgress<CirclesState>, Philox4x32) =
                decode_hazard_aux(aux).unwrap_or_else(|e| {
                    eprintln!("error: cannot decode hazard state: {e}");
                    std::process::exit(1);
                });
            eprintln!(
                "checkpointed_run: resuming at step {} ({} hazards applied, {} pending)",
                ck.stats.steps,
                progress.applied,
                progress.pending.len()
            );
            match &table {
                Some(table) => {
                    let mut engine = CompactCountEngine::<_, _, Philox4x32>::resume_with_snapshot(
                        &protocol,
                        UniformCountScheduler::new(),
                        &ck,
                        table.snapshot(),
                    )
                    .unwrap_or_else(|e| {
                        eprintln!("error: cannot resume engine: {e}");
                        std::process::exit(1);
                    });
                    drive(&mut engine, progress, &counts, &mut hazard_rng, &opts)
                }
                None => {
                    let mut engine = CountEngine::<_, _, SparseActivity, Philox4x32>::resume(
                        &protocol,
                        UniformCountScheduler::new(),
                        &ck,
                    )
                    .unwrap_or_else(|e| {
                        eprintln!("error: cannot resume engine: {e}");
                        std::process::exit(1);
                    });
                    drive(&mut engine, progress, &counts, &mut hazard_rng, &opts)
                }
            }
        }
    };

    let report = render_report(&outcome, &opts);
    let path = opts.report.as_ref().expect("checked in parse_args");
    if let Err(e) = std::fs::write(path, &report) {
        eprintln!("error: cannot write report {}: {e}", path.display());
        std::process::exit(1);
    }
    print!("{report}");
}

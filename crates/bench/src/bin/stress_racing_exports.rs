//! Many-thread stress harness for the lock-free transition-table publisher.
//!
//! ```text
//! stress_racing_exports [--threads N] [--rounds R] [--watchdog-secs S]
//! ```
//!
//! Each round races `N` cold Circles engines (default 32, shifted
//! workloads, distinct seeds) into one shared [`TransitionTable`] while a
//! reader thread concurrently captures epoch snapshots and digests them
//! twice — once mid-race, once after every writer joined. The round then
//! asserts:
//!
//! 1. **Snapshot stability**: both digests of a handle captured mid-race
//!    are identical — published segments are immutable, so a snapshot can
//!    never change under its reader.
//! 2. **Union completeness**: the racing table's state set equals the
//!    union a serial replay of the same engines discovers, every ordered
//!    pair is classified exactly as the protocol classifies it, and every
//!    memoized outcome re-derives through the transition function.
//! 3. **Snapshot coverage**: the final snapshot resolves every id
//!    round-trip (`id_of(state(t)) == t`), i.e. each published segment is
//!    reachable from the handle.
//!
//! When `PP_TABLE_CACHE` points at a cache holding the k = 30 store (CI's
//! `table-store` artifact), a second phase re-runs the race warm: threads
//! capture snapshots of the loaded table and export their (mostly
//! deduplicated) rediscoveries back into it, exercising the
//! outcome-only-segment path under contention.
//!
//! Exit status: `0` on success; any violated invariant panics (non-zero).
//!
//! A wall-clock **watchdog** thread (default 300 s, `--watchdog-secs`, `0`
//! disables) guards the whole run: a deadlocked or livelocked publication
//! race aborts the process with the last recorded phase markers instead of
//! hanging CI until the job-level timeout. The main thread cannot print a
//! dump itself — it is the thread that is stuck — so the watchdog reports
//! the phase registry (what each stage last logged) and `abort()`s, which
//! fails the job in minutes with the stuck phase named.
//!
//! This binary is the `concurrency` CI job's release-mode companion to the
//! ThreadSanitizer suites: TSan watches the small tests for data races,
//! this watches the real protocol at real thread counts for lost updates.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use circles_core::CirclesProtocol;
use pp_analysis::table_cache::TableCache;
use pp_analysis::workloads::margin_workload;
use pp_protocol::{
    CompactCountEngine, CountConfig, CountEngine, Protocol, TableSnapshot, TransitionTable,
    UniformCountScheduler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const K_COLD: u16 = 6;
const N_AGENTS: usize = 240;
const BUDGET: u64 = 2_000_000;

fn flag(args: &[String], name: &str, default: usize) -> usize {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The watchdog's view of progress: each stage overwrites its slot with a
/// human-readable marker as it starts, so on a hang the dump names exactly
/// which phase (and round) stopped advancing.
#[derive(Debug, Default)]
struct PhaseRegistry {
    phases: Mutex<Vec<String>>,
}

impl PhaseRegistry {
    fn mark(&self, phase: impl Into<String>) {
        let phase = phase.into();
        let mut phases = self.phases.lock().expect("phase registry lock");
        phases.push(phase);
        // Keep the registry small: only the trailing window matters.
        let excess = phases.len().saturating_sub(16);
        if excess > 0 {
            phases.drain(..excess);
        }
    }

    fn dump(&self) -> String {
        match self.phases.lock() {
            Ok(phases) => phases.join("\n  "),
            Err(_) => "phase registry poisoned".to_string(),
        }
    }
}

/// Starts the wall-clock watchdog: unless the returned flag is set within
/// `limit`, the process prints the phase registry and aborts. The thread is
/// detached — on normal completion it either observes the flag and returns,
/// or dies with the process at exit.
fn start_watchdog(limit: Duration, registry: &Arc<PhaseRegistry>) -> Arc<AtomicBool> {
    let finished = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&finished);
    let registry = Arc::clone(registry);
    std::thread::spawn(move || {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(250));
        }
        if flag.load(Ordering::Acquire) {
            return;
        }
        eprintln!(
            "stress_racing_exports: WATCHDOG: no completion within {}s — \
             the publication race is deadlocked or livelocked.\n\
             last phase markers (most recent last):\n  {}\n\
             aborting so CI fails in minutes instead of hanging at the job timeout",
            limit.as_secs(),
            registry.dump(),
        );
        std::process::abort();
    });
    finished
}

/// Order-independent digest of everything a snapshot serves: states and
/// both row orientations always; the `O(n²)` outcome scan only on small
/// tables (the cold k = 6 rounds), where it is cheap.
fn digest(snap: &TableSnapshot<<CirclesProtocol as Protocol>::State>) -> u64 {
    let mut h = DefaultHasher::new();
    snap.len().hash(&mut h);
    for t in 0..snap.len().min(4096) as u32 {
        snap.state(t).hash(&mut h);
        snap.walk_out(t, |j| {
            j.hash(&mut h);
            true
        });
        snap.walk_in(t, |i| {
            i.hash(&mut h);
            true
        });
    }
    if snap.len() <= 512 {
        for t in 0..snap.len() as u32 {
            for u in 0..snap.len() as u32 {
                if let Some(out) = snap.outcome((t, u)) {
                    (t, u, out).hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

/// The workload thread `t` of `threads` runs: the shared margin workload
/// with colors rotated by thread id, so slices of the state space overlap
/// without coinciding.
fn thread_inputs(t: usize) -> Vec<circles_core::Color> {
    margin_workload(N_AGENTS, K_COLD, N_AGENTS / 8)
        .into_iter()
        .map(|c| circles_core::Color((c.0 + t as u16) % K_COLD))
        .collect()
}

/// Races `threads` cold engines into `table` while a reader digests a
/// mid-race snapshot; returns that snapshot's two digests.
fn race_cold(protocol: &CirclesProtocol, table: &TransitionTable<CirclesProtocol>, threads: usize) {
    let writers_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            // Capture mid-race (whatever has been published so far) and
            // digest immediately; re-digest after the race in the caller.
            while table.is_empty() && !writers_done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            let snap = table.snapshot();
            let first = digest(&snap);
            (snap, first)
        });
        let mut workers = Vec::with_capacity(threads);
        for t in 0..threads {
            workers.push(scope.spawn(move || {
                let inputs = thread_inputs(t);
                let mut engine = CountEngine::from_inputs(protocol, &inputs, t as u64 + 1);
                let _ = engine.run_until_silent(BUDGET);
                engine.export_to(table);
            }));
        }
        for w in workers {
            w.join().expect("writer thread");
        }
        writers_done.store(true, Ordering::Release);
        let (snap, first) = reader.join().expect("reader thread");
        assert_eq!(
            digest(&snap),
            first,
            "a snapshot captured mid-race changed under its reader"
        );
    });
}

/// Serially replays the same engine fleet and checks the racing table
/// against the serial union and the protocol itself.
fn check_union(
    protocol: &CirclesProtocol,
    racing: &TransitionTable<CirclesProtocol>,
    threads: usize,
) {
    let serial = TransitionTable::new();
    for t in 0..threads {
        let inputs = thread_inputs(t);
        let mut engine = CountEngine::from_inputs(protocol, &inputs, t as u64 + 1);
        let _ = engine.run_until_silent(BUDGET);
        engine.export_to(&serial);
    }
    let (raced, reference) = (racing.dump(), serial.dump());
    let mut raced_states = raced.states.clone();
    let mut serial_states = reference.states.clone();
    raced_states.sort_unstable();
    serial_states.sort_unstable();
    assert_eq!(
        raced_states, serial_states,
        "racing exports lost or invented states vs a serial replay"
    );
    for (i, si) in raced.states.iter().enumerate() {
        for (j, sj) in raced.states.iter().enumerate() {
            assert_eq!(
                raced.rows[i].binary_search(&(j as u32)).is_ok(),
                !protocol.is_null_interaction(si, sj),
                "pair ({si:?}, {sj:?}) misclassified after racing exports"
            );
        }
    }
    for &((i, j), (a, b)) in &raced.outcomes {
        let (ta, tb) = protocol.transition(&raced.states[i as usize], &raced.states[j as usize]);
        assert_eq!(
            (ta, tb),
            (raced.states[a as usize], raced.states[b as usize]),
            "memoized outcome ({i}, {j}) disagrees with the protocol"
        );
    }
    // Every segment reachable: the final snapshot must resolve the whole
    // id space round-trip.
    let snap = racing.snapshot();
    assert_eq!(snap.len(), racing.len());
    for t in 0..snap.len() as u32 {
        assert_eq!(
            snap.id_of(snap.state(t)),
            Some(t),
            "id {t} does not round-trip through the final snapshot"
        );
    }
}

/// Optional warm phase against the cached k = 30 store: concurrent epoch
/// captures plus racing warm trials that export back into the big table.
fn warm_phase(threads: usize, registry: &PhaseRegistry) {
    let Some(cache) = TableCache::from_env() else {
        return;
    };
    registry.mark("warm phase: loading cached k=30 store");
    let protocol = CirclesProtocol::new(30).expect("k = 30 is valid");
    let (table, status) = cache.load_or_empty(&protocol);
    if table.is_empty() {
        eprintln!("stress_racing_exports: no cached k=30 store ({status:?}); skipping warm phase");
        return;
    }
    println!(
        "warm phase: k=30 table loaded ({} states), racing {threads} warm trials",
        table.len()
    );
    registry.mark("warm phase: racing warm exports");
    let pre = table.snapshot();
    let before = digest(&pre);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let table = &table;
            let protocol = &protocol;
            scope.spawn(move || {
                let inputs: Vec<_> = margin_workload(400, 30, 40)
                    .into_iter()
                    .map(|c| circles_core::Color((c.0 + t as u16) % 30))
                    .collect();
                let config: CountConfig<_> = inputs.iter().map(|i| protocol.input(i)).collect();
                let mut engine = CompactCountEngine::with_snapshot_rng(
                    protocol,
                    config,
                    UniformCountScheduler::new(),
                    StdRng::seed_from_u64(t as u64 + 1),
                    table.snapshot(),
                );
                let _ = engine.run_until_silent(BUDGET);
                engine.export_to(table);
            });
        }
    });
    // The pre-race snapshot still digests identically: warm exports only
    // appended, they never touched published segments.
    assert_eq!(
        digest(&pre),
        before,
        "the warm table's pre-race snapshot changed under racing exports"
    );
    println!(
        "warm phase: ok ({} states after racing exports)",
        table.len()
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = flag(&args, "--threads", 32);
    let rounds = flag(&args, "--rounds", 4);
    let watchdog_secs = flag(&args, "--watchdog-secs", 300);
    let registry = Arc::new(PhaseRegistry::default());
    let finished = (watchdog_secs > 0)
        .then(|| start_watchdog(Duration::from_secs(watchdog_secs as u64), &registry));
    let protocol = CirclesProtocol::new(K_COLD).expect("k is valid");
    for round in 0..rounds {
        let table = TransitionTable::new();
        registry.mark(format!("round {}/{rounds}: racing cold engines", round + 1));
        race_cold(&protocol, &table, threads);
        registry.mark(format!(
            "round {}/{rounds}: checking union vs serial replay",
            round + 1
        ));
        check_union(&protocol, &table, threads);
        println!(
            "round {}/{rounds}: ok ({} states, {} outcomes, {threads} threads)",
            round + 1,
            table.len(),
            table.outcome_count(),
        );
    }
    warm_phase(threads, &registry);
    if let Some(finished) = finished {
        finished.store(true, Ordering::Release);
    }
    ExitCode::SUCCESS
}

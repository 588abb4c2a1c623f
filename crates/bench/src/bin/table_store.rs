//! Build, inspect and verify on-disk transition-table stores (`.ppts`).
//!
//! The store format is specified in `docs/transition-store-format.md` and
//! implemented by [`pp_protocol::transition_store`]. This tool is the
//! operational surface CI and users drive:
//!
//! ```text
//! table_store build   --k K [--n N] [--seeds S] [--full] [--format v1|v2]
//!                     [--out PATH] [--cache-dir DIR]
//! table_store inspect PATH
//! table_store verify  PATH [--k K] [--audit-pairs N]
//! ```
//!
//! `build` discovers a Circles table — by default the states a 16-seed
//! margin-workload sweep reaches (the set warm sweeps actually reuse), with
//! `--full` the entire `k³` enumerable state space, discovered through the
//! color-orbit quotient (`O(k⁵)` transition calls instead of `O(k⁶)`) —
//! and saves it atomically. `--format v2` writes the quotient layout (one
//! row per canonical representative, `~k×` smaller on disk); it requires
//! `--full`, because only the full enumeration is orbit-closed. `--cache-dir` additionally drops the store into a
//! [`TableCache`] directory under its fingerprint-keyed name, so anything
//! honoring `PP_TABLE_CACHE` (warm sweeps, benches, the stress binary)
//! picks it up without rebuilding. `inspect` prints the verified header of
//! any store without needing a protocol — for v2 stores including the
//! quotient statistics (representatives, orbit factor, v1-vs-v2 bytes). `verify` loads the store
//! (checksum + fingerprint + structural validation, zero protocol calls —
//! a v2 store stays in orbit form, its rows checked against the group
//! action on the way in), then *audits* it by re-deriving pair activity and
//! memoized outcomes through the protocol's own transition function, the
//! one check loading deliberately skips. Last it runs one warm
//! margin-workload run from the loaded table (`n = 10⁴`, seed 0) and checks
//! that it elects the true winner and reports exactly what the cold run of
//! the same seed reports.
//!
//! Exit status: `0` on success, `1` on any store error, `2` on usage
//! errors.

use std::path::PathBuf;
use std::process::ExitCode;

use circles_core::CirclesProtocol;
use pp_analysis::table_cache::TableCache;
use pp_analysis::trial::{Backend, TrialRunner};
use pp_analysis::workloads::{margin_workload, true_winner};
use pp_protocol::transition_store::{self, StoreMeta};
use pp_protocol::{
    CompactActivity, CountConfig, CountEngine, EnumerableProtocol, Protocol, TransitionTable,
    UniformCountScheduler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "usage:
  table_store build   --k K [--n N] [--seeds S] [--full] [--format v1|v2]
                      [--out PATH] [--cache-dir DIR]
  table_store inspect PATH
  table_store verify  PATH [--k K] [--audit-pairs N]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("build") => build(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("verify") => verify(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("table_store: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Store(msg)) => {
            eprintln!("table_store: {msg}");
            ExitCode::FAILURE
        }
    }
}

enum Failure {
    Usage(String),
    Store(String),
}

impl From<transition_store::StoreError> for Failure {
    fn from(e: transition_store::StoreError) -> Self {
        Failure::Store(e.to_string())
    }
}

/// Pulls the value of `--flag VALUE` out of `args`, parsed.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, Failure> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| Failure::Usage(format!("{flag} needs a valid value"))),
    }
}

fn positional(args: &[String]) -> Result<PathBuf, Failure> {
    args.iter()
        .find(|a| !a.starts_with("--") && a.parse::<u64>().is_err())
        .map(PathBuf::from)
        .ok_or_else(|| Failure::Usage("missing store path".into()))
}

fn print_meta(meta: &StoreMeta) {
    println!("protocol:    {}", meta.protocol);
    println!("version:     {}", meta.version);
    println!("fingerprint: {:#018x}", meta.fingerprint);
    println!("param (k):   {}", meta.param);
    println!("symmetric:   {}", meta.symmetric);
    println!("states:      {}", meta.states);
    println!("pairs:       {}", meta.pairs);
    println!("outcomes:    {}", meta.outcomes);
    println!("file bytes:  {}", meta.file_bytes);
    println!("checksum:    {:#018x}", meta.checksum);
    if let Some(q) = &meta.quotient {
        println!(
            "orbits:      {} representative(s), group order {}",
            q.reps, q.group_order
        );
        if q.reps > 0 {
            println!(
                "orbit factor: {:.2} (states per representative)",
                meta.states as f64 / q.reps as f64
            );
        }
        println!(
            "v1 bytes:    {} ({:.1}x larger than this file)",
            q.v1_bytes,
            q.v1_bytes as f64 / meta.file_bytes as f64
        );
    }
}

fn build(args: &[String]) -> Result<(), Failure> {
    let k: u16 =
        flag_value(args, "--k")?.ok_or_else(|| Failure::Usage("build needs --k".into()))?;
    let n: usize = flag_value(args, "--n")?.unwrap_or(3_000);
    let seeds: u64 = flag_value(args, "--seeds")?.unwrap_or(16);
    let full = args.iter().any(|a| a == "--full");
    let format: String = flag_value(args, "--format")?.unwrap_or_else(|| "v1".to_string());
    if !matches!(format.as_str(), "v1" | "v2") {
        return Err(Failure::Usage(format!("unknown --format {format:?}")));
    }
    if format == "v2" && !full {
        return Err(Failure::Usage(
            "--format v2 requires --full: only the full enumeration is orbit-closed".into(),
        ));
    }
    let out: PathBuf =
        flag_value(args, "--out")?.unwrap_or_else(|| PathBuf::from(format!("circles-k{k}.ppts")));

    let protocol = CirclesProtocol::new(k).map_err(|e| Failure::Usage(format!("bad k: {e}")))?;

    let table = if full {
        // The entire k³ state space. With the color-orbit quotient this
        // costs O(k⁵) transition calls (one bra-0 representative per
        // orbit, the rest derived mechanically); without one, fall back
        // to priming a cold engine — O(k⁶) classifications, halved by
        // symmetry.
        match pp_protocol::quotient_table(&protocol) {
            Ok(full_table) => full_table,
            Err(pp_protocol::QuotientError::Unsupported) => {
                let table = TransitionTable::new();
                let inputs = margin_workload(n.max(usize::from(k) + 2), k, 1);
                let config: CountConfig<_> = inputs.iter().map(|i| protocol.input(i)).collect();
                let mut engine = CountEngine::from_config(&protocol, config, 7);
                engine.prime_states(protocol.states());
                engine.export_to(&table);
                table
            }
            Err(e) => return Err(Failure::Store(e.to_string())),
        }
    } else {
        // Discover what a real sweep reaches: run the same margin workload
        // the warm-sweep bench uses through the warm TrialRunner path.
        let table = TransitionTable::new();
        let inputs = margin_workload(n, k, n / 10);
        let expected = true_winner(&inputs, k);
        let results = TrialRunner::new(Backend::Count)
            .seeds(seeds)
            .run_with_table(&protocol, &inputs, expected, &table);
        if !results.iter().all(|r| r.stabilized) {
            return Err(Failure::Store("discovery sweep failed to stabilize".into()));
        }
        table
    };

    let meta = if format == "v2" {
        transition_store::save_quotient(&table, &protocol, &out)?
    } else {
        transition_store::save(&table, &protocol, &out)?
    };
    eprintln!("wrote {}", out.display());
    print_meta(&meta);

    // Optionally publish the same table into a cache directory under its
    // fingerprint-keyed name — the handoff CI uses to share one build with
    // every job that sets PP_TABLE_CACHE. Saving is deterministic, so this
    // file is byte-identical to `out`.
    if let Some(dir) = flag_value::<PathBuf>(args, "--cache-dir")? {
        let cache = TableCache::new(dir);
        cache.store(&protocol, &table)?;
        eprintln!("cached {}", cache.path_for(&protocol).display());
    }
    Ok(())
}

fn inspect(args: &[String]) -> Result<(), Failure> {
    let path = positional(args)?;
    let meta = transition_store::inspect(&path)?;
    print_meta(&meta);
    Ok(())
}

fn verify(args: &[String]) -> Result<(), Failure> {
    let path = positional(args)?;
    let audit_pairs: u64 = flag_value(args, "--audit-pairs")?.unwrap_or(2_000_000);
    let meta = transition_store::inspect(&path)?;
    if meta.protocol != "circles" {
        return Err(Failure::Usage(format!(
            "verify only knows the circles protocol, store is for {:?}",
            meta.protocol
        )));
    }
    let k: u16 = match flag_value(args, "--k")? {
        Some(k) => k,
        None => u16::try_from(meta.param)
            .map_err(|_| Failure::Store(format!("store param {} is not a valid k", meta.param)))?,
    };
    let protocol = CirclesProtocol::new(k).map_err(|e| Failure::Usage(format!("bad k: {e}")))?;
    let table = transition_store::load(&protocol, &path)?;
    let report = transition_store::audit(&protocol, &table, audit_pairs)?;
    print_meta(&meta);
    println!(
        "audit:       ok ({} state(s), {} pair(s) re-classified, {} outcome(s) re-derived)",
        report.states, report.pairs_checked, report.outcomes_checked
    );

    // One warm run from the loaded table against the cold run of the same
    // seed: every slot the warm engine materializes from the table must
    // give the draws cold discovery gives.
    let inputs = margin_workload(WARM_N, k, WARM_N / 10);
    let expected = true_winner(&inputs, k);
    let run = |table: Option<&TransitionTable<CirclesProtocol>>| {
        let config: CountConfig<_> = inputs.iter().map(|i| protocol.input(i)).collect();
        let (scheduler, rng) = (UniformCountScheduler::new(), StdRng::seed_from_u64(0));
        let mut engine: CountEngine<'_, _, _, CompactActivity> = match table {
            Some(table) => {
                CountEngine::with_snapshot_rng(&protocol, config, scheduler, rng, table.snapshot())
            }
            None => CountEngine::with_rng(&protocol, config, scheduler, rng),
        };
        engine
            .run_until_silent(u64::MAX)
            .map_err(|e| Failure::Store(format!("warm check run did not reach silence: {e}")))
    };
    let warm = run(Some(&table))?;
    if warm.consensus != Some(expected) {
        return Err(Failure::Store(format!(
            "warm run elected {:?}, the true winner is {expected}",
            warm.consensus
        )));
    }
    let cold = run(None)?;
    if warm != cold {
        return Err(Failure::Store(format!(
            "warm run {warm:?} differs from the cold run {cold:?}"
        )));
    }
    println!(
        "warm run:    ok (n = {WARM_N}, seed 0: {} change(s) to {expected}, identical to the cold run)",
        warm.state_changes
    );
    Ok(())
}

/// Population of the warm check run `verify` makes from a loaded store.
const WARM_N: usize = 10_000;

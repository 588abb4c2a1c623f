//! From-scratch audits of the count engine's incremental bookkeeping on
//! real Circles runs.
//!
//! The activity index keeps every slot's in-column sum `col_in`, one mass
//! sum per 64-row block and the total exact after each count delta, with no
//! settlement pass in between. [`CountEngine::audit`] recomputes all of
//! them (and the population and output histogram) from the slot counts.
//! These tests audit at every hook call of a checkpointed run, for both
//! activity indexes, cold and warm from a table, and after each
//! out-of-model perturbation; the hooked runs must report exactly what the
//! unhooked runs report.

use std::ops::ControlFlow;

use circles::analysis::workloads::margin_counts;
use circles::core::{CirclesProtocol, CirclesState, Color};
use circles::protocol::{
    Activity, CompactActivity, CountConfig, CountEngine, Protocol, RunReport, SparseActivity,
    TransitionTable, UniformCountScheduler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Engine<'p, A> = CountEngine<'p, CirclesProtocol, UniformCountScheduler, A, StdRng>;

/// The margin workload as an anonymous configuration: color 0 leads by
/// `n / 10` over equally supported losers.
fn margin_config(protocol: &CirclesProtocol, n: u64, k: u16) -> CountConfig<CirclesState> {
    let mut config = CountConfig::new();
    for (color, count) in margin_counts(n, k, n / 10) {
        config.insert(protocol.input(&color), count as usize);
    }
    config
}

/// A cold engine, or a warm one from `table` when given.
fn engine<'p, A: Activity>(
    protocol: &'p CirclesProtocol,
    config: &CountConfig<CirclesState>,
    seed: u64,
    table: Option<&TransitionTable<CirclesProtocol>>,
) -> Engine<'p, A> {
    let (scheduler, rng) = (UniformCountScheduler::new(), StdRng::seed_from_u64(seed));
    match table {
        None => Engine::with_rng(protocol, config.clone(), scheduler, rng),
        Some(t) => {
            Engine::with_snapshot_rng(protocol, config.clone(), scheduler, rng, t.snapshot())
        }
    }
}

/// Runs to silence, then perturbs the silent configuration three ways
/// (auditing after each) and runs to silence again. With `every > 0` the
/// runs audit at every hook call, every `every` state changes. Returns
/// both reports and the table of everything the engine discovered.
fn perturbed_run<A: Activity>(
    mut e: Engine<'_, A>,
    every: u64,
) -> (Vec<RunReport<Color>>, TransitionTable<CirclesProtocol>) {
    let audited = |e: &Engine<'_, A>| {
        assert_eq!(
            e.audit(),
            Ok(()),
            "after {} changes",
            e.stats().state_changes
        );
        ControlFlow::Continue(())
    };
    let mut reports = vec![e
        .run_until_silent_checkpointed(u64::MAX / 2, every, audited)
        .unwrap()];
    // One winner agent turns into a fresh color-1 input, another leaves,
    // and fresh color-2 and color-1 agents arrive: outputs disagree again.
    let protocol = e.protocol();
    let winner = e
        .known_states()
        .iter()
        .zip(e.counts())
        .find(|&(_, &c)| c >= 2)
        .map(|(&s, _)| s)
        .expect("a silent Circles configuration holds its winner");
    let (fresh1, fresh2) = (protocol.input(&Color(1)), protocol.input(&Color(2)));
    e.perturb_transfer(&winner, fresh1, 1).unwrap();
    assert_eq!(e.audit(), Ok(()), "after perturb_transfer");
    e.perturb_remove(&winner, 1).unwrap();
    assert_eq!(e.audit(), Ok(()), "after perturb_remove");
    e.perturb_add(fresh2, 1).unwrap();
    assert_eq!(e.audit(), Ok(()), "after perturb_add");
    e.perturb_add(fresh1, 1).unwrap();
    assert_eq!(e.audit(), Ok(()), "after the second perturb_add");
    reports.push(
        e.run_until_silent_checkpointed(u64::MAX / 2, every, audited)
            .unwrap(),
    );
    assert_eq!(e.audit(), Ok(()), "at silence");
    (reports, e.warm_table())
}

/// Audits Circles `k` at `n` agents (seed `seed`, hook every `every`
/// changes) cold and warm on both indexes, against the unhooked run. The
/// audited cold run goes first, so a corrupted index fails its audit
/// before any unaudited run can trip over it.
fn audits_hold(k: u16, n: u64, seed: u64, every: u64) {
    let protocol = CirclesProtocol::new(k).unwrap();
    let config = margin_config(&protocol, n, k);
    let cold = || engine::<SparseActivity>(&protocol, &config, seed, None);
    let (expected, table) = perturbed_run(cold(), every);
    assert_eq!(perturbed_run(cold(), 0).0, expected, "unhooked");
    let compact = engine::<CompactActivity>(&protocol, &config, seed, None);
    assert_eq!(perturbed_run(compact, every).0, expected, "cold compact");
    let sparse = engine::<SparseActivity>(&protocol, &config, seed, Some(&table));
    assert_eq!(perturbed_run(sparse, every).0, expected, "warm sparse");
    let compact = engine::<CompactActivity>(&protocol, &config, seed, Some(&table));
    assert_eq!(perturbed_run(compact, every).0, expected, "warm compact");
}

/// k = 3: 18 slots in one block; audit after every state change.
#[test]
fn k3_audits_hold_at_every_change() {
    audits_hold(3, 10_000, 2024, 1);
}

/// k = 10: ~620 slots over ten blocks, so deltas and draws cross block
/// boundaries; audit every 100 changes.
#[test]
fn k10_audits_hold_across_blocks() {
    audits_hold(10, 2_000, 7, 100);
}

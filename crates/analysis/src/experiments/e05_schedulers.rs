//! E5 — always-correctness across the weakly fair scheduler family, and the
//! price of adversarial fairness.
//!
//! Paper anchor: Definition 1.2 and Theorem 3.7 — Circles must reach the
//! correct output under *every* weakly fair scheduler. The `correct` column
//! must read `1.00` for all schedulers; the interesting signal is how much
//! slower the lazy adversary and the clustered bottleneck make convergence.

use circles_core::CirclesProtocol;
use pp_schedulers::{
    ClusteredScheduler, LazyAdversaryScheduler, RoundRobinScheduler, ShuffledRoundsScheduler,
};

use crate::runner::{seed_range, trial_rng};
use crate::stats::Summary;
use crate::table::{fmt_f64, Table};
use crate::trial::{run_trial, Backend, TrialResult, TrialRunner};
use crate::workloads::{photo_finish_workload, shuffled, true_winner};

/// Parameters for E5.
#[derive(Debug, Clone)]
pub struct Params {
    /// Population size (kept modest: the lazy adversary is O(n²) per step).
    pub n: usize,
    /// Color counts to test.
    pub ks: Vec<u16>,
    /// Seeds per configuration.
    pub seeds: u64,
    /// Interaction budget per run.
    pub max_steps: u64,
    /// Worker threads.
    pub threads: usize,
    /// Backend for the `uniform` rows. The named schedulers are indexed-only
    /// (they pick *agent* pairs), so their rows always run on the indexed
    /// engine regardless of this choice — see [`SCHEDULERS`].
    pub backend: Backend,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 64,
            ks: vec![3, 8],
            seeds: 16,
            max_steps: 200_000_000,
            threads: crate::runner::default_threads(),
            backend: Backend::Indexed,
        }
    }
}

impl Params {
    /// CI-scale preset.
    pub fn quick() -> Self {
        Params {
            n: 10,
            ks: vec![3],
            seeds: 3,
            max_steps: 10_000_000,
            threads: 2,
            backend: Backend::Indexed,
        }
    }

    /// The same parameters on another backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

fn trial_for(
    scheduler_name: &str,
    protocol: &CirclesProtocol,
    inputs: &[circles_core::Color],
    expected: circles_core::Color,
    seed: u64,
    max_steps: u64,
    backend: Backend,
) -> TrialResult {
    match scheduler_name {
        // The uniform-random row is engine-agnostic: it dispatches through
        // the backend like every ported experiment.
        "uniform" => backend.trial(protocol, inputs, 0, seed, expected, max_steps),
        "round-robin" => run_trial(
            protocol,
            inputs,
            RoundRobinScheduler::new(),
            trial_rng(0, seed),
            expected,
            max_steps,
        ),
        "shuffled-rounds" => run_trial(
            protocol,
            inputs,
            ShuffledRoundsScheduler::new(),
            trial_rng(0, seed),
            expected,
            max_steps,
        ),
        "lazy-adversary" => {
            let n = inputs.len();
            let window = (n * (n - 1)) as u64;
            run_trial(
                protocol,
                inputs,
                LazyAdversaryScheduler::new(*protocol, window),
                trial_rng(0, seed),
                expected,
                max_steps,
            )
        }
        "clustered(16)" => run_trial(
            protocol,
            inputs,
            ClusteredScheduler::new(16),
            trial_rng(0, seed),
            expected,
            max_steps,
        ),
        "clustered(256)" => run_trial(
            protocol,
            inputs,
            ClusteredScheduler::new(256),
            trial_rng(0, seed),
            expected,
            max_steps,
        ),
        other => panic!("unknown scheduler {other}"),
    }
    .expect("trial failed")
}

/// The scheduler names E5 sweeps. All but `uniform` are *indexed-only*:
/// they schedule identified agent pairs, which the anonymous count engine
/// cannot express, so [`run`] dispatches them to the indexed engine
/// whatever `Params::backend` says.
pub const SCHEDULERS: [&str; 6] = [
    "uniform",
    "round-robin",
    "shuffled-rounds",
    "lazy-adversary",
    "clustered(16)",
    "clustered(256)",
];

/// Deterministic schedulers produce identical runs for every seed; running
/// them once is enough.
fn is_deterministic(scheduler: &str) -> bool {
    matches!(scheduler, "round-robin" | "lazy-adversary")
}

/// Runs E5 and returns the table.
pub fn run(params: &Params) -> Table {
    let mut table = Table::new(
        "E5 — scheduler family: correctness and slowdown",
        &[
            "k",
            "scheduler",
            "seeds",
            "consensus mean",
            "consensus max",
            "slowdown vs uniform",
            "stabilized",
            "correct",
        ],
    );
    for &k in &params.ks {
        let inputs = shuffled(photo_finish_workload(params.n, k), 1234);
        let protocol = CirclesProtocol::new(k).expect("k >= 1");
        let expected = true_winner(&inputs, k);
        let mut uniform_mean = None;
        for scheduler in SCHEDULERS {
            let seeds = if is_deterministic(scheduler) {
                seed_range(1)
            } else {
                seed_range(params.seeds)
            };
            let runner = TrialRunner::new(params.backend)
                .threads(params.threads)
                .seed_list(seeds.clone());
            let results = runner.run_with(|seed| {
                trial_for(
                    scheduler,
                    &protocol,
                    &inputs,
                    expected,
                    seed,
                    params.max_steps,
                    params.backend,
                )
            });
            let consensus: Vec<f64> = results
                .iter()
                .map(|r| r.steps_to_consensus as f64)
                .collect();
            let summary = Summary::from_samples(&consensus);
            let stabilized = results.iter().filter(|r| r.stabilized).count();
            let correct = results.iter().filter(|r| r.correct).count();
            if scheduler == "uniform" {
                uniform_mean = Some(summary.mean.max(1.0));
            }
            let slowdown =
                uniform_mean.map_or("-".to_string(), |u| format!("{:.2}x", summary.mean / u));
            table.push_row(vec![
                k.to_string(),
                scheduler.to_string(),
                seeds.len().to_string(),
                fmt_f64(summary.mean),
                fmt_f64(summary.max),
                slowdown,
                format!("{}/{}", stabilized, results.len()),
                format!("{:.2}", correct as f64 / results.len() as f64),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheduler_is_correct() {
        for backend in Backend::ALL {
            let p = Params::quick().with_backend(backend);
            let table = run(&p);
            assert_eq!(table.len(), p.ks.len() * SCHEDULERS.len());
            for row in table.rows() {
                assert_eq!(
                    row[7],
                    "1.00",
                    "scheduler {} failed on {}: {row:?}",
                    row[1],
                    backend.name()
                );
            }
        }
    }
}

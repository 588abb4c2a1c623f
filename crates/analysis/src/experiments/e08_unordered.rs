//! E8 — the unordered-setting composition: correctness and overhead.
//!
//! Paper anchor: §4 ("Unordered setting"), claiming `O(k⁴)` states via an
//! ordering layer plus re-initialization. This experiment checks that the
//! reconstruction converges to the right winner (with opaque, arbitrary
//! color identifiers), verifies bra-ket conservation at the end, and
//! measures the overhead factor over vanilla Circles, plus the state-count
//! comparison `k³` vs `O(k⁴)`.

use circles_core::{CirclesProtocol, Color};
use pp_extensions::unordered::UnorderedCircles;
use pp_protocol::{EnumerableProtocol, Population, UniformPairScheduler};

use crate::runner::{run_seeded, seed_range, trial_rng};
use crate::stats::Summary;
use crate::table::{fmt_f64, Table};
use crate::trial::{run_trial, Backend};
use crate::workloads::{margin_workload, shuffled, true_winner};

/// Parameters for E8.
#[derive(Debug, Clone)]
pub struct Params {
    /// Population sizes.
    pub ns: Vec<usize>,
    /// Color counts.
    pub ks: Vec<u16>,
    /// Seeds per configuration.
    pub seeds: u64,
    /// Interaction budget.
    pub max_steps: u64,
    /// Worker threads.
    pub threads: usize,
    /// Which engine executes the unordered-protocol runs (the vanilla
    /// overhead baseline always runs indexed, keeping the denominator
    /// comparable across sweeps).
    pub backend: Backend,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            ns: vec![16, 64, 128],
            ks: vec![2, 3, 4, 6],
            seeds: 24,
            max_steps: 1_000_000_000,
            threads: crate::runner::default_threads(),
            backend: Backend::Count,
        }
    }
}

impl Params {
    /// CI-scale preset.
    pub fn quick() -> Self {
        Params {
            ns: vec![10],
            ks: vec![2, 3],
            seeds: 3,
            max_steps: 100_000_000,
            threads: 2,
            backend: Backend::Count,
        }
    }

    /// The same preset on the other backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

struct UnorderedRun {
    steps_to_silence: u64,
    correct: bool,
    conserved: bool,
}

/// Maps ordinal colors to "opaque" scattered identifiers, so the unordered
/// protocol cannot accidentally benefit from dense numbering.
fn opaquify(inputs: &[Color]) -> Vec<Color> {
    inputs
        .iter()
        .map(|c| Color(c.0.wrapping_mul(257).wrapping_add(13)))
        .collect()
}

fn one_run(n: usize, k: u16, seed: u64, max_steps: u64, backend: Backend) -> UnorderedRun {
    let protocol = UnorderedCircles::new(k);
    let base = shuffled(margin_workload(n, k, (n / 8).max(1)), seed);
    let expected_plain = true_winner(&base, k);
    let inputs = opaquify(&base);
    let expected = opaquify(&[expected_plain])[0];
    let outcome = backend
        .run_to_silence(&protocol, &inputs, seed, max_steps)
        .expect("unordered run failed");
    let population = Population::from_states(outcome.config.to_state_vec());
    let winner = UnorderedCircles::consensus_winner(&population);
    UnorderedRun {
        steps_to_silence: outcome.report.steps_to_silence,
        correct: outcome.stabilized && winner == Some(expected),
        conserved: UnorderedCircles::conservation_holds(&population, k),
    }
}

fn vanilla_mean(n: usize, k: u16, seeds: &[u64], threads: usize, max_steps: u64) -> f64 {
    let inputs = margin_workload(n, k, (n / 8).max(1));
    let protocol = CirclesProtocol::new(k).expect("k >= 1");
    let expected = true_winner(&inputs, k);
    let results = run_seeded(seeds, threads, |seed| {
        let shuffled_inputs = shuffled(inputs.clone(), seed);
        run_trial(
            &protocol,
            &shuffled_inputs,
            UniformPairScheduler::new(),
            trial_rng(0, seed),
            expected,
            max_steps,
        )
        .expect("vanilla trial")
    });
    let times: Vec<f64> = results.iter().map(|r| r.steps_to_silence as f64).collect();
    Summary::from_samples(&times).mean
}

/// Runs E8 and returns the table.
pub fn run(params: &Params) -> Table {
    let mut table = Table::new(
        &format!(
            "E8 — unordered-setting Circles: correctness and overhead ({} backend)",
            params.backend.name()
        ),
        &[
            "k",
            "n",
            "states k³ (ordered)",
            "states O(k⁴) (unordered)",
            "silence mean (unordered)",
            "overhead vs vanilla",
            "correct rate",
            "conservation at end",
        ],
    );
    let seeds = seed_range(params.seeds);
    for &k in &params.ks {
        for &n in &params.ns {
            let runs = run_seeded(&seeds, params.threads, |seed| {
                one_run(n, k, seed, params.max_steps, params.backend)
            });
            let times: Vec<f64> = runs.iter().map(|r| r.steps_to_silence as f64).collect();
            let summary = Summary::from_samples(&times);
            let vanilla = vanilla_mean(n, k, &seeds, params.threads, params.max_steps);
            let correct = runs.iter().filter(|r| r.correct).count();
            let conserved = runs.iter().filter(|r| r.conserved).count();
            let ordered_states = CirclesProtocol::new(k).expect("k").state_complexity();
            let unordered_states = UnorderedCircles::new(k).state_complexity();
            table.push_row(vec![
                k.to_string(),
                n.to_string(),
                ordered_states.to_string(),
                unordered_states.to_string(),
                fmt_f64(summary.mean),
                format!("{:.2}x", summary.mean / vanilla.max(1.0)),
                format!("{:.2}", correct as f64 / runs.len() as f64),
                format!("{}/{}", conserved, runs.len()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unordered_composition_is_correct_at_small_scale_on_both_backends() {
        for backend in Backend::ALL {
            let table = run(&Params::quick().with_backend(backend));
            for row in table.rows() {
                assert_eq!(
                    row[6],
                    "1.00",
                    "unordered circles failed on {}: {row:?}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn state_counts_match_theory() {
        let table = run(&Params::quick());
        for row in table.rows() {
            let k: usize = row[0].parse().unwrap();
            assert_eq!(row[2], (k * k * k).to_string());
            assert_eq!(row[3], (4 * k * k * k * k + k * k).to_string());
        }
    }
}

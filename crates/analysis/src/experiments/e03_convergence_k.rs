//! E3 — convergence versus the number of colors `k` at fixed `n`.
//!
//! Circles' state space grows as `k³`, but how does *time* respond to more
//! colors? More colors mean longer circles to assemble (`⋃ f(G_p)` has
//! arcs spanning more distinct colors) but also fewer agents per color.
//!
//! The grid reaches `k = 50` (125 000 states): a run discovers only the
//! states it visits, with one transition call per unordered pair of them
//! (Circles is symmetric), and each `k` shares one transition table across
//! its seeds and workloads, so later runs materialize table-known pairs
//! with no calls.

use crate::stats::{log_log_slope, Summary};
use crate::table::{fmt_f64, Table};
use crate::trial::{Backend, TrialRunner};
use crate::workloads::{margin_workload, photo_finish_workload, true_winner};
use circles_core::CirclesProtocol;

/// Parameters for E3.
#[derive(Debug, Clone)]
pub struct Params {
    /// Fixed population size.
    pub n: usize,
    /// Color counts to sweep.
    pub ks: Vec<u16>,
    /// Seeds per configuration.
    pub seeds: u64,
    /// Interaction budget per run.
    pub max_steps: u64,
    /// Worker threads.
    pub threads: usize,
    /// Simulation engine running the trials.
    pub backend: Backend,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 1024,
            ks: vec![2, 3, 4, 6, 8, 12, 16, 24, 32, 40, 50],
            seeds: 32,
            max_steps: 2_000_000_000,
            threads: crate::runner::default_threads(),
            backend: Backend::Count,
        }
    }
}

impl Params {
    /// CI-scale preset.
    pub fn quick() -> Self {
        Params {
            n: 48,
            ks: vec![2, 3, 4],
            seeds: 4,
            max_steps: 50_000_000,
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

/// Runs E3 and returns the table.
pub fn run(params: &Params) -> Table {
    let title = format!(
        "E3 — convergence vs k (fixed n, uniform-random scheduler, {} backend)",
        params.backend.name()
    );
    let mut table = Table::new(
        &title,
        &[
            "k",
            "n",
            "workload",
            "seeds",
            "silence mean",
            "consensus mean",
            "consensus p90",
            "correct",
        ],
    );
    // One warm runner per k: the high-k sweeps are exactly where repeated
    // per-seed slot discovery dominates, so both workloads of a k share a
    // transition table through the warm trial path.
    let runner = TrialRunner::new(params.backend)
        .threads(params.threads)
        .max_steps(params.max_steps)
        .seeds(params.seeds);
    let mut scaling_points = Vec::new();
    for &k in &params.ks {
        let protocol = CirclesProtocol::new(k).expect("k >= 1");
        let shared = pp_protocol::TransitionTable::new();
        for (label, inputs) in [
            (
                "margin 10%",
                margin_workload(params.n, k, (params.n / 10).max(1)),
            ),
            ("photo finish", photo_finish_workload(params.n, k)),
        ] {
            let expected = true_winner(&inputs, k);
            let results = match params.backend {
                Backend::Count => runner.run_with_table(&protocol, &inputs, expected, &shared),
                Backend::Indexed => runner.run(&protocol, &inputs, expected),
            };
            let consensuses: Vec<f64> = results
                .iter()
                .map(|r| r.steps_to_consensus as f64)
                .collect();
            let silences: Vec<f64> = results.iter().map(|r| r.steps_to_silence as f64).collect();
            let correct_rate =
                results.iter().filter(|r| r.correct).count() as f64 / results.len() as f64;
            let consensus = Summary::from_samples(&consensuses);
            let silence = Summary::from_samples(&silences);
            if label == "margin 10%" {
                scaling_points.push((f64::from(k), consensus.mean.max(1.0)));
            }
            table.push_row(vec![
                k.to_string(),
                params.n.to_string(),
                label.to_string(),
                params.seeds.to_string(),
                fmt_f64(silence.mean),
                fmt_f64(consensus.mean),
                fmt_f64(consensus.p90),
                format!("{correct_rate:.2}"),
            ]);
        }
    }
    if scaling_points.len() >= 2 {
        let slope = log_log_slope(&scaling_points);
        table.push_row(vec![
            "slope".to_string(),
            "-".to_string(),
            "margin 10%".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("k^{slope:.2}"),
            "-".to_string(),
            "-".to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_correct_and_shaped() {
        let p = Params::quick();
        let table = run(&p);
        // Two workloads per k plus one slope row.
        assert_eq!(table.len(), 2 * p.ks.len() + 1);
        for row in table.rows() {
            if row[0] != "slope" {
                assert_eq!(row[7], "1.00");
            }
        }
    }

    #[test]
    fn indexed_backend_is_correct_too() {
        let p = Params::quick().with_backend(Backend::Indexed);
        let table = run(&p);
        assert_eq!(table.len(), 2 * p.ks.len() + 1);
        for row in table.rows() {
            if row[0] != "slope" {
                assert_eq!(row[7], "1.00");
            }
        }
        assert!(table.title().contains("indexed"));
    }
}

//! E16 — the binary-majority protocol landscape: states vs accuracy vs
//! speed.
//!
//! Paper anchor: §1 motivates Circles by state complexity (`k³` against the
//! `Ω(k²)` lower bound for *always-correct* plurality). At `k = 2` the
//! landscape is classical and sharp: the 3-state approximate-majority
//! protocol sits **below** the always-correct bound and pays for it with
//! real errors at small margins; the 4-state exact automaton and Circles
//! (`2³ = 8` states) are always correct at every margin; undecided-state
//! dynamics and pairwise cancellation fill in the middle. This experiment
//! sweeps the winner's margin at fixed `n` and reports accuracy and
//! convergence speed for all five — the trade-off the paper's contribution
//! lives on.

use circles_core::{CirclesProtocol, Color};
use pp_baselines::{
    ApproximateMajority, CancellationPlurality, FourStateMajority, UndecidedDynamics,
};
use pp_protocol::{EnumerableProtocol, Protocol};

use crate::plot::LinePlot;
use crate::runner::{run_seeded, seed_range};
use crate::stats::Summary;
use crate::table::{fmt_f64, Table};
use crate::trial::{Backend, TrialResult};
use crate::workloads::{margin_workload, true_winner};

/// Parameters for E16.
#[derive(Debug, Clone)]
pub struct Params {
    /// Population size.
    pub n: usize,
    /// Winner margins (in agents) to sweep.
    pub margins: Vec<usize>,
    /// Seeds per (protocol, margin) cell.
    pub seeds: u64,
    /// Interaction budget per run.
    pub max_steps: u64,
    /// Worker threads.
    pub threads: usize,
    /// Simulation engine running every contender's trials.
    pub backend: Backend,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n: 256,
            margins: vec![1, 2, 4, 8, 16, 32, 64],
            seeds: 64,
            max_steps: 200_000_000,
            threads: crate::runner::default_threads(),
            backend: Backend::Count,
        }
    }
}

impl Params {
    /// CI-scale preset.
    pub fn quick() -> Self {
        Params {
            n: 64,
            margins: vec![2, 16],
            seeds: 12,
            max_steps: 20_000_000,
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

/// A boxed trial closure: `(inputs, seed, expected, max_steps) → result`.
type TrialFn = Box<dyn Fn(&[Color], u64, Color, u64) -> TrialResult + Sync>;

/// One protocol entry of the landscape.
struct Contender {
    name: &'static str,
    states: usize,
    run: TrialFn,
}

fn contenders(backend: Backend) -> Vec<Contender> {
    fn runner<P>(protocol: P, backend: Backend) -> TrialFn
    where
        P: Protocol<Input = Color, Output = Color> + Sync + 'static,
        P::State: Send + Sync,
    {
        Box::new(move |inputs, seed, expected, max_steps| {
            backend
                .trial(&protocol, inputs, 0, seed, expected, max_steps)
                .expect("trial failed")
        })
    }
    let circles = CirclesProtocol::new(2).expect("k = 2");
    let usd = UndecidedDynamics::new(2);
    let cancel = CancellationPlurality::new(2);
    vec![
        Contender {
            name: "circles (k=2)",
            states: circles.state_complexity(),
            run: runner(circles, backend),
        },
        Contender {
            name: "four-state exact",
            states: FourStateMajority::new().state_complexity(),
            run: runner(FourStateMajority::new(), backend),
        },
        Contender {
            name: "approximate (3-state)",
            states: ApproximateMajority::new().state_complexity(),
            run: runner(ApproximateMajority::new(), backend),
        },
        Contender {
            name: "undecided-state",
            states: usd.state_complexity(),
            run: runner(usd, backend),
        },
        Contender {
            name: "cancellation",
            states: cancel.state_complexity(),
            run: runner(cancel, backend),
        },
    ]
}

/// Runs E16 and returns the table plus the accuracy-vs-margin figure.
pub fn run_with_figures(params: &Params) -> (Table, Vec<(String, LinePlot)>) {
    let mut table = Table::new(
        "E16 — binary majority landscape (accuracy and speed vs margin)",
        &[
            "protocol",
            "states",
            "margin",
            "seeds",
            "correct",
            "silence steps mean",
            "parallel time",
        ],
    );
    let mut figure = LinePlot::new("E16: accuracy vs winner margin (k=2)")
        .axis_labels("margin (agents)", "fraction of correct runs")
        .log_x();

    for contender in contenders(params.backend) {
        let mut accuracy_points = Vec::new();
        for &margin in &params.margins {
            let inputs = margin_workload(params.n, 2, margin);
            let n = inputs.len();
            let expected = true_winner(&inputs, 2);
            let results = run_seeded(&seed_range(params.seeds), params.threads, |seed| {
                (contender.run)(&inputs, seed, expected, params.max_steps)
            });
            let correct =
                results.iter().filter(|r| r.correct).count() as f64 / results.len() as f64;
            let silences: Vec<f64> = results.iter().map(|r| r.steps_to_silence as f64).collect();
            let silence = Summary::from_samples(&silences);
            accuracy_points.push((margin as f64, correct));
            table.push_row(vec![
                contender.name.to_string(),
                contender.states.to_string(),
                margin.to_string(),
                params.seeds.to_string(),
                format!("{correct:.3}"),
                fmt_f64(silence.mean),
                fmt_f64(silence.mean / n as f64),
            ]);
        }
        figure = figure.with_series(contender.name, accuracy_points);
    }
    (table, vec![("e16_accuracy".to_string(), figure)])
}

/// Runs E16 and returns the table.
pub fn run(params: &Params) -> Table {
    run_with_figures(params).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_correct_protocols_never_err() {
        let (table, figures) = run_with_figures(&Params::quick());
        for row in table.rows() {
            let name = row[0].as_str();
            if name.starts_with("circles")
                || name.starts_with("four-state")
                || name.starts_with("cancellation")
            {
                assert_eq!(row[4], "1.000", "always-correct protocol erred: {row:?}");
            }
        }
        assert_eq!(figures.len(), 1);
    }

    #[test]
    fn approximate_majority_uses_fewest_states() {
        let table = run(&Params::quick());
        let states: Vec<usize> = table.rows().iter().map(|r| r[1].parse().unwrap()).collect();
        let min = *states.iter().min().unwrap();
        assert_eq!(min, 3);
        // Circles pays 8 = 2³ states at k = 2.
        assert!(states.contains(&8));
    }

    #[test]
    fn covers_all_protocol_margin_cells() {
        let p = Params::quick();
        let table = run(&p);
        assert_eq!(table.len(), 5 * p.margins.len());
    }

    #[test]
    fn indexed_backend_agrees_on_always_correct_contenders() {
        let mut p = Params::quick().with_backend(Backend::Indexed);
        // A single margin keeps the indexed sweep CI-cheap.
        p.margins = vec![16];
        p.seeds = 6;
        let table = run(&p);
        for row in table.rows() {
            let name = row[0].as_str();
            if name.starts_with("circles") || name.starts_with("four-state") {
                assert_eq!(row[4], "1.000", "always-correct contender erred: {row:?}");
            }
        }
    }
}

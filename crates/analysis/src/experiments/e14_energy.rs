//! E14 — energy descent in continuous time, with its closed-form floor.
//!
//! Paper anchor: the "minimizing energy" framing. Reading each bra-ket's
//! weight as bond energy, the initial all-self-loop configuration carries
//! energy `k` per agent, and the predicted terminal configuration
//! (Lemma 3.6) carries exactly `k·c_max/n` per agent — because every greedy
//! set's circle `f(G_p)` has total arc weight exactly `k` (the arcs of a
//! circle over `Z_k` wrap once), and there are `q = c_max` circles. The
//! experiment tracks per-agent energy along count-engine runs of the exact
//! uniform-pair chain (sampled in parallel time, `n` interactions per unit)
//! and along the mean-field ODE, and checks both settle on that floor.
//! Total energy is *not* the protocol's Lyapunov function (the
//! lexicographic potential is); transient upticks along sample paths are
//! expected and recorded.

use circles_core::{weight, CirclesProtocol, CirclesState, Color};
use pp_crn::{count_density_trajectory, ode_density_trajectory, ReactionNetwork};
use pp_protocol::{CountConfig, Protocol};

use crate::experiments::e13_meanfield::profile_counts;
use crate::plot::LinePlot;
use crate::runner::{run_seeded, seed_range};
use crate::stats::Summary;
use crate::table::{fmt_f64, Table};

/// Parameters for E14.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of colors.
    pub k: u16,
    /// Initial density profile (normalized internally).
    pub profile: Vec<f64>,
    /// Population sizes for the stochastic runs.
    pub ns: Vec<usize>,
    /// Stochastic runs per population size.
    pub seeds: u64,
    /// Horizon in parallel-time units.
    pub t_end: f64,
    /// Grid spacing.
    pub dt_grid: f64,
    /// ODE integration step.
    pub dt_ode: f64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            k: 4,
            profile: vec![0.4, 0.3, 0.2, 0.1],
            ns: vec![256, 4096],
            seeds: 8,
            t_end: 12.0,
            dt_grid: 0.5,
            dt_ode: 0.01,
            threads: crate::runner::default_threads(),
        }
    }
}

impl Params {
    /// CI-scale preset.
    pub fn quick() -> Self {
        Params {
            k: 3,
            profile: vec![0.5, 0.3, 0.2],
            ns: vec![128],
            seeds: 3,
            t_end: 8.0,
            dt_grid: 1.0,
            dt_ode: 0.02,
            threads: 2,
        }
    }
}

fn grid(t_end: f64, dt: f64) -> Vec<f64> {
    let steps = (t_end / dt).round() as usize;
    (0..=steps).map(|i| i as f64 * dt).collect()
}

/// Per-agent energy of a density row.
fn energy_of_row(network: &ReactionNetwork<CirclesState>, k: u16, row: &[f64]) -> f64 {
    network
        .species()
        .iter()
        .map(|(id, s)| f64::from(weight(k, s.braket)) * row[id as usize])
        .sum()
}

/// Runs E14 and returns the table plus the energy-descent figure.
pub fn run_with_figures(params: &Params) -> (Table, Vec<(String, LinePlot)>) {
    let protocol = CirclesProtocol::new(params.k).expect("k >= 1");
    let support: Vec<CirclesState> = (0..params.k).map(|i| protocol.input(&Color(i))).collect();
    let network =
        ReactionNetwork::from_protocol(&protocol, &support, 1_000_000).expect("closure fits");
    let times = grid(params.t_end, params.dt_grid);

    // Closed-form terminal energy per agent: k · p_max (q = c_max circles of
    // total weight k each).
    let total: f64 = params.profile.iter().sum();
    let p_max = params.profile.iter().fold(0.0f64, |m, &p| m.max(p / total));
    let floor = f64::from(params.k) * p_max;

    let mut table = Table::new(
        "E14 — per-agent energy over parallel time (floor = k·p_max)",
        &[
            "series",
            "n",
            "initial",
            "final",
            "max uptick",
            "floor",
            "final/floor",
        ],
    );
    let mut figure = LinePlot::new("E14: energy descent, count engine vs mean-field")
        .axis_labels("parallel time", "energy per agent");

    // Mean-field trajectory.
    {
        let x0: Vec<f64> = {
            let counts = profile_counts(1_000_000, &params.profile);
            let mut initial = CountConfig::new();
            for (i, &c) in counts.iter().enumerate() {
                initial.insert(support[i], c);
            }
            network.densities(&network.counts_from_config(&initial).expect("known species"))
        };
        let ode = ode_density_trajectory(&network, x0, &times, params.dt_ode).expect("valid grid");
        let energies: Vec<f64> = ode
            .rows
            .iter()
            .map(|row| energy_of_row(&network, params.k, row))
            .collect();
        let uptick = max_uptick(&energies);
        let last = *energies.last().expect("nonempty grid");
        table.push_row(vec![
            "mean-field ODE".to_string(),
            "∞".to_string(),
            fmt_f64(energies[0]),
            fmt_f64(last),
            fmt_f64(uptick),
            fmt_f64(floor),
            fmt_f64(last / floor),
        ]);
        figure = figure.with_series(
            "mean-field ODE",
            times.iter().copied().zip(energies).collect(),
        );
    }

    // Stochastic trajectories.
    for &n in &params.ns {
        let counts = profile_counts(n, &params.profile);
        let mut initial = CountConfig::new();
        for (i, &c) in counts.iter().enumerate() {
            initial.insert(support[i], c);
        }
        let energy_rows = run_seeded(&seed_range(params.seeds), params.threads, |seed| {
            count_density_trajectory(&network, &protocol, &initial, seed, &times)
                .expect("valid instance and grid")
                .rows
                .iter()
                .map(|row| energy_of_row(&network, params.k, row))
                .collect::<Vec<f64>>()
        });
        // Per-grid-point mean across seeds.
        let mean_curve: Vec<f64> = (0..times.len())
            .map(|i| {
                Summary::from_samples(&energy_rows.iter().map(|e| e[i]).collect::<Vec<f64>>()).mean
            })
            .collect();
        let mean_uptick = Summary::from_samples(
            &energy_rows
                .iter()
                .map(|e| max_uptick(e))
                .collect::<Vec<f64>>(),
        )
        .mean;
        let last = *mean_curve.last().expect("nonempty grid");
        table.push_row(vec![
            "count-engine".to_string(),
            n.to_string(),
            fmt_f64(mean_curve[0]),
            fmt_f64(last),
            fmt_f64(mean_uptick),
            fmt_f64(floor),
            fmt_f64(last / floor),
        ]);
        figure = figure.with_series(
            format!("count-engine n={n}"),
            times.iter().copied().zip(mean_curve).collect(),
        );
    }

    (table, vec![("e14_energy".to_string(), figure)])
}

/// Largest single-interval increase along a curve (0 for monotone descent).
fn max_uptick(curve: &[f64]) -> f64 {
    curve
        .windows(2)
        .map(|w| (w[1] - w[0]).max(0.0))
        .fold(0.0, f64::max)
}

/// Runs E14 and returns the table.
pub fn run(params: &Params) -> Table {
    run_with_figures(params).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uptick_of_monotone_descent_is_zero() {
        assert_eq!(max_uptick(&[4.0, 3.0, 2.0, 2.0]), 0.0);
        assert_eq!(max_uptick(&[4.0, 3.0, 3.5, 2.0]), 0.5);
    }

    #[test]
    fn energy_settles_on_the_closed_form_floor() {
        let (table, figures) = run_with_figures(&Params::quick());
        // k = 3, p_max = 0.5 ⇒ floor = 1.5; initial = k = 3.
        for row in table.rows() {
            let initial: f64 = row[2].parse().unwrap();
            let ratio: f64 = row[6].parse().unwrap();
            assert!(
                (initial - 3.0).abs() < 0.05,
                "initial energy must be ~k: {row:?}"
            );
            assert!(
                (ratio - 1.0).abs() < 0.1,
                "final energy must sit on the floor: {row:?}"
            );
        }
        assert_eq!(figures.len(), 1);
    }
}

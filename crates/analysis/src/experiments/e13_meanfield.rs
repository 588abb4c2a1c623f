//! E13 — the chemical reading: stochastic Circles converges to its
//! mean-field ODE as `n` grows (Kurtz's theorem).
//!
//! Paper anchor: the title and §1 credit the design to "energy minimization
//! in chemical settings". The chemical object behind that phrase is the
//! reaction network whose species are Circles states; this experiment
//! samples the exact uniform-pair chain with the count engine
//! ([`count_density_trajectory`]) against the network's law-of-mass-action
//! fluid limit and measures the sup-norm density gap on a fixed time grid.
//! Time is parallel time (`n` interactions per unit), so the sweep reaches
//! `n = 10^8`. The gap must shrink like `n^{-1/2}` — the fingerprint that
//! the sampler and the ODE implement the *same* dynamics.

use circles_core::{CirclesProtocol, CirclesState, Color};
use pp_crn::{count_density_trajectory, ode_density_trajectory, ReactionNetwork};
use pp_protocol::{CountConfig, Protocol};

use crate::plot::LinePlot;
use crate::runner::{run_seeded, seed_range};
use crate::stats::{log_log_slope, Summary};
use crate::table::{fmt_f64, Table};

/// Parameters for E13.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of colors.
    pub k: u16,
    /// Initial density profile (one weight per color; normalized
    /// internally).
    pub profile: Vec<f64>,
    /// Population sizes to sweep.
    pub ns: Vec<usize>,
    /// Stochastic runs per population size.
    pub seeds: u64,
    /// Sampling horizon in parallel-time units.
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
            k: 3,
            profile: vec![0.5, 0.3, 0.2],
            ns: vec![64, 256, 1024, 4096, 1_000_000, 10_000_000, 100_000_000],
            seeds: 8,
            t_end: 8.0,
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
            k: 2,
            profile: vec![0.65, 0.35],
            ns: vec![32, 256],
            seeds: 3,
            t_end: 4.0,
            dt_grid: 1.0,
            dt_ode: 0.02,
            threads: 2,
        }
    }
}

/// The grid `0, dt, 2·dt, …, t_end`.
fn grid(t_end: f64, dt: f64) -> Vec<f64> {
    let steps = (t_end / dt).round() as usize;
    (0..=steps).map(|i| i as f64 * dt).collect()
}

/// Integer counts for `n` agents matching `profile` (largest-remainder
/// rounding; exact sum). Shared with E14.
pub(crate) fn profile_counts(n: usize, profile: &[f64]) -> Vec<usize> {
    let total: f64 = profile.iter().sum();
    let mut counts: Vec<usize> = profile
        .iter()
        .map(|p| (p / total * n as f64).floor() as usize)
        .collect();
    let mut remainders: Vec<(usize, f64)> = profile
        .iter()
        .enumerate()
        .map(|(i, p)| (i, p / total * n as f64 - counts[i] as f64))
        .collect();
    remainders.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite remainders"));
    let mut missing = n - counts.iter().sum::<usize>();
    for (i, _) in remainders {
        if missing == 0 {
            break;
        }
        counts[i] += 1;
        missing -= 1;
    }
    counts
}

/// Runs E13 and returns the table plus figures.
pub fn run_with_figures(params: &Params) -> (Table, Vec<(String, LinePlot)>) {
    let protocol = CirclesProtocol::new(params.k).expect("k >= 1");
    let support: Vec<CirclesState> = (0..params.k).map(|i| protocol.input(&Color(i))).collect();
    let network =
        ReactionNetwork::from_protocol(&protocol, &support, 1_000_000).expect("closure fits");
    let times = grid(params.t_end, params.dt_grid);

    let mut table = Table::new(
        "E13 — Kurtz convergence: count-engine density gap to the mean-field ODE",
        &[
            "n",
            "seeds",
            "sup-dist mean",
            "sup-dist std",
            "sqrt(n)·mean",
            "species",
            "reactions",
        ],
    );

    let mut gap_points = Vec::new();
    let mut selfloop_series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    let selfloop_density = |network: &ReactionNetwork<CirclesState>, row: &[f64]| -> f64 {
        network
            .species()
            .iter()
            .map(|(id, s)| f64::from(s.braket.is_self_loop()) * row[id as usize])
            .sum()
    };

    for &n in &params.ns {
        let counts = profile_counts(n, &params.profile);
        let mut initial = CountConfig::new();
        for (i, &c) in counts.iter().enumerate() {
            initial.insert(support[i], c);
        }
        let x0 = network.densities(&network.counts_from_config(&initial).expect("known species"));
        let ode = ode_density_trajectory(&network, x0, &times, params.dt_ode).expect("valid grid");

        let trajectories = run_seeded(&seed_range(params.seeds), params.threads, |seed| {
            count_density_trajectory(&network, &protocol, &initial, seed, &times)
                .expect("valid instance and grid")
        });
        let gaps: Vec<f64> = trajectories.iter().map(|t| t.sup_distance(&ode)).collect();
        let summary = Summary::from_samples(&gaps);
        gap_points.push((n as f64, summary.mean));
        table.push_row(vec![
            n.to_string(),
            params.seeds.to_string(),
            // Significant digits: at n = 10^8 the gap is ~10^-5.
            format!("{:.3e}", summary.mean),
            format!("{:.3e}", summary.std),
            fmt_f64(summary.mean * (n as f64).sqrt()),
            network.species_count().to_string(),
            network.reaction_count().to_string(),
        ]);

        // Self-loop density series for the smallest and largest n.
        if n == *params.ns.first().expect("ns nonempty")
            || n == *params.ns.last().expect("ns nonempty")
        {
            let series: Vec<(f64, f64)> = times
                .iter()
                .zip(&trajectories[0].rows)
                .map(|(&t, row)| (t, selfloop_density(&network, row)))
                .collect();
            selfloop_series.push((format!("count-engine n={n}"), series));
        }
        if n == *params.ns.last().expect("ns nonempty") {
            let series: Vec<(f64, f64)> = times
                .iter()
                .zip(&ode.rows)
                .map(|(&t, row)| (t, selfloop_density(&network, row)))
                .collect();
            selfloop_series.push(("mean-field ODE".to_string(), series));
        }
    }

    if gap_points.len() >= 2 {
        let slope = log_log_slope(&gap_points);
        table.push_row(vec![
            "slope".to_string(),
            "-".to_string(),
            format!("n^{slope:.2}"),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ]);
    }

    let mut gap_plot = LinePlot::new("E13: count engine vs mean-field sup-distance")
        .axis_labels("n", "sup-norm density gap")
        .log_x()
        .log_y()
        .with_series("measured", gap_points.clone());
    if let Some(&(n0, g0)) = gap_points.first() {
        let reference: Vec<(f64, f64)> = gap_points
            .iter()
            .map(|&(n, _)| (n, g0 * (n0 / n).sqrt()))
            .collect();
        gap_plot = gap_plot.with_series("c/sqrt(n)", reference);
    }

    let mut traj_plot = LinePlot::new("E13: self-loop density, count engine vs ODE")
        .axis_labels("parallel time", "self-loop density");
    for (label, series) in selfloop_series {
        traj_plot = traj_plot.with_series(label, series);
    }

    (
        table,
        vec![
            ("e13_supdist".to_string(), gap_plot),
            ("e13_trajectories".to_string(), traj_plot),
        ],
    )
}

/// Runs E13 and returns the table.
pub fn run(params: &Params) -> Table {
    run_with_figures(params).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_counts_sum_and_round() {
        assert_eq!(profile_counts(10, &[0.5, 0.3, 0.2]), vec![5, 3, 2]);
        assert_eq!(profile_counts(7, &[0.5, 0.5]).iter().sum::<usize>(), 7);
        assert_eq!(profile_counts(5, &[1.0, 1.0, 1.0]).iter().sum::<usize>(), 5);
    }

    #[test]
    fn grid_includes_endpoints() {
        let g = grid(4.0, 1.0);
        assert_eq!(g, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn count_sampler_tracks_the_ode_at_large_n() {
        // One count-engine trajectory at n = 200k must track the ODE to ~1%.
        let params = Params::quick();
        let protocol = CirclesProtocol::new(params.k).expect("k >= 1");
        let support: Vec<CirclesState> = (0..params.k).map(|i| protocol.input(&Color(i))).collect();
        let network =
            ReactionNetwork::from_protocol(&protocol, &support, 1_000_000).expect("closure fits");
        let times = grid(params.t_end, params.dt_grid);
        let n = 200_000;
        let counts = profile_counts(n, &params.profile);
        let mut initial = CountConfig::new();
        for (i, &c) in counts.iter().enumerate() {
            initial.insert(support[i], c);
        }
        let traj = count_density_trajectory(&network, &protocol, &initial, 3, &times).unwrap();
        let x0 = network.densities(&network.counts_from_config(&initial).expect("known species"));
        let ode = ode_density_trajectory(&network, x0, &times, params.dt_ode).expect("valid grid");
        let gap = traj.sup_distance(&ode);
        assert!(
            gap < 0.01,
            "count trajectory strays {gap} from the ODE at n = {n}"
        );
        assert!(
            (traj.rows[0].iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "densities must normalize"
        );
    }

    #[test]
    fn gap_shrinks_with_n() {
        let (table, figures) = run_with_figures(&Params::quick());
        // Two n rows + slope row.
        assert_eq!(table.len(), 3);
        let small: f64 = table.rows()[0][2].parse().unwrap();
        let large: f64 = table.rows()[1][2].parse().unwrap();
        assert!(
            large < small,
            "gap must shrink with n: {small} (n=32) vs {large} (n=256)"
        );
        assert_eq!(figures.len(), 2);
        assert!(figures[0].1.to_svg().contains("sup-norm"));
    }
}

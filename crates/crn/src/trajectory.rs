//! Grid-sampled density trajectories for comparing the stochastic and
//! mean-field views of a network (experiment E13/E14 substrate).
//!
//! Both views share one clock: *parallel time*, one unit per `n`
//! interactions. The stochastic side samples the discrete uniform-pair
//! chain with [`CountEngine`] and reads grid time `t` as `round(t·n)`
//! interactions. The continuous-time reading (a Poisson clock per agent
//! pair) has the same mean clock and differs from it only by `O(1/√n)`
//! fluctuations, which vanish in the same limit the ODE describes.

use std::fmt::Debug;
use std::hash::Hash;

use pp_protocol::{CountConfig, CountEngine, Protocol};

use crate::error::CrnError;
use crate::network::ReactionNetwork;
use crate::ode::MeanField;

/// Species densities sampled on a fixed time grid.
///
/// `rows[i]` holds the full density vector (one entry per species, indexed
/// by [`SpeciesId`](crate::network::SpeciesId)) at `times[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityTrajectory {
    /// The sampling grid, in parallel-time units.
    pub times: Vec<f64>,
    /// One density vector per grid point.
    pub rows: Vec<Vec<f64>>,
}

impl DensityTrajectory {
    /// Largest absolute per-species density difference against `other`,
    /// over all grid points (the sup-norm distance used to measure Kurtz
    /// convergence in E13).
    ///
    /// # Panics
    ///
    /// Panics when the two trajectories have different shapes.
    pub fn sup_distance(&self, other: &DensityTrajectory) -> f64 {
        assert_eq!(self.times.len(), other.times.len(), "grid length mismatch");
        let mut worst = 0.0f64;
        for (a, b) in self.rows.iter().zip(&other.rows) {
            assert_eq!(a.len(), b.len(), "species count mismatch");
            for (x, y) in a.iter().zip(b) {
                worst = worst.max((x - y).abs());
            }
        }
        worst
    }

    /// Extracts one species' density series.
    pub fn series(&self, species: usize) -> Vec<f64> {
        self.rows.iter().map(|row| row[species]).collect()
    }
}

/// Samples one count-engine run of `protocol` from `initial` at the given
/// non-decreasing `times` (parallel-time units).
///
/// The row at grid time `t` is the configuration after exactly
/// `round(t · n)` interactions ([`CountEngine::advance_to`]), read off as
/// densities through `network`'s species map. A run that goes silent early
/// repeats its terminal densities: silence is absorbing and detected
/// exactly, so no interaction budget is needed at any `n`.
///
/// # Errors
///
/// Returns [`CrnError::BadIntegrationParameter`] when `times` is not
/// non-decreasing or not finite, [`CrnError::EmptyPopulation`] when
/// `initial` is empty, [`CrnError::PopulationTooSmall`] when it holds fewer
/// than two agents, and [`CrnError::UnknownSpecies`] when `initial` or the
/// run reaches a state outside `network`'s species (a network built for
/// another protocol or instance).
pub fn count_density_trajectory<P: Protocol>(
    network: &ReactionNetwork<P::State>,
    protocol: &P,
    initial: &CountConfig<P::State>,
    seed: u64,
    times: &[f64],
) -> Result<DensityTrajectory, CrnError> {
    validate_grid(times)?;
    network.counts_from_config(initial)?;
    let n = initial.n();
    if n < 2 {
        return Err(CrnError::PopulationTooSmall { n });
    }
    let mut engine = CountEngine::from_config(protocol, initial.clone(), seed);
    let mut rows = Vec::with_capacity(times.len());
    for &t in times {
        engine
            .advance_to((t * n as f64).round() as u64)
            .expect("population has at least two agents");
        // A network built for another protocol or instance can miss a
        // reachable state; that is an `UnknownSpecies` error, not a panic.
        let counts = network.counts_from_config(&engine.config())?;
        rows.push(network.densities(&counts));
    }
    Ok(DensityTrajectory {
        times: times.to_vec(),
        rows,
    })
}

/// Integrates the mean-field ODE and samples it at the given `times`.
///
/// # Errors
///
/// Returns [`CrnError::BadIntegrationParameter`] for a bad grid or step.
pub fn ode_density_trajectory<S>(
    network: &ReactionNetwork<S>,
    x0: Vec<f64>,
    times: &[f64],
    dt: f64,
) -> Result<DensityTrajectory, CrnError>
where
    S: Clone + Eq + Hash + Debug,
{
    validate_grid(times)?;
    let field = MeanField::new(network);
    let t_end = times.last().copied().unwrap_or(0.0);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(times.len());
    let mut next = 0usize;
    let mut last: Option<Vec<f64>> = None;
    field.integrate(x0, t_end, dt, |t, x| {
        while next < times.len() && times[next] <= t + 1e-12 {
            rows.push(x.to_vec());
            next += 1;
        }
        last = Some(x.to_vec());
    })?;
    // Fill any trailing grid points (t_end rounding).
    while rows.len() < times.len() {
        rows.push(last.clone().expect("integrate observed at least t = 0"));
    }
    Ok(DensityTrajectory {
        times: times.to_vec(),
        rows,
    })
}

fn validate_grid(times: &[f64]) -> Result<(), CrnError> {
    let monotone = times.windows(2).all(|w| w[0] <= w[1]);
    let finite = times.iter().all(|t| t.is_finite() && *t >= 0.0);
    if monotone && finite {
        Ok(())
    } else {
        Err(CrnError::BadIntegrationParameter { name: "times" })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use circles_core::{CirclesProtocol, CirclesState, Color};
    use pp_protocol::Protocol;

    struct Epidemic;
    impl pp_protocol::Protocol for Epidemic {
        type State = bool;
        type Input = bool;
        type Output = bool;
        fn name(&self) -> &str {
            "epidemic"
        }
        fn input(&self, i: &bool) -> bool {
            *i
        }
        fn output(&self, s: &bool) -> bool {
            *s
        }
        fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
            let t = *a || *b;
            (t, t)
        }
    }

    fn epidemic_network() -> ReactionNetwork<bool> {
        ReactionNetwork::from_protocol(&Epidemic, &[true, false], 10).unwrap()
    }

    #[test]
    fn count_trajectory_is_monotone_for_epidemic() {
        let network = epidemic_network();
        let informed = network.species().id(&true).unwrap() as usize;
        let initial: CountConfig<bool> = std::iter::once(true)
            .chain(std::iter::repeat_n(false, 127))
            .collect();
        let times: Vec<f64> = (0..=20).map(|i| i as f64 * 0.5).collect();
        let traj = count_density_trajectory(&network, &Epidemic, &initial, 2, &times).unwrap();
        assert_eq!(traj.rows.len(), times.len());
        let series = traj.series(informed);
        assert!(
            series.windows(2).all(|w| w[0] <= w[1] + 1e-12),
            "not monotone: {series:?}"
        );
        assert!(
            (series[0] - 1.0 / 128.0).abs() < 1e-9,
            "t=0 must be the initial density"
        );
        assert!(
            *series.last().unwrap() > 0.99,
            "epidemic must finish by t = 10"
        );
    }

    #[test]
    fn count_trajectory_fills_after_silence() {
        let network = epidemic_network();
        let initial: CountConfig<bool> = [true, false, false, false].into_iter().collect();
        // Grid extends far past completion.
        let times = [0.0, 50.0, 100.0];
        let traj = count_density_trajectory(&network, &Epidemic, &initial, 3, &times).unwrap();
        let informed = network.species().id(&true).unwrap() as usize;
        assert_eq!(traj.rows[1][informed], 1.0);
        assert_eq!(traj.rows[2][informed], 1.0);
    }

    #[test]
    fn ode_trajectory_matches_direct_integration() {
        let network = epidemic_network();
        let informed = network.species().id(&true).unwrap() as usize;
        let mut x0 = vec![0.0; 2];
        x0[informed] = 0.1;
        x0[1 - informed] = 0.9;
        let times = [0.0, 1.0, 2.0];
        let traj = ode_density_trajectory(&network, x0, &times, 0.01).unwrap();
        assert_eq!(traj.rows.len(), 3);
        for (i, &t) in times.iter().enumerate() {
            let e = (2.0 * t).exp();
            let exact = 0.1 * e / (0.9 + 0.1 * e);
            assert!(
                (traj.rows[i][informed] - exact).abs() < 1e-4,
                "t={t}: {} vs {exact}",
                traj.rows[i][informed]
            );
        }
    }

    #[test]
    fn count_and_ode_agree_for_large_n_circles() {
        // A smoke-scale Kurtz check: n = 4096 should track the ODE to a few
        // percent in sup norm on a short horizon (full sweep is E13).
        let protocol = CirclesProtocol::new(2).unwrap();
        let support: Vec<_> = (0..2).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000).unwrap();
        let n = 4096usize;
        let heavy = (n as f64 * 0.65) as usize;
        let mut initial = CountConfig::new();
        initial.insert(support[0], heavy);
        initial.insert(support[1], n - heavy);
        let times: Vec<f64> = (0..=10).map(|i| i as f64 * 0.4).collect();
        let count = count_density_trajectory(&network, &protocol, &initial, 9, &times).unwrap();
        let x0 = network.densities(&network.counts_from_config(&initial).unwrap());
        let ode = ode_density_trajectory(&network, x0, &times, 0.01).unwrap();
        let d = count.sup_distance(&ode);
        assert!(d < 0.06, "sup distance {d} too large for n = 4096");
    }

    #[test]
    fn bad_grid_is_rejected() {
        let network = epidemic_network();
        let initial: CountConfig<bool> = [true, false].into_iter().collect();
        let err =
            count_density_trajectory(&network, &Epidemic, &initial, 1, &[1.0, 0.5]).unwrap_err();
        assert_eq!(err, CrnError::BadIntegrationParameter { name: "times" });
        let err2 = ode_density_trajectory(&network, vec![0.5, 0.5], &[f64::NAN], 0.1).unwrap_err();
        assert_eq!(err2, CrnError::BadIntegrationParameter { name: "times" });
    }

    #[test]
    fn population_of_one_is_rejected() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let support: Vec<_> = (0..3).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000).unwrap();
        let single: CountConfig<CirclesState> =
            [CirclesState::initial(Color(0))].into_iter().collect();
        assert_eq!(
            count_density_trajectory(&network, &protocol, &single, 1, &[0.0]).unwrap_err(),
            CrnError::PopulationTooSmall { n: 1 }
        );
    }

    /// Every interaction moves the responder up one level, to at most `.0`.
    struct Climb(u8);
    impl pp_protocol::Protocol for Climb {
        type State = u8;
        type Input = u8;
        type Output = u8;
        fn name(&self) -> &str {
            "climb"
        }
        fn input(&self, i: &u8) -> u8 {
            *i
        }
        fn output(&self, s: &u8) -> u8 {
            *s
        }
        fn transition(&self, a: &u8, b: &u8) -> (u8, u8) {
            (*a, (*b + 1).min(self.0))
        }
    }

    #[test]
    fn a_network_for_another_protocol_is_a_typed_error() {
        // `Climb(0)`'s network has the single species 0; `Climb(3)` leaves
        // it with its first interaction.
        let network = ReactionNetwork::from_protocol(&Climb(0), &[0u8], 10).unwrap();
        let initial: CountConfig<u8> = [0u8, 0].into_iter().collect();
        assert_eq!(
            count_density_trajectory(&network, &Climb(3), &initial, 1, &[0.0, 1.0]).unwrap_err(),
            CrnError::UnknownSpecies {
                state: "1".to_string()
            }
        );
    }

    #[test]
    fn states_outside_the_closure_are_rejected() {
        let network = ReactionNetwork::from_protocol(&Epidemic, &[false], 10).unwrap();
        let initial: CountConfig<bool> = [true, false].into_iter().collect();
        assert!(matches!(
            count_density_trajectory(&network, &Epidemic, &initial, 1, &[0.0]),
            Err(CrnError::UnknownSpecies { .. })
        ));
    }
}

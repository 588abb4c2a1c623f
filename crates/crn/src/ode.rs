//! Mean-field (large-`n` limit) dynamics of a reaction network.
//!
//! As `n → ∞` with time measured in parallel units (`n` interactions per
//! unit), the empirical species densities `x_s = N_s / n` of a population
//! protocol under the uniform-random scheduler converge (Kurtz's theorem) to
//! the solution of the deterministic *mean-field* ODE
//!
//! ```text
//! dx_s/dt  =  Σ_{(A,B) productive}  x_A · x_B · φ_s(A,B)
//! φ_s(A,B) =  [s = A'] + [s = B'] − [s = A] − [s = B]
//! ```
//!
//! where the sum ranges over ordered productive pairs. This is the classical
//! chemical *law of mass action* for the bimolecular network — the setting
//! the Circles paper's energy-minimization intuition comes from.
//!
//! The module integrates the ODE with a fixed-step classical Runge–Kutta
//! (RK4) scheme; the vector field is polynomial (quadratic) and globally
//! smooth on the simplex, so fixed steps of `dt ≤ 0.05` are accurate to well
//! below measurement noise for every experiment in this repository.

use std::fmt::Debug;
use std::hash::Hash;

use crate::error::CrnError;
use crate::network::ReactionNetwork;

/// Mean-field integrator for a [`ReactionNetwork`].
///
/// # Example
///
/// The two-way epidemic has mean field `dx/dt = 2x(1−x)` (logistic growth);
/// see [`MeanField::integrate`] below.
///
/// ```
/// use pp_crn::{MeanField, ReactionNetwork};
/// # use pp_protocol::Protocol;
/// # struct Epidemic;
/// # impl Protocol for Epidemic {
/// #     type State = bool; type Input = bool; type Output = bool;
/// #     fn name(&self) -> &str { "epidemic" }
/// #     fn input(&self, i: &bool) -> bool { *i }
/// #     fn output(&self, s: &bool) -> bool { *s }
/// #     fn transition(&self, a: &bool, b: &bool) -> (bool, bool) {
/// #         let t = *a || *b; (t, t)
/// #     }
/// # }
/// let network = ReactionNetwork::from_protocol(&Epidemic, &[true, false], 10)?;
/// let field = MeanField::new(&network);
/// let informed = network.species().id(&true).unwrap() as usize;
/// let mut x0 = vec![0.0; 2];
/// x0[informed] = 0.1;
/// x0[1 - informed] = 0.9;
/// let x = field.integrate(x0, 4.0, 0.01, |_, _| ())?;
/// assert!(x[informed] > 0.99); // logistic: x(4) ≈ 0.997
/// # Ok::<(), pp_crn::CrnError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MeanField<'a, S> {
    network: &'a ReactionNetwork<S>,
}

impl<'a, S: Clone + Eq + Hash + Debug> MeanField<'a, S> {
    /// Creates the mean-field view of `network`.
    pub fn new(network: &'a ReactionNetwork<S>) -> Self {
        MeanField { network }
    }

    /// Evaluates the vector field: writes `dx/dt` into `dx`.
    ///
    /// # Panics
    ///
    /// Panics when `x` or `dx` do not have one entry per species.
    pub fn derivative(&self, x: &[f64], dx: &mut [f64]) {
        let m = self.network.species_count();
        assert_eq!(x.len(), m, "density vector length mismatch");
        assert_eq!(dx.len(), m, "derivative vector length mismatch");
        dx.fill(0.0);
        for r in self.network.reactions() {
            let flux = x[r.initiator as usize] * x[r.responder as usize];
            if flux == 0.0 {
                continue;
            }
            dx[r.initiator as usize] -= flux;
            dx[r.responder as usize] -= flux;
            dx[r.products.0 as usize] += flux;
            dx[r.products.1 as usize] += flux;
        }
    }

    /// Sup-norm of the vector field at `x` — zero exactly at mean-field
    /// fixed points.
    pub fn residual(&self, x: &[f64]) -> f64 {
        let mut dx = vec![0.0; x.len()];
        self.derivative(x, &mut dx);
        dx.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// One classical RK4 step of size `dt`, in place.
    fn rk4_step(&self, x: &mut [f64], dt: f64, scratch: &mut Rk4Scratch) {
        let m = x.len();
        let Rk4Scratch {
            k1,
            k2,
            k3,
            k4,
            tmp,
        } = scratch;
        self.derivative(x, k1);
        for i in 0..m {
            tmp[i] = x[i] + 0.5 * dt * k1[i];
        }
        self.derivative(tmp, k2);
        for i in 0..m {
            tmp[i] = x[i] + 0.5 * dt * k2[i];
        }
        self.derivative(tmp, k3);
        for i in 0..m {
            tmp[i] = x[i] + dt * k3[i];
        }
        self.derivative(tmp, k4);
        for i in 0..m {
            x[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            // Quadratic fields can overshoot the simplex boundary by O(dt⁵);
            // clamp to keep densities physical over long horizons.
            x[i] = x[i].max(0.0);
        }
    }

    /// Integrates from `x0` to time `t_end` with fixed step `dt`, invoking
    /// `observer(t, x)` after every step (and once at `t = 0`). Returns the
    /// final density vector.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::BadIntegrationParameter`] when `dt` or `t_end`
    /// is non-finite or non-positive.
    pub fn integrate(
        &self,
        x0: Vec<f64>,
        t_end: f64,
        dt: f64,
        mut observer: impl FnMut(f64, &[f64]),
    ) -> Result<Vec<f64>, CrnError> {
        if !dt.is_finite() || dt <= 0.0 {
            return Err(CrnError::BadIntegrationParameter { name: "dt" });
        }
        if !t_end.is_finite() || t_end < 0.0 {
            return Err(CrnError::BadIntegrationParameter { name: "t_end" });
        }
        let m = self.network.species_count();
        assert_eq!(x0.len(), m, "density vector length mismatch");
        let mut x = x0;
        let mut scratch = Rk4Scratch::new(m);
        let mut t = 0.0;
        observer(t, &x);
        while t < t_end {
            let step = dt.min(t_end - t);
            self.rk4_step(&mut x, step, &mut scratch);
            t += step;
            observer(t, &x);
        }
        Ok(x)
    }

    /// Integrates until the residual drops below `tol` (a mean-field fixed
    /// point, up to tolerance) or time exceeds `max_t`. Returns the final
    /// densities and the time reached.
    ///
    /// # Errors
    ///
    /// Returns [`CrnError::BadIntegrationParameter`] for bad `dt`, `tol`
    /// or `max_t`.
    pub fn run_to_equilibrium(
        &self,
        x0: Vec<f64>,
        tol: f64,
        dt: f64,
        max_t: f64,
    ) -> Result<(Vec<f64>, f64), CrnError> {
        if !tol.is_finite() || tol <= 0.0 {
            return Err(CrnError::BadIntegrationParameter { name: "tol" });
        }
        if !dt.is_finite() || dt <= 0.0 {
            return Err(CrnError::BadIntegrationParameter { name: "dt" });
        }
        if !max_t.is_finite() || max_t <= 0.0 {
            return Err(CrnError::BadIntegrationParameter { name: "max_t" });
        }
        let m = self.network.species_count();
        assert_eq!(x0.len(), m, "density vector length mismatch");
        let mut x = x0;
        let mut scratch = Rk4Scratch::new(m);
        let mut t = 0.0;
        while t < max_t {
            if self.residual(&x) < tol {
                break;
            }
            self.rk4_step(&mut x, dt, &mut scratch);
            t += dt;
        }
        Ok((x, t))
    }

    /// A density observable: `Σ_s f(state_s) · x_s`.
    pub fn observe(&self, x: &[f64], mut f: impl FnMut(&S) -> f64) -> f64 {
        self.network
            .species()
            .iter()
            .map(|(id, state)| f(state) * x[id as usize])
            .sum()
    }
}

/// Reusable RK4 stage buffers.
#[derive(Debug)]
struct Rk4Scratch {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Rk4Scratch {
    fn new(m: usize) -> Self {
        Rk4Scratch {
            k1: vec![0.0; m],
            k2: vec![0.0; m],
            k3: vec![0.0; m],
            k4: vec![0.0; m],
            tmp: vec![0.0; m],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ReactionNetwork;
    use circles_core::{CirclesProtocol, CirclesState, Color};
    use pp_protocol::Protocol;

    struct Epidemic;
    impl Protocol for Epidemic {
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
    fn epidemic_matches_logistic_closed_form() {
        // dx/dt = 2x(1-x) ⇒ x(t) = x0 e^{2t} / (1 − x0 + x0 e^{2t}).
        let network = epidemic_network();
        let field = MeanField::new(&network);
        let informed = network.species().id(&true).unwrap() as usize;
        let x0_density = 0.05;
        let mut x0 = vec![0.0; 2];
        x0[informed] = x0_density;
        x0[1 - informed] = 1.0 - x0_density;
        let t_end = 2.5;
        let x = field.integrate(x0, t_end, 0.005, |_, _| ()).unwrap();
        let e = (2.0 * t_end).exp();
        let exact = x0_density * e / (1.0 - x0_density + x0_density * e);
        assert!(
            (x[informed] - exact).abs() < 1e-6,
            "rk4 {} vs exact {exact}",
            x[informed]
        );
    }

    #[test]
    fn mass_is_conserved_by_integration() {
        let protocol = CirclesProtocol::new(3).unwrap();
        let support: Vec<_> = (0..3).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000).unwrap();
        let field = MeanField::new(&network);
        let m = network.species_count();
        let mut x0 = vec![0.0; m];
        let weights = [0.5, 0.3, 0.2];
        for (i, s) in support.iter().enumerate() {
            x0[network.species().id(s).unwrap() as usize] = weights[i];
        }
        let mut max_drift = 0.0f64;
        field
            .integrate(x0, 20.0, 0.02, |_, x| {
                let total: f64 = x.iter().sum();
                max_drift = max_drift.max((total - 1.0).abs());
            })
            .unwrap();
        assert!(max_drift < 1e-9, "density mass drifted by {max_drift}");
    }

    #[test]
    fn circles_k2_mean_field_reaches_predicted_equilibrium() {
        // Densities (p, 1−p) with p = 0.7: the bra-ket marginal must settle
        // at x(⟨0|0⟩)=2p−1, x(⟨0|1⟩)=x(⟨1|0⟩)=1−p, x(⟨1|1⟩)=0, and every
        // agent's out must converge to the majority color 0.
        let protocol = CirclesProtocol::new(2).unwrap();
        let support: Vec<_> = (0..2).map(|i| protocol.input(&Color(i))).collect();
        let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000).unwrap();
        let field = MeanField::new(&network);
        let m = network.species_count();
        let p = 0.7;
        let mut x0 = vec![0.0; m];
        x0[network.species().id(&support[0]).unwrap() as usize] = p;
        x0[network.species().id(&support[1]).unwrap() as usize] = 1.0 - p;
        let (x, _) = field.run_to_equilibrium(x0, 1e-10, 0.02, 500.0).unwrap();

        let braket_mass = |bra: u16, ket: u16| {
            field.observe(&x, |s: &CirclesState| {
                f64::from(s.braket.bra == Color(bra) && s.braket.ket == Color(ket))
            })
        };
        assert!((braket_mass(0, 0) - (2.0 * p - 1.0)).abs() < 1e-6);
        assert!((braket_mass(1, 1) - 0.0).abs() < 1e-6);
        assert!((braket_mass(0, 1) - (1.0 - p)).abs() < 1e-6);
        assert!((braket_mass(1, 0) - (1.0 - p)).abs() < 1e-6);

        let out_majority = field.observe(&x, |s: &CirclesState| f64::from(s.out == Color(0)));
        assert!(
            out_majority > 1.0 - 1e-6,
            "out mass on majority: {out_majority}"
        );
    }

    #[test]
    fn residual_is_zero_at_fixed_point() {
        let network = epidemic_network();
        let field = MeanField::new(&network);
        let informed = network.species().id(&true).unwrap() as usize;
        let mut x = vec![0.0; 2];
        x[informed] = 1.0; // all informed: absorbing
        assert_eq!(field.residual(&x), 0.0);
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let network = epidemic_network();
        let field = MeanField::new(&network);
        let x0 = vec![0.5, 0.5];
        assert_eq!(
            field
                .integrate(x0.clone(), 1.0, 0.0, |_, _| ())
                .unwrap_err(),
            CrnError::BadIntegrationParameter { name: "dt" }
        );
        assert_eq!(
            field
                .integrate(x0.clone(), f64::NAN, 0.1, |_, _| ())
                .unwrap_err(),
            CrnError::BadIntegrationParameter { name: "t_end" }
        );
        assert_eq!(
            field.run_to_equilibrium(x0, -1.0, 0.1, 1.0).unwrap_err(),
            CrnError::BadIntegrationParameter { name: "tol" }
        );
    }

    #[test]
    fn observer_sees_initial_and_final_time() {
        let network = epidemic_network();
        let field = MeanField::new(&network);
        let mut times = Vec::new();
        field
            .integrate(vec![0.5, 0.5], 0.35, 0.1, |t, _| times.push(t))
            .unwrap();
        assert_eq!(times.first(), Some(&0.0));
        assert!((times.last().unwrap() - 0.35).abs() < 1e-12);
        // 0.0, 0.1, 0.2, 0.3, 0.35 — final partial step included.
        assert_eq!(times.len(), 5);
    }
}

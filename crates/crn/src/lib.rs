//! Chemical-reaction-network (CRN) view of population protocols.
//!
//! The Circles paper's title credits its design to *energy minimization in
//! chemical settings*: a population protocol is exactly a bimolecular
//! chemical reaction network whose species are agent states and whose
//! reactions are the productive ordered transitions `A + B → A' + B'`. This
//! crate materializes that reading for any [`Protocol`]:
//!
//! - [`ReactionNetwork`]: the explicit network over the *species closure* of
//!   an initial support (every state reachable by pairwise interactions).
//! - [`MeanField`]: the large-`n` law-of-mass-action ODE
//!   `dx_s/dt = Σ x_A x_B φ_s(A,B)` with an RK4 integrator — the
//!   deterministic limit (Kurtz) the stochastic densities converge to.
//! - [`count_density_trajectory`] / [`ode_density_trajectory`]: grid-sampled
//!   density trajectories, used by experiments E13/E14 to measure how fast
//!   the stochastic system approaches its fluid limit and how the Circles
//!   energy descends in parallel time.
//!
//! The stochastic side is not simulated here: [`count_density_trajectory`]
//! samples the exact uniform-pair chain with [`CountEngine`], and time is
//! that chain's *parallel time* — interactions divided by `n`. A
//! continuous-time (Gillespie) reading of the same network has the same
//! mean clock; the two differ only by `O(1/√n)` fluctuations.
//!
//! # Example
//!
//! Stochastic and mean-field views of Circles with `k = 2`:
//!
//! ```
//! use circles_core::{CirclesProtocol, Color};
//! use pp_crn::{MeanField, ReactionNetwork};
//! use pp_protocol::{CountConfig, CountEngine, Protocol};
//!
//! let protocol = CirclesProtocol::new(2)?;
//! let support: Vec<_> = (0..2).map(|i| protocol.input(&Color(i))).collect();
//! let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000)?;
//!
//! // Stochastic: 60 majority vs 40 minority agents.
//! let mut initial = CountConfig::new();
//! initial.insert(support[0], 60);
//! initial.insert(support[1], 40);
//! let mut engine = CountEngine::from_config(&protocol, initial.clone(), 1);
//! let report = engine.run_until_silent(u64::MAX)?;
//! assert_eq!(report.consensus, Some(Color(0)));
//!
//! // Mean field: the same instance as densities.
//! let field = MeanField::new(&network);
//! let x0 = network.densities(&network.counts_from_config(&initial)?);
//! let (x, _) = field.run_to_equilibrium(x0, 1e-9, 0.02, 500.0)?;
//! let majority_out = field.observe(&x, |s| f64::from(s.out == Color(0)));
//! assert!(majority_out > 0.999);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`Protocol`]: pp_protocol::Protocol
//! [`CountEngine`]: pp_protocol::CountEngine

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod network;
mod ode;
mod trajectory;

pub use error::CrnError;
pub use network::{Reaction, ReactionNetwork, SpeciesId, SpeciesMap};
pub use ode::MeanField;
pub use trajectory::{count_density_trajectory, ode_density_trajectory, DensityTrajectory};

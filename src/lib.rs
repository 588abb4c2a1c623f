//! # Circles — relative majority with `k³` states in population protocols
//!
//! Facade crate for the reproduction of *"Brief Announcement: Minimizing
//! Energy Solves Relative Majority with a Cubic Number of States in
//! Population Protocols"* (Breitkopf, Dallot, El-Hayek, Schmid — PODC 2025).
//!
//! This crate re-exports the workspace's public API:
//!
//! - [`protocol`] — the population-protocol execution framework.
//! - [`schedulers`] — weakly fair scheduler library.
//! - [`core`] — the Circles protocol and its executable theory.
//! - [`baselines`] — baseline majority/plurality protocols.
//! - [`mc`] — the exhaustive model checker.
//! - [`extensions`] — paper §4 extensions (ordering, unordered setting,
//!   ties, fault injection).
//! - [`analysis`] — experiment harness, statistics, figures.
//! - [`crn`] — the chemical-reaction-network view: the reaction network,
//!   its mean-field ODE and count-engine density trajectories (the paper's
//!   "chemical settings").
//! - [`topology`] — restricted interaction graphs and edge-fair schedulers.
//!
//! # Quickstart
//!
//! ```
//! use circles::core::{CirclesProtocol, Color};
//! use circles::protocol::{Population, Simulation, UniformPairScheduler};
//!
//! // 7 agents vote among k = 3 colors; color 2 has relative majority.
//! let protocol = CirclesProtocol::new(3)?;
//! let inputs: Vec<Color> = [0, 1, 1, 2, 2, 2, 0].map(Color).to_vec();
//! let population = Population::from_inputs(&protocol, &inputs);
//! let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), 42);
//! let report = sim.run_until_silent(1_000_000, 16)?;
//! assert_eq!(report.consensus, Some(Color(2)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! For large populations, switch to the batched count engine — anonymous
//! state counts instead of indexed agents, one cheap update per
//! state-changing interaction:
//!
//! ```
//! use circles::core::{CirclesProtocol, Color};
//! use circles::protocol::CountEngine;
//!
//! // 100k agents; color 0 holds a clear margin.
//! let protocol = CirclesProtocol::new(3)?;
//! let inputs: Vec<Color> = (0..100_000u32)
//!     .map(|i| Color(if i % 10 == 0 { 0 } else { (i % 3) as u16 }))
//!     .collect();
//! let mut engine = CountEngine::from_inputs(&protocol, &inputs, 42);
//! let report = engine.run_until_silent(u64::MAX / 2)?;
//! assert_eq!(report.consensus, Some(Color(0)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use circles_core as core;
pub use pp_analysis as analysis;
pub use pp_baselines as baselines;
pub use pp_crn as crn;
pub use pp_extensions as extensions;
pub use pp_mc as mc;
pub use pp_protocol as protocol;
pub use pp_schedulers as schedulers;
pub use pp_topology as topology;

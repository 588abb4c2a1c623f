//! Execution framework for *population protocols*.
//!
//! Population protocols (Angluin et al., 2006) model computation distributed
//! across a population of `n` identical, anonymous agents. A *scheduler*
//! repeatedly selects an ordered pair of agents (*initiator*, *responder*);
//! the two agents observe each other's states and update their own state
//! according to the protocol's deterministic transition function.
//!
//! This crate provides the substrate shared by every protocol in the
//! workspace:
//!
//! - [`Protocol`]: the trait a protocol implements (input, output and
//!   transition functions), plus [`EnumerableProtocol`] for protocols with an
//!   enumerable state space (used for state-complexity accounting and model
//!   checking).
//! - [`Population`]: an indexed vector of agent states, the representation
//!   used by schedulers that distinguish agents.
//! - [`CountConfig`]: an anonymous configuration — the multiset of states of
//!   Definition 1.1 of the Circles paper — used by the counting simulator and
//!   the model checker.
//! - [`Simulation`]: the indexed simulation engine, driven by any
//!   [`Scheduler`].
//! - [`CountEngine`]: the batched count-based engine, driven by any
//!   [`CountScheduler`] — it samples interacting *state pairs* instead of
//!   agent indices and jumps between change-points in one draw. Its
//!   [`Activity`] index (sparse adjacency, `col_in` and 64-row block sums
//!   kept exact by each count delta's in-row walk, with a compressed-row
//!   variant for large slot tables) and `u128` pair weights scale it to populations of billions of
//!   agents.
//! - [`InteractionTrace`]: record/replay of indexed interaction schedules;
//!   [`CountTrace`]: its count-level analogue — the JSONL change-point
//!   schedules that keep large-`n` failures reproducible and shrinkable.
//!
//! # Example
//!
//! ```
//! use pp_protocol::{Population, Protocol, Simulation, UniformPairScheduler};
//!
//! /// A toy "epidemic maximum" protocol: both agents adopt the larger value.
//! struct MaxProtocol;
//!
//! impl Protocol for MaxProtocol {
//!     type State = u8;
//!     type Input = u8;
//!     type Output = u8;
//!
//!     fn name(&self) -> &str {
//!         "max-epidemic"
//!     }
//!
//!     fn input(&self, input: &u8) -> u8 {
//!         *input
//!     }
//!
//!     fn output(&self, state: &u8) -> u8 {
//!         *state
//!     }
//!
//!     fn transition(&self, initiator: &u8, responder: &u8) -> (u8, u8) {
//!         let m = (*initiator).max(*responder);
//!         (m, m)
//!     }
//! }
//!
//! let protocol = MaxProtocol;
//! let population = Population::from_inputs(&protocol, &[3, 1, 4, 1, 5]);
//! let mut sim = Simulation::new(&protocol, population, UniformPairScheduler::new(), 42);
//! let report = sim.run_until_silent(100_000, 16)?;
//! assert_eq!(report.consensus, Some(5));
//! # Ok::<(), pp_protocol::FrameworkError>(())
//! ```

#![forbid(unsafe_code)]
// The execution framework is the workspace's core public surface —
// undocumented items are build errors here, not warnings like in the
// leaf crates.
#![deny(missing_docs)]

pub mod activity;
mod config;
mod count_engine;
mod count_trace;
mod error;
mod hashing;
mod population;
mod protocol;
pub mod quotient;
pub mod run_checkpoint;
pub mod scheduler;
mod simulation;
mod time;
mod trace;
pub mod transition_store;
pub mod transition_table;

pub use activity::{
    Activity, AdjActivity, AdjRows, AdjStore, CompactActivity, CompactAdj, RowRepr, SparseActivity,
    VecAdj,
};
pub use config::CountConfig;
pub use count_engine::{AuditError, AuditQuantity, CompactCountEngine, CountEngine};
pub use count_trace::CountTrace;
pub use error::FrameworkError;
pub use population::Population;
pub use protocol::{EnumerableProtocol, Protocol};
pub use quotient::{quotient_table, QuotientError, StateQuotient};
pub use run_checkpoint::{CheckpointError, CheckpointMeta, ResumableRng, RunCheckpoint};
pub use scheduler::{
    CountScheduler, CountView, PairDraw, ReplayCountScheduler, Scheduler, UniformCountScheduler,
    UniformPairScheduler,
};
pub use simulation::{RunReport, SimStats, Simulation, StepReport};
pub use time::parallel_time;
pub use trace::InteractionTrace;
pub use transition_store::{AuditReport, QuotientStats, StoreError, StoreMeta};
pub use transition_table::{TableDump, TableSnapshot, TransitionTable};

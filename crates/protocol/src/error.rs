//! Error type shared by the framework.

use std::error::Error;
use std::fmt;

/// Errors produced by the simulation framework.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameworkError {
    /// A population with zero agents was supplied where interactions are
    /// required.
    EmptyPopulation,
    /// A population with a single agent cannot interact.
    PopulationTooSmall {
        /// Number of agents supplied.
        n: usize,
    },
    /// An agent index was outside the population.
    AgentOutOfBounds {
        /// Offending index.
        index: usize,
        /// Population size.
        n: usize,
    },
    /// A scheduler returned a reflexive pair `(i, i)`; agents cannot interact
    /// with themselves.
    ReflexivePair {
        /// The repeated index.
        index: usize,
    },
    /// A run exceeded its interaction budget before converging.
    MaxStepsExceeded {
        /// The budget that was exhausted.
        max_steps: u64,
    },
    /// An interaction trace could not be parsed.
    TraceParse(String),
    /// A checkpoint hook asked the run to pause
    /// ([`ControlFlow::Break`](std::ops::ControlFlow::Break)): the engine
    /// stopped at a change-point and can be resumed from its latest
    /// checkpoint. A pause is not a failure — supervisors match on this
    /// variant to schedule the resume.
    Interrupted {
        /// Interactions executed when the run paused.
        steps: u64,
    },
    /// A perturbation named a state the engine has never seen.
    UnknownState {
        /// Debug rendering of the offending state.
        state: String,
    },
    /// A perturbation asked to move or remove more agents than a state
    /// holds.
    InsufficientAgents {
        /// Agents holding the state.
        held: u64,
        /// Agents the perturbation asked for.
        requested: u64,
    },
    /// A perturbation would grow the population past `2^63 − 1` agents.
    PopulationOverflow {
        /// Population size before the perturbation.
        n: u64,
        /// Agents the perturbation asked to add.
        added: u64,
    },
}

impl fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameworkError::EmptyPopulation => write!(f, "population is empty"),
            FrameworkError::PopulationTooSmall { n } => {
                write!(f, "population of {n} agent(s) cannot interact")
            }
            FrameworkError::AgentOutOfBounds { index, n } => {
                write!(f, "agent index {index} out of bounds for population of {n}")
            }
            FrameworkError::ReflexivePair { index } => {
                write!(f, "scheduler produced reflexive pair ({index}, {index})")
            }
            FrameworkError::MaxStepsExceeded { max_steps } => {
                write!(f, "run did not converge within {max_steps} interactions")
            }
            FrameworkError::TraceParse(msg) => write!(f, "invalid interaction trace: {msg}"),
            FrameworkError::Interrupted { steps } => {
                write!(
                    f,
                    "run paused by its checkpoint hook after {steps} interactions"
                )
            }
            FrameworkError::UnknownState { state } => {
                write!(f, "state {state} is not known to the engine")
            }
            FrameworkError::InsufficientAgents { held, requested } => {
                write!(f, "state holds {held} agent(s), asked for {requested}")
            }
            FrameworkError::PopulationOverflow { n, added } => {
                write!(
                    f,
                    "adding {added} agent(s) to {n} would exceed the 2^63 - 1 agent cap"
                )
            }
        }
    }
}

impl Error for FrameworkError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            FrameworkError::EmptyPopulation,
            FrameworkError::PopulationTooSmall { n: 1 },
            FrameworkError::AgentOutOfBounds { index: 9, n: 3 },
            FrameworkError::ReflexivePair { index: 2 },
            FrameworkError::MaxStepsExceeded { max_steps: 10 },
            FrameworkError::TraceParse("bad line".into()),
            FrameworkError::Interrupted { steps: 5 },
            FrameworkError::UnknownState { state: "7".into() },
            FrameworkError::InsufficientAgents {
                held: 1,
                requested: 5,
            },
            FrameworkError::PopulationOverflow { n: 3, added: 9 },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrameworkError>();
    }
}

//! Continuous-time view of an execution.
//!
//! **Parallel time** — interactions divided by `n` — is the standard
//! population-protocol time scale: the unit in which "each agent
//! participates in O(1) interactions per time unit". The simulators count
//! discrete interactions; this module converts those counts.

/// Converts an interaction count to parallel time.
///
/// # Panics
///
/// Panics when `n == 0`.
pub fn parallel_time(steps: u64, n: usize) -> f64 {
    assert!(n > 0, "population must be nonempty");
    steps as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_time_is_steps_over_n() {
        assert_eq!(parallel_time(1000, 100), 10.0);
        assert_eq!(parallel_time(0, 5), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn parallel_time_rejects_empty() {
        let _ = parallel_time(1, 0);
    }
}

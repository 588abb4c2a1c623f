//! Shared plumbing for the experiment binaries.
//!
//! Each `exp_e*` binary regenerates one table of the experiment suite
//! (DESIGN.md §7) and writes it under `results/` as Markdown + CSV;
//! figure-shaped experiments also render SVG charts next to their tables.
//! All binaries accept `--quick` to run the CI-scale preset instead of the
//! full parameters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::path::Path;

use pp_analysis::plot::LinePlot;
use pp_analysis::Table;
use pp_protocol::{Protocol, StateQuotient};

/// Whether the CI-scale preset was requested: `--quick` on the command line
/// or `PP_EXP_QUICK` set to anything but `0` in the environment. The env
/// knob lets CI run experiment binaries end-to-end (through `cargo run`,
/// where extra arguments are awkward to thread) with reduced parameters.
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
        || std::env::var("PP_EXP_QUICK").is_ok_and(|v| v != "0")
}

/// Reads the `PP_*` override `name` as a `T`. Unset is `None`; a set but
/// unparsable value is a hard, structured failure via
/// [`env_override_fail`] — an experiment or bench must never start a long
/// run having silently ignored a typo'd override, and must never panic with
/// a backtrace over one either.
pub fn env_override<T>(name: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = std::env::var_os(name)?;
    let Some(text) = raw.to_str() else {
        env_override_fail(name, &raw.to_string_lossy(), "value is not valid UTF-8");
    };
    match text.parse() {
        Ok(value) => Some(value),
        Err(e) => env_override_fail(name, text, e),
    }
}

/// Reports an invalid `PP_*` environment override as one structured line on
/// stderr — `error: invalid environment override NAME=VALUE: reason` — and
/// exits with status 2 (the experiment binaries' contract for bad
/// overrides; distinct from 1, a runtime failure).
pub fn env_override_fail(name: &str, value: &str, reason: impl std::fmt::Display) -> ! {
    eprintln!("error: invalid environment override {name}={value}: {reason}");
    std::process::exit(2);
}

/// A [`Protocol`] that forwards to `inner` while counting transition calls —
/// how the benches state a discovery path's bill in protocol calls. Every
/// identity method (`name`, `is_symmetric`, `color_quotient`,
/// `fingerprint_param`) is forwarded too: dropping one would send discovery
/// down another path than the wrapped protocol takes, and store and
/// checkpoint identity checks would reject the wrapper.
pub struct CallCounter<'a, P> {
    inner: &'a P,
    calls: Cell<u64>,
}

impl<'a, P> CallCounter<'a, P> {
    /// Wraps `inner` with a zeroed counter.
    pub fn new(inner: &'a P) -> Self {
        CallCounter {
            inner,
            calls: Cell::new(0),
        }
    }

    /// Transition calls made since construction or the last
    /// [`reset`](Self::reset).
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.calls.set(0);
    }
}

impl<P: Protocol> Protocol for CallCounter<'_, P> {
    type State = P::State;
    type Input = P::Input;
    type Output = P::Output;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn input(&self, input: &P::Input) -> P::State {
        self.inner.input(input)
    }

    fn output(&self, state: &P::State) -> P::Output {
        self.inner.output(state)
    }

    fn transition(&self, a: &P::State, b: &P::State) -> (P::State, P::State) {
        self.calls.set(self.calls.get() + 1);
        self.inner.transition(a, b)
    }

    fn is_symmetric(&self) -> bool {
        self.inner.is_symmetric()
    }

    fn color_quotient(&self) -> Option<&dyn StateQuotient<P::State>> {
        self.inner.color_quotient()
    }

    fn fingerprint_param(&self) -> u64 {
        self.inner.fingerprint_param()
    }
}

/// Prints the table and writes `results/<basename>.{md,csv}` relative to
/// the workspace root (or the current directory when run elsewhere).
///
/// # Panics
///
/// Panics when the results directory is not writable — an experiment whose
/// output vanishes silently is worse than a crash.
pub fn emit(table: &Table, basename: &str) {
    print!("{}", table.to_markdown());
    let dir = results_dir();
    table
        .write_files(&dir, basename)
        .unwrap_or_else(|e| panic!("cannot write results to {}: {e}", dir.display()));
    eprintln!("wrote {}/{basename}.md and .csv", dir.display());
}

/// Renders a figure to `results/<basename>.svg`.
///
/// # Panics
///
/// Panics when the results directory is not writable, matching [`emit`].
pub fn emit_figure(plot: &LinePlot, basename: &str) {
    let dir = results_dir();
    let path = dir.join(format!("{basename}.svg"));
    plot.write(&path)
        .unwrap_or_else(|e| panic!("cannot write figure to {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

/// Emits a table plus its companion figures.
pub fn emit_with_figures(table: &Table, basename: &str, figures: &[(String, LinePlot)]) {
    emit(table, basename);
    for (name, plot) in figures {
        emit_figure(plot, name);
    }
}

/// `results/` next to the workspace `Cargo.toml` when discoverable, else
/// relative to the current directory.
pub fn results_dir() -> std::path::PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    // crates/bench -> workspace root.
    manifest
        .ancestors()
        .nth(2)
        .map(|root| root.join("results"))
        .unwrap_or_else(|| Path::new("results").to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_ends_with_results() {
        assert!(results_dir().ends_with("results"));
    }
}

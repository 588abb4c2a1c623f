//! Regenerates experiment E13 (`meanfield`); see DESIGN.md §7.
//!
//! The default sweep samples count-engine density trajectories from
//! `n = 64` to `n = 10^8` against the mean-field ODE; `--quick` (or
//! `PP_EXP_QUICK=1`) selects the CI-scale preset.

use pp_analysis::experiments::e13_meanfield::{run_with_figures, Params};

fn main() {
    let params = if pp_bench::quick_requested() {
        Params::quick()
    } else {
        Params::default()
    };
    let (table, figures) = run_with_figures(&params);
    pp_bench::emit_with_figures(&table, "e13_meanfield", &figures);
}

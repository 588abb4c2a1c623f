//! Regenerates experiment E3 (`convergence_k`); see DESIGN.md §7.
//!
//! The sweep can be resized without recompiling: `PP_E03_N`,
//! `PP_E03_SEEDS`, `PP_E03_MAX_STEPS`, `PP_E03_THREADS` and `PP_E03_KS`
//! (a comma-separated color-count list) override the corresponding
//! parameters in both quick and full mode, e.g.
//!
//! ```sh
//! PP_E03_KS=40,50 PP_E03_SEEDS=8 exp_e03_convergence_k --quick
//! ```
//!
//! The default full grid tops out at `k = 50`; each `k` shares one
//! transition table across its seeds (see `docs/architecture.md`).

use pp_analysis::experiments::e03_convergence_k::{run, Params};

/// A comma-separated list of color counts, e.g. `2,8,50`.
struct KList(Vec<u16>);

impl std::str::FromStr for KList {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let ks = s
            .split(',')
            .map(|part| match part.trim().parse::<u16>() {
                Ok(k) if k >= 2 => Ok(k),
                Ok(k) => Err(format!("color count {k} must be in 2..=65535")),
                Err(_) => Err(format!("{part:?} is not a color count")),
            })
            .collect::<Result<Vec<u16>, String>>()?;
        if ks.is_empty() {
            return Err("the k list is empty".into());
        }
        Ok(KList(ks))
    }
}

fn main() {
    let mut params = if pp_bench::quick_requested() {
        Params::quick()
    } else {
        Params::default()
    };
    // Invalid overrides are a hard exit(2) with a structured one-line
    // error naming the variable — never a silent fallback, never a panic.
    if let Some(n) = pp_bench::env_override::<usize>("PP_E03_N") {
        if n == 0 {
            pp_bench::env_override_fail("PP_E03_N", "0", "population must be at least 1");
        }
        params.n = n;
    }
    if let Some(seeds) = pp_bench::env_override::<u64>("PP_E03_SEEDS") {
        if seeds == 0 {
            pp_bench::env_override_fail("PP_E03_SEEDS", "0", "need at least one seed");
        }
        params.seeds = seeds;
    }
    if let Some(max_steps) = pp_bench::env_override::<u64>("PP_E03_MAX_STEPS") {
        params.max_steps = max_steps;
    }
    if let Some(threads) = pp_bench::env_override::<usize>("PP_E03_THREADS") {
        if threads == 0 {
            pp_bench::env_override_fail("PP_E03_THREADS", "0", "need at least one thread");
        }
        params.threads = threads;
    }
    if let Some(KList(ks)) = pp_bench::env_override::<KList>("PP_E03_KS") {
        params.ks = ks;
    }
    let table = run(&params);
    pp_bench::emit(&table, "e03_convergence_k");
}

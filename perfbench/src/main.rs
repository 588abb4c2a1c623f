//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A plain run (`--trace 0`) repeats the workload with inputs derived from
//! `--seed` until `--seconds` have passed, checks every output, and prints
//! the end-to-end metrics as medians over the repetitions. A traced run
//! (`--trace 1`) runs a fixed number of repetitions twice each, plain and
//! over the probe wrappers of [`probe`], asserts both produce the same
//! reports, and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the lines before it repeat the metrics for
//! people. See `perfbench/DESIGN.md` for the workloads and metrics.

mod probe;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use workloads::{Rep, Workload, PER_LAYER, WORKLOADS};

/// Plain runs make at least this many repetitions, however long they take.
const MIN_REPS: u64 = 3;
/// Plain runs stop starting repetitions after this many seconds.
const MAX_RUN_S: f64 = 120.0;
/// Traced runs make exactly this many repetitions, so their counts repeat.
const TRACE_REPS: u64 = 3;

/// The end-to-end metrics of a plain run, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("ns_per_change", "ns"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: &'static (&'static str, Workload),
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = WORKLOADS.iter().find(|(name, _)| *name == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?} is not a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The median of `xs` (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A private scratch directory under the working directory for `.ppts` and
/// `.pprc` files, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Self> {
        let dir = PathBuf::from(format!(".perfbench-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a run measured: metric values by name, plus the failure ledger.
struct Outcome {
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

fn plain_run(w: Workload, args: &Args, scratch: &Scratch) -> Outcome {
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    while (reps.len() as u64) < MIN_REPS
        || (start.elapsed().as_secs_f64() < args.seconds
            && start.elapsed().as_secs_f64() < MAX_RUN_S)
    {
        let rep = reps.len() as u64;
        let r = w.plain(args.seed, rep, true, &scratch.0);
        eprintln!(
            "rep {rep}: wall {:.4} s, {} changes, set-up {:.3e} s",
            r.wall_s, r.changes, r.setup_s
        );
        reps.push(r);
    }
    let of = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let values = [
        of(&|r| r.wall_s),
        of(&|r| r.setup_s),
        of(&|r| r.wall_s * 1e9 / r.changes.max(1) as f64),
        peak_rss_mb(),
    ];
    Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, (v, unit)))
            .collect(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
    }
}

fn traced_run(w: Workload, args: &Args, scratch: &Scratch) -> Outcome {
    let (mut attempted, mut failed) = (0, 0);
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in 0..TRACE_REPS {
        let plain = w.plain(args.seed, rep, false, &scratch.0);
        let traced = w.traced(args.seed, rep, &scratch.0);
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;
        if plain.reports != traced.reports {
            eprintln!(
                "correctness check failed: traced reports differ from plain ones\n  \
                 plain:  {}\n  traced: {}",
                plain.reports, traced.reports
            );
            failed += 1;
        }
        plain_s.push(plain.wall_s);
        traced_s.push(traced.wall_s);
        for (name, v) in traced.layers {
            layers.entry(name).or_default().push(v);
        }
    }
    let calls = &layers["protocol.transition_calls"];
    let range = calls.iter().copied().fold(f64::MIN, f64::max)
        - calls.iter().copied().fold(f64::MAX, f64::min);
    let overhead = median(&traced_s) / median(&plain_s);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "trace.overhead_x" => overhead,
                "protocol.transition_calls.range" => range,
                _ => median(&layers[name]),
            };
            (name, (v, unit))
        })
        .collect();
    Outcome {
        metrics,
        attempted,
        failed,
    }
}

/// Formats a metric value as JSON: every digit, never NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let (name, w) = *args.workload;
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let out = if args.trace {
        traced_run(w, &args, &scratch)
    } else {
        plain_run(w, &args, &scratch)
    };
    drop(scratch);

    let correct = out.failed == 0;
    println!(
        "workload {name} seed {} trace {}: {} attempted, {} failed",
        args.seed,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    println!(
        "  failed_frac = {} 1",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, (v, unit)) in &out.metrics {
        println!("  {name} = {v} {unit}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values listed under `key` in `BENCHMARK.json`.
    fn listed(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let end = body.find(']').expect("list closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                rest.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(listed(json, "end_to_end"), names(END_TO_END));
        assert_eq!(listed(json, "per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(listed(json, "workloads"), workloads);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

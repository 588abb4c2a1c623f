//! `circles` — command-line interface to the Circles reproduction.
//!
//! ```text
//! circles run      --counts 50,30,20 [--k 3] [--scheduler uniform] [--seed 7] [--max-steps N]
//! circles predict  --counts 50,30,20 [--k 3]
//! circles verify   --counts 3,2,1    [--k 3] [--full]
//! circles state-space --k 4
//! circles kinetics --counts 500,300,200 [--k 3] [--seed 7] [--t-end 10] [--max-steps N]
//! circles topology --counts 20,12,4 [--graph cycle] [--seed 7] [--max-steps N]
//! ```
//!
//! `--counts c0,c1,…` gives the multiplicity of each color; `--k` defaults
//! to the number of counts provided; `--max-steps` caps the interactions a
//! run may take, in every subcommand that runs one (`kinetics` included).
//! Argument parsing is hand-rolled (the workspace keeps its dependency set
//! minimal).

use std::process::ExitCode;

use circles::core::prediction::{self, predicted_brakets, self_loop_colors};
use circles::core::{weight, CirclesProtocol, CirclesState, Color, GreedyDecomposition};
use circles::crn::{MeanField, ReactionNetwork};
use circles::mc::circles::{verify_circles_full, verify_circles_instance};
use circles::mc::ExploreLimits;
use circles::protocol::{
    parallel_time, CountConfig, CountEngine, EnumerableProtocol, Population, Protocol, Simulation,
    UniformPairScheduler,
};
use circles::schedulers::{ClusteredScheduler, RoundRobinScheduler, ShuffledRoundsScheduler};
use circles::topology::{is_graph_silent, EdgeScheduler, InteractionGraph};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  circles run         --counts c0,c1,...  [--k K] [--scheduler uniform|round-robin|shuffled|clustered] [--seed S] [--max-steps N]
  circles predict     --counts c0,c1,...  [--k K]
  circles verify      --counts c0,c1,...  [--k K] [--full]
  circles state-space --k K
  circles kinetics    --counts c0,c1,...  [--k K] [--seed S] [--t-end T] [--max-steps N]
  circles topology    --counts c0,c1,...  [--k K] [--graph complete|cycle|path|star|grid|regular] [--seed S] [--max-steps N]";

/// Parsed common options.
struct Options {
    counts: Vec<usize>,
    k: u16,
    scheduler: String,
    graph: String,
    seed: u64,
    max_steps: u64,
    t_end: f64,
    full: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut counts: Option<Vec<usize>> = None;
    let mut k: Option<u16> = None;
    let mut scheduler = "uniform".to_string();
    let mut graph = "cycle".to_string();
    let mut seed = 42u64;
    let mut max_steps = 1_000_000_000u64;
    let mut t_end = 10.0f64;
    let mut full = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match arg.as_str() {
            "--counts" => {
                let raw = value("--counts")?;
                let parsed: Result<Vec<usize>, _> =
                    raw.split(',').map(|p| p.trim().parse()).collect();
                counts = Some(parsed.map_err(|e| format!("bad --counts: {e}"))?);
            }
            "--k" => k = Some(value("--k")?.parse().map_err(|e| format!("bad --k: {e}"))?),
            "--scheduler" => scheduler = value("--scheduler")?,
            "--graph" => graph = value("--graph")?,
            "--t-end" => {
                t_end = value("--t-end")?
                    .parse()
                    .map_err(|e| format!("bad --t-end: {e}"))?;
                if !(t_end.is_finite() && t_end > 0.0) {
                    return Err("--t-end must be positive".into());
                }
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--max-steps" => {
                max_steps = value("--max-steps")?
                    .parse()
                    .map_err(|e| format!("bad --max-steps: {e}"))?
            }
            "--full" => full = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let counts = counts.ok_or("missing --counts")?;
    if counts.is_empty() {
        return Err("--counts must list at least one color".into());
    }
    let k = match k {
        Some(k) => k,
        None => u16::try_from(counts.len()).map_err(|_| "too many colors")?,
    };
    if usize::from(k) < counts.len() {
        return Err(format!(
            "--k {k} smaller than the {} counts given",
            counts.len()
        ));
    }
    Ok(Options {
        counts,
        k,
        scheduler,
        graph,
        seed,
        max_steps,
        t_end,
        full,
    })
}

fn inputs_of(counts: &[usize]) -> Vec<Color> {
    let mut inputs = Vec::new();
    for (color, &count) in counts.iter().enumerate() {
        inputs.extend(std::iter::repeat_n(Color(color as u16), count));
    }
    inputs
}

fn run_cli(args: &[String]) -> Result<(), String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("no command given".into());
    };
    match command.as_str() {
        "run" => cmd_run(&parse_options(rest)?),
        "predict" => cmd_predict(&parse_options(rest)?),
        "verify" => cmd_verify(&parse_options(rest)?),
        "state-space" => cmd_state_space(rest),
        "kinetics" => cmd_kinetics(&parse_options(rest)?),
        "topology" => cmd_topology(&parse_options(rest)?),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let inputs = inputs_of(&opts.counts);
    let n = inputs.len();
    if n < 2 {
        return Err("need at least two agents".into());
    }
    let protocol = CirclesProtocol::new(opts.k).map_err(|e| e.to_string())?;
    let population = Population::from_inputs(&protocol, &inputs);
    let check = (n as u64).max(16);

    let report = match opts.scheduler.as_str() {
        "uniform" => {
            let mut sim = Simulation::new(
                &protocol,
                population,
                UniformPairScheduler::new(),
                opts.seed,
            );
            sim.run_until_silent(opts.max_steps, check)
        }
        "round-robin" => {
            let mut sim =
                Simulation::new(&protocol, population, RoundRobinScheduler::new(), opts.seed);
            sim.run_until_silent(opts.max_steps, check)
        }
        "shuffled" => {
            let mut sim = Simulation::new(
                &protocol,
                population,
                ShuffledRoundsScheduler::new(),
                opts.seed,
            );
            sim.run_until_silent(opts.max_steps, check)
        }
        "clustered" => {
            let mut sim = Simulation::new(
                &protocol,
                population,
                ClusteredScheduler::new(16),
                opts.seed,
            );
            sim.run_until_silent(opts.max_steps, check)
        }
        other => return Err(format!("unknown scheduler {other}")),
    }
    .map_err(|e| e.to_string())?;

    let greedy = GreedyDecomposition::from_inputs(&inputs, opts.k).map_err(|e| e.to_string())?;
    println!("n = {n}, k = {}, scheduler = {}", opts.k, opts.scheduler);
    println!("true winner: {:?}", greedy.winner());
    println!(
        "silence after {} interactions ({:.1} parallel time)",
        report.steps_to_silence,
        parallel_time(report.steps_to_silence, n)
    );
    println!(
        "consensus after {} interactions ({:.1} parallel time)",
        report.steps_to_consensus,
        parallel_time(report.steps_to_consensus, n)
    );
    println!("consensus output: {:?}", report.consensus);
    Ok(())
}

fn cmd_predict(opts: &Options) -> Result<(), String> {
    let inputs = inputs_of(&opts.counts);
    let greedy = GreedyDecomposition::from_inputs(&inputs, opts.k).map_err(|e| e.to_string())?;
    println!("greedy independent sets (Definition 3.1):");
    for (p, set) in greedy.sets().enumerate() {
        let names: Vec<String> = set.iter().map(|c| c.to_string()).collect();
        println!("  G_{} = {{{}}}", p + 1, names.join(", "));
    }
    let predicted = predicted_brakets(&inputs, opts.k).map_err(|e| e.to_string())?;
    println!("\npredicted terminal bra-kets (Lemma 3.6):");
    for (braket, count) in predicted.iter() {
        println!("  {count} × {braket}");
    }
    match greedy.winner() {
        Some(mu) => println!(
            "\nwinner: {mu} (self-loops: {:?})",
            self_loop_colors(&predicted)
        ),
        None => println!(
            "\ntie between {:?} — no self-loop survives",
            greedy.winners()
        ),
    }
    Ok(())
}

fn cmd_verify(opts: &Options) -> Result<(), String> {
    let inputs = inputs_of(&opts.counts);
    let report = verify_circles_instance(&inputs, opts.k, ExploreLimits::default())
        .map_err(|e| e.to_string())?;
    println!(
        "bra-ket space: {} configurations; exchange DAG: {}; unique terminal = prediction: {}; self-loops correct: {}",
        report.config_count,
        report.exchange_dag,
        report.stable_matches_prediction,
        report.self_loops_correct
    );
    println!(
        "weak-fairness verification: {}",
        if report.verified {
            "VERIFIED"
        } else {
            "FAILED"
        }
    );
    if opts.full {
        let full = verify_circles_full(&inputs, opts.k, ExploreLimits::default())
            .map_err(|e| e.to_string())?;
        println!(
            "full state space: {} configurations; eventually silent: {}; stably computes μ: {}",
            full.config_count, full.eventually_silent, full.stably_computes
        );
    }
    if report.verified {
        Ok(())
    } else {
        Err("instance failed verification".into())
    }
}

fn cmd_state_space(args: &[String]) -> Result<(), String> {
    let mut k: Option<u16> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--k" => {
                k = Some(
                    it.next()
                        .ok_or("missing value for --k")?
                        .parse()
                        .map_err(|e| format!("bad --k: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let k = k.ok_or("missing --k")?;
    let protocol = CirclesProtocol::new(k).map_err(|e| e.to_string())?;
    println!(
        "k = {k}: circles uses {} states (k³); lower bound Ω(k²) = {}, prior upper bound O(k⁷) = {:.2e}",
        protocol.state_complexity(),
        u64::from(k).pow(2),
        f64::from(k).powi(7)
    );
    Ok(())
}

fn cmd_kinetics(opts: &Options) -> Result<(), String> {
    let inputs = inputs_of(&opts.counts);
    let n = inputs.len();
    if n < 2 {
        return Err("need at least two agents".into());
    }
    let protocol = CirclesProtocol::new(opts.k).map_err(|e| e.to_string())?;
    let support: Vec<CirclesState> = (0..opts.k).map(|i| protocol.input(&Color(i))).collect();
    let network = ReactionNetwork::from_protocol(&protocol, &support, 2_000_000)
        .map_err(|e| e.to_string())?;
    println!(
        "reaction network: {} species (of k³ = {} declared states), {} productive reactions",
        network.species_count(),
        usize::from(opts.k).pow(3),
        network.reaction_count()
    );

    // The exact uniform-pair chain; parallel time = interactions / n.
    let initial: CountConfig<CirclesState> = inputs.iter().map(|c| protocol.input(c)).collect();
    let mut engine = CountEngine::from_config(&protocol, initial.clone(), opts.seed);
    let report = engine
        .run_until_silent(opts.max_steps)
        .map_err(|e| e.to_string())?;
    let terminal = engine.config();
    let energy = terminal
        .iter()
        .map(|(s, c)| f64::from(weight(opts.k, s.braket)) * c as f64)
        .sum::<f64>()
        / n as f64;
    println!(
        "count engine: {} state changes, silent after {:.2} parallel-time units, final energy/agent = {energy:.4}",
        report.state_changes,
        parallel_time(report.steps_to_silence, n)
    );
    let predicted = predicted_brakets(&inputs, opts.k).map_err(|e| e.to_string())?;
    println!(
        "terminal bra-kets match Lemma 3.6: {}",
        prediction::braket_config(&terminal) == predicted
    );

    let field = MeanField::new(&network);
    let x0 = network.densities(
        &network
            .counts_from_config(&initial)
            .map_err(|e| e.to_string())?,
    );
    let (x, t) = field
        .run_to_equilibrium(x0, 1e-9, 0.02, opts.t_end.max(1.0) * 100.0)
        .map_err(|e| e.to_string())?;
    let ode_energy = field.observe(&x, |s| f64::from(weight(opts.k, s.braket)));
    println!("mean-field equilibrium by t = {t:.1}: energy/agent = {ode_energy:.4}");
    Ok(())
}

fn cmd_topology(opts: &Options) -> Result<(), String> {
    let inputs = inputs_of(&opts.counts);
    let n = inputs.len();
    if n < 3 {
        return Err("need at least three agents".into());
    }
    let mut graph_rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(opts.seed);
    let graph = match opts.graph.as_str() {
        "complete" => InteractionGraph::complete(n),
        "cycle" => InteractionGraph::cycle(n),
        "path" => InteractionGraph::path(n),
        "star" => InteractionGraph::star(n),
        "grid" => {
            let side = (n as f64).sqrt().round() as usize;
            if side * side != n {
                return Err(format!("--graph grid needs a square n; got {n}"));
            }
            InteractionGraph::grid(side, side)
        }
        "regular" => InteractionGraph::random_regular(n, 4.min(n - 1), &mut graph_rng),
        other => return Err(format!("unknown graph {other}")),
    }
    .map_err(|e| e.to_string())?;

    let protocol = CirclesProtocol::new(opts.k).map_err(|e| e.to_string())?;
    let population = Population::from_inputs(&protocol, &inputs);
    let mut sim = Simulation::new(
        &protocol,
        population,
        EdgeScheduler::new(graph.clone()),
        opts.seed,
    );
    let chunk = (4 * n as u64).max(64);
    let mut silent = is_graph_silent(&graph, sim.population(), &protocol);
    while !silent && sim.stats().steps < opts.max_steps {
        sim.run_observed(chunk.min(opts.max_steps - sim.stats().steps), |_| ())
            .map_err(|e| e.to_string())?;
        silent = is_graph_silent(&graph, sim.population(), &protocol);
    }

    let greedy = GreedyDecomposition::from_inputs(&inputs, opts.k).map_err(|e| e.to_string())?;
    let predicted = predicted_brakets(&inputs, opts.k).map_err(|e| e.to_string())?;
    let outputs = sim.population().output_counts(&protocol);
    println!("{graph}");
    println!("true winner: {:?}", greedy.winner());
    println!(
        "graph-silent: {silent} (after {} interactions, {:.1} parallel time)",
        sim.stats().steps,
        parallel_time(sim.stats().steps, n)
    );
    println!(
        "bra-kets match Lemma 3.6 prediction: {}",
        prediction::braket_config_of_population(sim.population()) == predicted
    );
    println!("output histogram at end: {outputs:?}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_minimal() {
        let opts = parse_options(&strs(&["--counts", "3,2,1"])).unwrap();
        assert_eq!(opts.counts, vec![3, 2, 1]);
        assert_eq!(opts.k, 3);
        assert_eq!(opts.scheduler, "uniform");
    }

    #[test]
    fn parse_overrides() {
        let opts = parse_options(&strs(&[
            "--counts",
            "5,4",
            "--k",
            "4",
            "--seed",
            "9",
            "--scheduler",
            "round-robin",
            "--max-steps",
            "100",
            "--full",
        ]))
        .unwrap();
        assert_eq!(opts.k, 4);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.max_steps, 100);
        assert!(opts.full);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_options(&strs(&[])).is_err());
        assert!(parse_options(&strs(&["--counts", "x,y"])).is_err());
        assert!(parse_options(&strs(&["--counts", "1,2", "--k", "1"])).is_err());
        assert!(parse_options(&strs(&["--bogus"])).is_err());
    }

    #[test]
    fn inputs_expand_counts() {
        let inputs = inputs_of(&[2, 0, 1]);
        assert_eq!(inputs, vec![Color(0), Color(0), Color(2)]);
    }

    #[test]
    fn commands_execute() {
        run_cli(&strs(&["predict", "--counts", "3,2,1"])).unwrap();
        run_cli(&strs(&["verify", "--counts", "3,2,1"])).unwrap();
        run_cli(&strs(&["run", "--counts", "4,2", "--seed", "1"])).unwrap();
        run_cli(&strs(&["state-space", "--k", "5"])).unwrap();
        run_cli(&strs(&["kinetics", "--counts", "6,3,2", "--seed", "2"])).unwrap();
        run_cli(&strs(&[
            "topology",
            "--counts",
            "5,3",
            "--graph",
            "cycle",
            "--max-steps",
            "100000",
        ]))
        .unwrap();
        assert!(run_cli(&strs(&["bogus"])).is_err());
        assert!(run_cli(&strs(&[])).is_err());
    }

    #[test]
    fn parse_kinetics_and_topology_options() {
        let opts = parse_options(&strs(&[
            "--counts", "4,2", "--graph", "star", "--t-end", "3.5",
        ]))
        .unwrap();
        assert_eq!(opts.graph, "star");
        assert!((opts.t_end - 3.5).abs() < 1e-12);
        assert!(parse_options(&strs(&["--counts", "4,2", "--t-end", "-1"])).is_err());
        assert!(parse_options(&strs(&["--counts", "4,2", "--t-end", "x"])).is_err());
    }

    #[test]
    fn kinetics_max_steps_caps_interactions() {
        let run = |max_steps: &str| {
            run_cli(&strs(&[
                "kinetics",
                "--counts",
                "6,3,2",
                "--max-steps",
                max_steps,
            ]))
        };
        assert!(run("1").is_err(), "one interaction cannot silence 6,3,2");
        assert!(run("1000000").is_ok());
    }

    #[test]
    fn topology_rejects_bad_graphs() {
        assert!(run_cli(&strs(&["topology", "--counts", "4,3", "--graph", "bogus"])).is_err());
        // 7 agents cannot form a square grid.
        assert!(run_cli(&strs(&["topology", "--counts", "4,3", "--graph", "grid"])).is_err());
    }
}

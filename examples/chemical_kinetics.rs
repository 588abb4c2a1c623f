//! Chemical kinetics: Circles as an explicit reaction network, sampled
//! exactly (count engine) and in the fluid limit (mean-field ODE).
//!
//! Where the `chemical_energy` example reads a discrete run through the
//! energy lens, this one builds the *actual chemistry*: species = reachable
//! Circles states, reactions = productive collisions `A + B → A' + B'`. It
//! then
//!
//! 1. samples the uniform-pair chain exactly with the count engine (time
//!    in parallel units — one unit = `n` interactions; a continuous-time
//!    Gillespie clock agrees in mean, up to `O(1/√n)` fluctuations),
//! 2. integrates the law-of-mass-action ODE the densities converge to as
//!    `n → ∞` (Kurtz's theorem),
//! 3. prints both trajectories side by side along with the closed-form
//!    energy floor `k·p_max` they must settle on, and the terminal
//!    bra-ket multiset against Lemma 3.6's prediction.
//!
//! ```text
//! cargo run --release --example chemical_kinetics
//! ```

use circles::core::{prediction, weight, CirclesProtocol, CirclesState, Color};
use circles::crn::{count_density_trajectory, ode_density_trajectory, MeanField, ReactionNetwork};
use circles::protocol::{parallel_time, CountConfig, CountEngine, Protocol};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let k = 3u16;
    let n = 3000usize;
    // Concentrations 50% : 30% : 20%.
    let counts = [n / 2, n * 3 / 10, n - n / 2 - n * 3 / 10];

    let protocol = CirclesProtocol::new(k)?;
    let support: Vec<CirclesState> = (0..k).map(|i| protocol.input(&Color(i))).collect();
    let network = ReactionNetwork::from_protocol(&protocol, &support, 100_000)?;
    println!(
        "reaction network: {} species (declared state space: {}), {} productive reactions",
        network.species_count(),
        usize::from(k).pow(3),
        network.reaction_count()
    );

    let mut initial = CountConfig::new();
    for (i, &c) in counts.iter().enumerate() {
        initial.insert(support[i], c);
    }

    // Side-by-side densities on a coarse grid.
    let times: Vec<f64> = (0..=8).map(f64::from).collect();
    let sampled = count_density_trajectory(&network, &protocol, &initial, 7, &times)?;
    let x0 = network.densities(&network.counts_from_config(&initial)?);
    let ode = ode_density_trajectory(&network, x0.clone(), &times, 0.01)?;

    let energy = |row: &[f64]| -> f64 {
        network
            .species()
            .iter()
            .map(|(id, s)| f64::from(weight(k, s.braket)) * row[id as usize])
            .sum()
    };
    let selfloops = |row: &[f64]| -> f64 {
        network
            .species()
            .iter()
            .map(|(id, s)| f64::from(s.braket.is_self_loop()) * row[id as usize])
            .sum()
    };

    println!("\n  t    energy(run)  energy(ODE)  self-loops(run)  self-loops(ODE)");
    for (i, &t) in times.iter().enumerate() {
        println!(
            "{t:>4.1}  {:>10.4}  {:>10.4}  {:>14.4}  {:>14.4}",
            energy(&sampled.rows[i]),
            energy(&ode.rows[i]),
            selfloops(&sampled.rows[i]),
            selfloops(&ode.rows[i]),
        );
    }
    let p_max = 0.5;
    println!(
        "\nenergy floor k·p_max = {:.2}; Kurtz sup-distance at n = {n}: {:.4}",
        f64::from(k) * p_max,
        sampled.sup_distance(&ode)
    );

    // Drive the stochastic system to silence and check Lemma 3.6.
    let mut engine = CountEngine::from_config(&protocol, initial, 7);
    let report = engine.run_until_silent(u64::MAX)?;
    let inputs: Vec<Color> = (0..k as usize)
        .flat_map(|i| std::iter::repeat_n(Color(i as u16), counts[i]))
        .collect();
    let predicted = prediction::predicted_brakets(&inputs, k)?;
    let terminal = prediction::braket_config(&engine.config());
    println!(
        "\ncount engine silent after {} state changes ({:.2} parallel-time units)",
        report.state_changes,
        parallel_time(report.steps_to_silence, n)
    );
    println!(
        "terminal bra-kets match Lemma 3.6 prediction: {}",
        if terminal == predicted { "yes" } else { "NO" }
    );
    assert_eq!(terminal, predicted, "Lemma 3.6 violated");

    // Mean-field equilibrium for comparison.
    let field = MeanField::new(&network);
    let (x_eq, t_eq) = field.run_to_equilibrium(x0, 1e-9, 0.02, 500.0)?;
    println!(
        "mean-field equilibrium reached by t = {t_eq:.1}: energy {:.4} (floor {:.2})",
        energy(&x_eq),
        f64::from(k) * p_max
    );
    Ok(())
}

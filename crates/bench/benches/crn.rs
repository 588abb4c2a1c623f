//! CRN-layer throughput: network construction and mean-field integration
//! speed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use circles_core::{CirclesProtocol, CirclesState, Color};
use pp_crn::{MeanField, ReactionNetwork};
use pp_protocol::{CountConfig, Protocol};

fn network_for(k: u16) -> (CirclesProtocol, ReactionNetwork<CirclesState>) {
    let protocol = CirclesProtocol::new(k).unwrap();
    let support: Vec<CirclesState> = (0..k).map(|i| protocol.input(&Color(i))).collect();
    let network = ReactionNetwork::from_protocol(&protocol, &support, 1_000_000).unwrap();
    (protocol, network)
}

fn initial_for(protocol: &CirclesProtocol, n: usize) -> CountConfig<CirclesState> {
    let k = protocol.k();
    let mut initial = CountConfig::new();
    // Geometric-ish profile with a strict leader.
    let mut remaining = n;
    for i in 0..k {
        let share = if i + 1 == k {
            remaining
        } else {
            (remaining * 3).div_ceil(5)
        };
        initial.insert(protocol.input(&Color(i)), share);
        remaining -= share;
        if remaining == 0 {
            break;
        }
    }
    initial
}

fn bench_network_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("crn_network_closure");
    group.sample_size(10);
    for k in [3u16, 6, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(format!("k{k}")), &k, |b, &k| {
            b.iter(|| {
                let (_, network) = network_for(k);
                network.reaction_count()
            })
        });
    }
    group.finish();
}

fn bench_meanfield_integration(c: &mut Criterion) {
    let mut group = c.benchmark_group("crn_meanfield_rk4");
    group.sample_size(10);
    for k in [3u16, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(format!("k{k}")), &k, |b, &k| {
            let (protocol, network) = network_for(k);
            let initial = initial_for(&protocol, 1_000_000);
            let x0 = network.densities(&network.counts_from_config(&initial).unwrap());
            let field = MeanField::new(&network);
            b.iter(|| field.integrate(x0.clone(), 5.0, 0.01, |_, _| ()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_network_construction,
    bench_meanfield_integration
);
criterion_main!(benches);

//! Mechanism computational cost: the paper's complexity claim (§5.5).
//!
//! The REF proportional-elasticity mechanism is a closed-form expression
//! (Eq. 13) while the welfare-optimizing alternatives require geometric
//! programming; this bench quantifies the gap across system sizes.
//!
//! In `--test` mode (CI runs every bench once: `cargo bench -p ref-bench
//! --benches -- --test`) it makes one allocation by each mechanism it
//! times (closed-form REF and max welfare, the fair max-welfare and
//! equal-slowdown GPs) at 2, 4 and 8 agents: it fails if one refuses its
//! market, panics, or the bench stops building.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ref_core::mechanism::{EqualSlowdown, MaxWelfare, Mechanism, ProportionalElasticity};
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;

fn agents(n: usize) -> Vec<CobbDouglas> {
    (0..n)
        .map(|i| {
            let a = 0.15 + 0.7 * (i as f64 / (n.max(2) - 1) as f64);
            CobbDouglas::new(0.5 + 0.1 * i as f64, vec![a * 0.8, (1.0 - a) * 0.8]).unwrap()
        })
        .collect()
}

fn bench_mechanisms(c: &mut Criterion) {
    let mut group = c.benchmark_group("mechanism_allocate");
    for n in [2_usize, 4, 8] {
        let pop = agents(n);
        let capacity = Capacity::new(vec![6.0 * n as f64, 3.0 * n as f64]).unwrap();
        group.bench_with_input(
            BenchmarkId::new("proportional_elasticity", n),
            &n,
            |b, _| {
                b.iter(|| {
                    ProportionalElasticity
                        .allocate(std::hint::black_box(&pop), &capacity)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("max_welfare_without_fairness", n),
            &n,
            |b, _| {
                b.iter(|| {
                    MaxWelfare::without_fairness()
                        .allocate(std::hint::black_box(&pop), &capacity)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("max_welfare_with_fairness", n),
            &n,
            |b, _| {
                b.iter(|| {
                    MaxWelfare::with_fairness()
                        .allocate(std::hint::black_box(&pop), &capacity)
                        .unwrap()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("equal_slowdown", n), &n, |b, _| {
            b.iter(|| {
                EqualSlowdown::new()
                    .allocate(std::hint::black_box(&pop), &capacity)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_mechanisms
}
criterion_main!(benches);

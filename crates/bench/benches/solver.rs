//! Solver micro-benchmarks: a full GP solve of the paper's two-agent
//! Nash program, plus the fast-path comparisons — incremental row-append vs
//! refolding every row into a fresh factor, and warm- vs cold-started
//! GP solves of the weighted-Nash program over the scripted credit-market
//! drift ([`ref_bench::gp_drift`]) and, as the GP half of the
//! epoch-scaling curve, at 12 to 384 agents for that program and for
//! `credit-equal-slowdown`. The fast-path
//! groups assert agreement before timing (the same coefficient bits both
//! ways; 1e-6 allocations against the closed form, warm Newton iterations
//! no more than cold on any epoch, no hint abandoned; every point of the
//! curve against its oracle), so a numerical regression fails the bench
//! run rather than silently shifting the numbers. The incremental epoch
//! fit must also beat refactoring every epoch by at least 5x. CI runs
//! every bench once in `--test` mode (`cargo bench -p ref-bench --benches
//! -- --test`), so each of these gates fails the build. The
//! incremental factor's 1e-10 agreement with an independent algorithm
//! (Householder QR) is `ref-solver`'s `tests/proptest_update.rs`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use ref_bench::gp_drift;
use ref_core::mechanism::CreditInner;
use ref_solver::gp::{GeometricProgram, Monomial, Posynomial};
use ref_solver::UpdatableLstsq;

fn bench_solver(c: &mut Criterion) {
    c.bench_function("gp_solve_nash_2x2", |b| {
        b.iter(|| {
            let welfare = Monomial::new(1.0, vec![0.6, 0.4, 0.2, 0.8]).unwrap();
            let mut gp = GeometricProgram::minimize(4, welfare.reciprocal().into()).unwrap();
            gp.add_constraint(
                Posynomial::from_monomials(vec![
                    Monomial::new(1.0 / 24.0, vec![1.0, 0.0, 0.0, 0.0]).unwrap(),
                    Monomial::new(1.0 / 24.0, vec![0.0, 0.0, 1.0, 0.0]).unwrap(),
                ])
                .unwrap(),
            )
            .unwrap();
            gp.add_constraint(
                Posynomial::from_monomials(vec![
                    Monomial::new(1.0 / 12.0, vec![0.0, 1.0, 0.0, 0.0]).unwrap(),
                    Monomial::new(1.0 / 12.0, vec![0.0, 0.0, 0.0, 1.0]).unwrap(),
                ])
                .unwrap(),
            )
            .unwrap();
            gp.solve(&[6.0, 3.0, 6.0, 3.0]).unwrap()
        })
    });
}

/// Epoch-fit observation stream: raw 2-resource inputs and responses.
fn epoch_stream(epochs: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let inputs: Vec<Vec<f64>> = (0..epochs)
        .map(|i| {
            let a = 1.0 + 23.0 * ((i % 7) as f64) / 6.0;
            let b = 0.5 + 11.5 * ((i % 5) as f64) / 4.0;
            vec![a.ln(), b.ln()]
        })
        .collect();
    let ys: Vec<f64> = inputs
        .iter()
        .enumerate()
        .map(|(i, row)| 0.6 * row[0] + 0.4 * row[1] + 0.01 * (1.0 + i as f64).ln())
        .collect();
    (inputs, ys)
}

/// Minimum throughput ratio of the incremental epoch-fit loop over
/// rebuilding the least-squares problem every epoch.
const EPOCH_FIT_GATE: f64 = 5.0;

/// The epoch-fit loop without the fast path: refactorize from scratch
/// after every observation, folding every row so far into a fresh factor.
fn refactor_every_epoch(inputs: &[Vec<f64>], ys: &[f64]) -> f64 {
    let mut last = 0.0;
    for m in 4..=inputs.len() {
        let mut triangle = UpdatableLstsq::new(3);
        for (row, y) in std::hint::black_box(&inputs[..m]).iter().zip(ys) {
            triangle.append(&[1.0, row[0], row[1]], *y).unwrap();
        }
        last = triangle.solve().unwrap().coefficients()[1];
    }
    last
}

/// The epoch-fit loop every market agent runs: one Givens row appended to
/// the packed triangle per observation, then a refit.
fn append_every_epoch(inputs: &[Vec<f64>], ys: &[f64]) -> f64 {
    let mut triangle = UpdatableLstsq::new(3);
    let mut last = 0.0;
    for (m, (row, y)) in inputs.iter().zip(ys).enumerate() {
        triangle
            .append(std::hint::black_box(&[1.0, row[0], row[1]]), *y)
            .unwrap();
        if m + 1 >= 4 {
            last = triangle.solve().unwrap().coefficients()[1];
        }
    }
    last
}

fn bench_append_vs_refactor(c: &mut Criterion) {
    const EPOCHS: usize = 48;
    let (inputs, ys) = epoch_stream(EPOCHS);

    // Agreement gate: both loops fold the same rows in the same order, so
    // their final-epoch coefficients must be the same bits before any
    // timing is trusted.
    let (refactored, appended) = (
        refactor_every_epoch(&inputs, &ys),
        append_every_epoch(&inputs, &ys),
    );
    assert_eq!(
        refactored.to_bits(),
        appended.to_bits(),
        "incremental fit diverged from the refactored fit: {appended} vs {refactored}"
    );

    // Speed gate: the fastest of a few repetitions of each loop, so one
    // descheduled repetition cannot fail the run.
    let fastest = |epoch_fit: fn(&[Vec<f64>], &[f64]) -> f64| {
        (0..5)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..20 {
                    std::hint::black_box(epoch_fit(&inputs, &ys));
                }
                start.elapsed()
            })
            .min()
            .unwrap()
    };
    let ratio =
        fastest(refactor_every_epoch).as_secs_f64() / fastest(append_every_epoch).as_secs_f64();
    println!("append_vs_refactor: incremental epoch fit {ratio:.1}x faster");
    assert!(
        ratio >= EPOCH_FIT_GATE,
        "incremental epoch-fit speedup {ratio:.2}x is below the {EPOCH_FIT_GATE}x gate"
    );

    let mut group = c.benchmark_group("append_vs_refactor");
    group.bench_function("refactor_every_epoch", |b| {
        b.iter(|| refactor_every_epoch(&inputs, &ys))
    });
    group.bench_function("append_every_epoch", |b| {
        b.iter(|| append_every_epoch(&inputs, &ys))
    });
    group.finish();
}

fn bench_warm_vs_cold_gp(c: &mut Criterion) {
    // Agreement gate, on counts: the drift script solved both ways must
    // match the closed form, and a warm solve must never cost more Newton
    // iterations than the cold solve of the same epoch.
    let run = gp_drift::run();
    run.check().unwrap_or_else(|gate| panic!("{gate}: {run:?}"));

    let mut group = c.benchmark_group("warm_vs_cold_gp");
    group.bench_function("cold_every_epoch", |b| {
        b.iter(|| gp_drift::solve_all(std::hint::black_box(false)))
    });
    group.bench_function("warm_chain", |b| {
        b.iter(|| gp_drift::solve_all(std::hint::black_box(true)))
    });

    // The scaling curve: one epoch of the script at each size, cold and
    // from the previous epoch's optimum. Iterations ride along as a line
    // of their own; a per-solve time divided by them is a Newton iterate.
    for inner in [CreditInner::MaxWelfare, CreditInner::EqualSlowdown] {
        for agents in gp_drift::SCALING_AGENTS {
            let point = gp_drift::ScalingPoint::new(inner, agents);
            let (cold, warm) = point.check().unwrap_or_else(|gate| panic!("{gate}"));
            println!(
                "{} x {agents}: Newton iterations cold {}, warm {} ({:?})",
                point.label(),
                cold.newton_iterations,
                warm.newton_iterations,
                warm.warm
            );
            for (label, from_hint) in [("cold", false), ("warm", true)] {
                group.bench_function(format!("{}/{agents}/{label}", point.label()), |b| {
                    b.iter(|| point.solve(std::hint::black_box(from_hint)))
                });
            }
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_solver, bench_append_vs_refactor, bench_warm_vs_cold_gp
}
criterion_main!(benches);

//! Per-decision cost of the enforcement schedulers, and the cost of one
//! market epoch's stride enforcement (2,000 quanta) granted quantum by
//! quantum and in bulk. The bulk grant is asserted equal to the loop
//! before it is timed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ref_sched::{LotteryScheduler, StrideScheduler, WeightedFairQueue};

fn bench_schedulers(c: &mut Criterion) {
    let weights = vec![0.4, 0.3, 0.2, 0.1];
    let decisions = 10_000_u64;

    let mut group = c.benchmark_group("schedulers");
    group.throughput(Throughput::Elements(decisions));

    group.bench_function("wfq", |b| {
        b.iter(|| {
            let mut q: WeightedFairQueue<u64> = WeightedFairQueue::new(weights.clone()).unwrap();
            for i in 0..decisions {
                for cl in 0..weights.len() {
                    q.enqueue(cl, i, 1.0).unwrap();
                }
                q.dequeue();
            }
            q.service_shares()
        })
    });

    group.bench_function("lottery", |b| {
        b.iter(|| {
            let mut s = LotteryScheduler::new(weights.clone()).unwrap();
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            for _ in 0..decisions {
                s.draw(&mut rng);
            }
            s.service_shares()
        })
    });

    group.bench_function("stride", |b| {
        b.iter(|| {
            let mut s = StrideScheduler::new(weights.clone()).unwrap();
            for _ in 0..decisions {
                s.next_quantum();
            }
            s.service_shares()
        })
    });

    group.finish();

    let quanta = 2_000_u64;
    let mut group = c.benchmark_group("stride_epoch");
    group.throughput(Throughput::Elements(quanta));
    for clients in [48_usize, 2_000] {
        // Shares on a handful of levels, as a market's fitted shares tie.
        let raw: Vec<f64> = (0..clients).map(|i| 1.0 + (i % 5) as f64).collect();
        let total: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|r| r / total).collect();

        let mut looped = StrideScheduler::new(weights.clone()).unwrap();
        let mut ran = looped.clone();
        for _ in 0..quanta {
            looped.next_quantum();
        }
        ran.run(quanta);
        assert_eq!(ran.quanta(), looped.quanta(), "{clients} clients");
        for _ in 0..clients {
            assert_eq!(
                ran.next_quantum(),
                looped.next_quantum(),
                "{clients} clients"
            );
        }

        group.bench_with_input(
            BenchmarkId::new("stride_loop", clients),
            &weights,
            |b, w| {
                b.iter(|| {
                    let mut s = StrideScheduler::new(w.clone()).unwrap();
                    for _ in 0..quanta {
                        s.next_quantum();
                    }
                    s.service_shares()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("stride_run", clients), &weights, |b, w| {
            b.iter(|| {
                let mut s = StrideScheduler::new(w.clone()).unwrap();
                s.run(quanta);
                s.service_shares()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_schedulers
}
criterion_main!(benches);

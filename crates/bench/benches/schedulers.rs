//! Per-decision cost of the enforcement schedulers: 10,000 decisions of
//! WFQ, lottery and stride over four weighted clients.
//!
//! In `--test` mode (CI runs every bench once: `cargo bench -p ref-bench
//! --benches -- --test`) this asserts nothing of its own: it fails only
//! if a scheduler panics or the bench stops building.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
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
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_schedulers
}
criterion_main!(benches);

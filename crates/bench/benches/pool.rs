//! What a fan-out costs the caller: resolving the pool width, an empty
//! two-wide call (the overhead alone), and an epoch's two fan-outs at
//! 2,000 agents — two resources, then one cheap task per agent.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group.bench_function("threads", |b| b.iter(ref_pool::threads));
    group.bench_function("empty_fan_out_2_wide", |b| {
        b.iter(|| ref_pool::par_map_threads(2, 2, |i| i))
    });
    let mut agents = vec![0u64; 2_000];
    group.bench_function("epoch_fan_outs_2000_agents_2_wide", |b| {
        b.iter(|| {
            let resources = ref_pool::par_map_threads(2, 2, |r| {
                (0..2_000u64).fold(r as u64, |acc, q| acc.wrapping_mul(31).wrapping_add(q))
            });
            ref_pool::par_for_each_mut_threads(&mut agents, 2, |i, slot| {
                *slot = black_box(i as u64).wrapping_mul(0x9E37_79B9);
            });
            resources
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2_000);
    targets = bench_pool
}
criterion_main!(benches);

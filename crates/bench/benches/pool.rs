//! What a fan-out costs the caller: resolving the pool width, and an
//! empty two-wide call (the overhead alone: one scoped thread spawned and
//! joined), which the profiler grid and `fit_benchmarks` pay per sweep.
//!
//! In `--test` mode (CI runs every bench once: `cargo bench -p ref-bench
//! --benches -- --test`) it fails only if the pool panics or the bench
//! stops building.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("pool");
    group.bench_function("threads", |b| b.iter(ref_pool::threads));
    group.bench_function("empty_fan_out_2_wide", |b| {
        b.iter(|| ref_pool::par_map_threads(2, 2, |i| i))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2_000);
    targets = bench_pool
}
criterion_main!(benches);

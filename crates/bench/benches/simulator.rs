//! Simulator throughput: cost of the profiling substrate.
//!
//! One Fig. 8/9 reproduction simulates 25 configurations for each of 28
//! workloads, so instructions-per-second of the timing model bounds the
//! wall-clock of the whole evaluation.
//!
//! In `--test` mode (CI runs every bench once: `cargo bench -p ref-bench
//! --benches -- --test`) it makes one pass of the single-core runs and
//! the cache model: it fails only if the simulator panics or the bench
//! stops building.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ref_sim::cache::SetAssociativeCache;
use ref_sim::config::PlatformConfig;
use ref_sim::system::SingleCoreSystem;
use ref_workloads::profiles::by_name;

fn bench_simulator(c: &mut Criterion) {
    let platform = PlatformConfig::asplos14();
    let instructions = 50_000_u64;

    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(instructions));
    for name in ["histogram", "dedup"] {
        let bench = by_name(name).unwrap();
        group.bench_function(format!("single_core_{name}"), |b| {
            b.iter(|| {
                let mut sys = SingleCoreSystem::new(&platform);
                sys.run(bench.stream(1), std::hint::black_box(instructions))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("cache");
    let accesses = 100_000_u64;
    group.throughput(Throughput::Elements(accesses));
    group.bench_function("l2_access_stream", |b| {
        b.iter(|| {
            let mut cache = SetAssociativeCache::from_config(&platform.l2);
            for i in 0..accesses {
                let _ = cache.access(std::hint::black_box(i * 64 % (1 << 22)));
            }
            cache.stats()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_simulator
}
criterion_main!(benches);

//! Determinism proof for the parallel profiler: sweeping the grid with
//! one worker and with many workers must produce bit-identical
//! [`ProfileGrid`]s. The memo is disabled so every run actually
//! simulates — a memo hit would trivially make the comparison pass.

use proptest::prelude::*;
use ref_sim::config::PlatformConfig;
use ref_workloads::profiler::{profile, ProfilerOptions};
use ref_workloads::profiles::BENCHMARKS;

fn opts(seed: u64, threads: usize) -> ProfilerOptions {
    ProfilerOptions {
        warmup_instructions: 10_000,
        instructions: 15_000,
        seed,
        // 2 x 3 grid keeps each case fast while still giving the pool
        // several points to distribute.
        cache_sizes: PlatformConfig::l2_sweep()[..2].to_vec(),
        bandwidths: PlatformConfig::bandwidth_sweep()[..3].to_vec(),
        platform: PlatformConfig::asplos14(),
        threads: Some(threads),
        use_memo: false,
    }
}

fn grids_bit_identical(a: &ref_workloads::ProfileGrid, b: &ref_workloads::ProfileGrid) -> bool {
    a.workload == b.workload
        && a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(x, y)| {
            x.cache == y.cache
                && x.bandwidth.bytes_per_sec().to_bits() == y.bandwidth.bytes_per_sec().to_bits()
                && x.ipc.to_bits() == y.ipc.to_bits()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any benchmark, any seed, any worker count: the grid is the same
    /// bits as the serial sweep.
    #[test]
    fn thread_count_never_changes_the_grid(
        bench_idx in 0usize..28,
        seed in 0u64..u64::MAX,
        threads in 2usize..6,
    ) {
        let bench = &BENCHMARKS[bench_idx];
        let serial = profile(bench, &opts(seed, 1));
        let parallel = profile(bench, &opts(seed, threads));
        prop_assert!(
            grids_bit_identical(&serial, &parallel),
            "grid for {} diverged at {} threads", bench.name, threads
        );
    }
}

/// The global-width path (`threads: None`) agrees with the serial path
/// too — this is the configuration every experiment binary runs.
#[test]
fn default_width_matches_serial() {
    let bench = &BENCHMARKS[0];
    let serial = profile(bench, &opts(7, 1));
    let mut global = opts(7, 1);
    global.threads = None;
    let parallel = profile(bench, &global);
    assert!(grids_bit_identical(&serial, &parallel));
}

/// Memo hits return the same bits the simulation produced: a memo-on
/// run after a memo-off run is still identical.
#[test]
fn memo_is_transparent() {
    let bench = &BENCHMARKS[3];
    let cold = profile(bench, &opts(11, 2));
    let mut warm_opts = opts(11, 2);
    warm_opts.use_memo = true;
    let warm_a = profile(bench, &warm_opts); // populates the memo
    let warm_b = profile(bench, &warm_opts); // served from the memo
    assert!(grids_bit_identical(&cold, &warm_a));
    assert!(grids_bit_identical(&cold, &warm_b));
}

//! Performance-trajectory harness: times the profiling pipeline serial
//! vs parallel, measures raw simulator throughput, exercises the
//! simulation memo, benchmarks the solver fast path (incremental refits
//! and warm-started GP solves), and emits `BENCH_pipeline.json` so
//! successive revisions can be compared.
//!
//! ```text
//! cargo run --release -p ref-bench --bin perf_report           # full
//! cargo run --release -p ref-bench --bin perf_report -- --quick
//! cargo run --release -p ref-bench --bin perf_report -- --jobs 8
//! ```
//!
//! Every parallel sweep is checked bit-for-bit against its serial twin
//! before any timing is reported; a divergence aborts the run. Two
//! speedup figures are recorded: `speedup_quick` times the tiny
//! quick-config tasks — those are dominated by pool dispatch overhead
//! and sit near 1.0x no matter how many cores exist — while
//! `speedup_scaled` times tasks big enough to amortize dispatch, and is
//! the honest parallelism figure.
//! The JSON also records `host_threads` so downstream tooling can tell
//! "no speedup" from "no parallelism available".
//!
//! The `solver_microbench` section gates the solver fast path: the
//! incremental (Givens row-append) epoch-fit loop must beat rebuilding
//! the least-squares problem from scratch every epoch by at least
//! [`EPOCH_FIT_GATE`]x while agreeing to 1e-10, and over the scripted
//! credit-market drift ([`ref_bench::gp_drift`]) warm-started GP solves
//! must never take more Newton iterations than cold ones, abandon no
//! hint, and land within 1e-6 of the closed-form optimum. Those GP gates
//! are counts, which repeat exactly; the GP wall times are reported only.

use std::time::Instant;

use ref_bench::gp_drift;
use ref_bench::pipeline::init_jobs;
use ref_sim::config::PlatformConfig;
use ref_sim::system::SingleCoreSystem;
use ref_solver::{lstsq, UpdatableLstsq};
use ref_workloads::memo;
use ref_workloads::profiler::{profile, ProfileGrid, ProfilerOptions};
use ref_workloads::profiles::{Benchmark, BENCHMARKS};

/// Benchmarks covered by the sweep timings: a slice of the suite large
/// enough to keep every worker busy.
const SWEEP_BENCHMARKS: usize = 8;

/// Benchmarks covered by the scaled sweep under `--quick`: full-size
/// tasks, but few enough of them to keep the quick run fast.
const SCALED_QUICK_BENCHMARKS: usize = 3;

/// Minimum incremental-over-batch epoch-fit throughput ratio.
const EPOCH_FIT_GATE: f64 = 5.0;

fn sweep_options(quick: bool, threads: Option<usize>, use_memo: bool) -> ProfilerOptions {
    let (warmup, instructions) = if quick {
        (20_000, 30_000)
    } else {
        (80_000, 150_000)
    };
    ProfilerOptions {
        warmup_instructions: warmup,
        instructions,
        threads,
        use_memo,
        ..ProfilerOptions::default()
    }
}

fn sweep(benches: &[&Benchmark], opts: &ProfilerOptions) -> (Vec<ProfileGrid>, f64) {
    let start = Instant::now();
    let grids = benches.iter().map(|b| profile(b, opts)).collect();
    (grids, start.elapsed().as_secs_f64())
}

fn grids_identical(a: &[ProfileGrid], b: &[ProfileGrid]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.workload == y.workload
                && x.points.len() == y.points.len()
                && x.points
                    .iter()
                    .zip(&y.points)
                    .all(|(p, q)| p.ipc.to_bits() == q.ipc.to_bits())
        })
}

/// Raw simulator throughput: simulated cycles per wall-clock second on
/// the Table-1 platform.
fn sim_cycles_per_sec(quick: bool) -> f64 {
    let instructions = if quick { 200_000 } else { 1_000_000 };
    let platform = PlatformConfig::asplos14();
    let bench = &BENCHMARKS[0];
    let start = Instant::now();
    let mut system = SingleCoreSystem::new(&platform);
    let report = system.run(bench.stream(1), instructions);
    report.cycles / start.elapsed().as_secs_f64()
}

/// Times one serial/parallel sweep pair, aborting on any bitwise grid
/// divergence, and returns the serial grids plus both wall times.
fn sweep_pair(
    label: &str,
    benches: &[&Benchmark],
    quick: bool,
    threads: usize,
) -> (Vec<ProfileGrid>, f64, f64) {
    let (serial_grids, serial_secs) = sweep(benches, &sweep_options(quick, Some(1), false));
    let (parallel_grids, parallel_secs) = sweep(benches, &sweep_options(quick, None, false));
    if !grids_identical(&serial_grids, &parallel_grids) {
        eprintln!("FATAL: {label} parallel sweep diverged from serial sweep");
        std::process::exit(1);
    }
    println!(
        "{label} sweep ({} benchmarks): serial {serial_secs:.3} s, \
         parallel ({threads} threads) {parallel_secs:.3} s, {:.2}x",
        benches.len(),
        serial_secs / parallel_secs
    );
    (serial_grids, serial_secs, parallel_secs)
}

/// Solver fast-path microbenchmark results.
struct SolverMicrobench {
    epochs: usize,
    batch_fit_secs: f64,
    incremental_fit_secs: f64,
    epoch_fit_speedup: f64,
    fit_divergence: f64,
    gp: gp_drift::DriftRun,
}

/// The epoch-fit loop every market agent runs: one new observation per
/// epoch, refit after each. The batch path rebuilds the design matrix
/// and refactorizes from scratch (what `OnlineEstimator` did before the
/// fast path); the incremental path appends one Givens row to the packed
/// triangle. Both produce the same coefficients to near machine
/// precision — the divergence is measured at the final epoch.
fn epoch_fit_bench(quick: bool) -> (f64, f64, f64, usize) {
    let epochs = if quick { 48 } else { 96 };
    let reps = if quick { 40 } else { 60 };
    // Synthetic 2-resource Cobb-Douglas observations in log space, the
    // exact shape the market's estimator fits.
    let inputs: Vec<Vec<f64>> = (0..epochs)
        .map(|i| {
            let a = 1.0 + 23.0 * f64::from(i as u32 % 7) / 6.0;
            let b = 0.5 + 11.5 * f64::from(i as u32 % 5) / 4.0;
            vec![a.ln(), b.ln()]
        })
        .collect();
    let ys: Vec<f64> = inputs
        .iter()
        .enumerate()
        .map(|(i, row)| 0.6 * row[0] + 0.4 * row[1] + 0.01 * (1.0 + (i as f64)).ln())
        .collect();

    let mut batch_coefs = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        for m in 4..=epochs {
            let design = lstsq::design_with_intercept(&inputs[..m]).expect("design");
            let fit = lstsq::fit(&design, &ys[..m]).expect("batch fit");
            if m == epochs {
                batch_coefs = fit.coefficients().to_vec();
            }
        }
    }
    let batch_secs = start.elapsed().as_secs_f64() / reps as f64;

    let mut incr_coefs = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        let mut triangle = UpdatableLstsq::new(3);
        for (m, (row, y)) in inputs.iter().zip(&ys).enumerate() {
            triangle
                .append(&[1.0, row[0], row[1]], *y)
                .expect("finite row");
            if m + 1 >= 4 {
                let fit = triangle.solve().expect("incremental fit");
                if m + 1 == epochs {
                    incr_coefs = fit.coefficients().to_vec();
                }
            }
        }
    }
    let incr_secs = start.elapsed().as_secs_f64() / reps as f64;

    let divergence = batch_coefs
        .iter()
        .zip(&incr_coefs)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    (batch_secs, incr_secs, divergence, epochs)
}

/// Runs both solver microbenches and enforces the fast-path gates.
fn solver_microbench(quick: bool) -> SolverMicrobench {
    let (batch_fit_secs, incremental_fit_secs, fit_divergence, epochs) = epoch_fit_bench(quick);
    let epoch_fit_speedup = batch_fit_secs / incremental_fit_secs;
    println!(
        "solver epoch-fit ({epochs} epochs): batch {:.3} ms, incremental {:.3} ms, \
         {epoch_fit_speedup:.1}x (max coefficient divergence {fit_divergence:.2e})",
        batch_fit_secs * 1e3,
        incremental_fit_secs * 1e3
    );
    if epoch_fit_speedup < EPOCH_FIT_GATE {
        eprintln!(
            "FATAL: incremental epoch-fit speedup {epoch_fit_speedup:.2}x \
             is below the {EPOCH_FIT_GATE}x gate"
        );
        std::process::exit(1);
    }
    if fit_divergence > 1e-10 {
        eprintln!("FATAL: incremental fit diverged from batch fit by {fit_divergence:.2e}");
        std::process::exit(1);
    }

    let gp = gp_drift::run();
    let (cold_iters, warm_iters): (usize, usize) = (
        gp.cold_newton_iters.iter().sum(),
        gp.warm_newton_iters.iter().sum(),
    );
    println!(
        "solver GP credit drift ({} agents x {} epochs): cold {cold_iters} Newton iterations \
         ({:.3} ms), warm {warm_iters} ({:.3} ms), {} hint(s) abandoned \
         (max divergence from the closed form {:.2e})",
        gp_drift::AGENTS,
        gp_drift::EPOCHS,
        gp.cold_secs * 1e3,
        gp.warm_secs * 1e3,
        gp.warm_fallbacks,
        gp.divergence
    );
    if let Err(gate) = gp.check() {
        eprintln!("FATAL: {gate}");
        std::process::exit(1);
    }

    SolverMicrobench {
        epochs,
        batch_fit_secs,
        incremental_fit_secs,
        epoch_fit_speedup,
        fit_divergence,
        gp,
    }
}

fn main() {
    let rest = init_jobs();
    let quick = rest.iter().any(|a| a == "--quick");
    if let Some(unknown) = rest.iter().find(|a| *a != "--quick") {
        eprintln!("unknown argument {unknown:?}; supported: --quick, --jobs N");
        std::process::exit(2);
    }
    let threads = ref_pool::threads();
    let benches: Vec<&Benchmark> = BENCHMARKS.iter().take(SWEEP_BENCHMARKS).collect();
    println!(
        "perf_report: {} benchmarks x 25-point grid, pool width {threads}{}",
        benches.len(),
        if quick { " (quick)" } else { "" }
    );

    let cps = sim_cycles_per_sec(quick);
    println!(
        "simulator throughput: {:.2}M simulated cycles/sec",
        cps / 1e6
    );

    // Quick-size tasks are dispatch-bound; their speedup is reported but
    // never treated as the parallelism figure.
    let (quick_grids, serial_quick_secs, parallel_quick_secs) =
        sweep_pair("quick-size", &benches, true, threads);
    let speedup_quick = serial_quick_secs / parallel_quick_secs;

    // Scaled tasks amortize dispatch; under --quick, fewer benchmarks at
    // full size keep the wall time bounded.
    let scaled_benches: Vec<&Benchmark> = if quick {
        benches
            .iter()
            .copied()
            .take(SCALED_QUICK_BENCHMARKS)
            .collect()
    } else {
        benches.clone()
    };
    let (scaled_grids, serial_scaled_secs, parallel_scaled_secs) =
        sweep_pair("scaled", &scaled_benches, false, threads);
    let speedup_scaled = serial_scaled_secs / parallel_scaled_secs;

    // Memo: a cold pass populates it, a warm pass should be ~free. The
    // memoised grids are compared against the matching plain sweep.
    let (memo_reference, memo_quick) = if quick {
        (&quick_grids, true)
    } else {
        (&scaled_grids, false)
    };
    memo::clear();
    let memo_opts = sweep_options(memo_quick, None, true);
    let (_, cold_secs) = sweep(&benches, &memo_opts);
    let (warm_grids, warm_secs) = sweep(&benches, &memo_opts);
    let stats = memo::stats();
    if !grids_identical(
        memo_reference,
        &warm_grids[..memo_reference.len().min(warm_grids.len())],
    ) {
        eprintln!("FATAL: memoised sweep diverged from plain sweep");
        std::process::exit(1);
    }
    println!(
        "memo: cold {cold_secs:.3} s, warm {warm_secs:.3} s, {} hits / {} misses ({:.0}% hit rate)",
        stats.hits,
        stats.misses,
        100.0 * stats.hit_rate()
    );

    let solver = solver_microbench(quick);

    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"host_threads\": {threads},\n  \
         \"benchmarks\": {},\n  \"grid_points\": 25,\n  \
         \"sim_cycles_per_sec\": {cps:.0},\n  \
         \"serial_secs\": {serial_quick_secs:.6},\n  \"parallel_secs\": {parallel_quick_secs:.6},\n  \
         \"speedup_quick\": {speedup_quick:.3},\n  \"speedup_scaled\": {speedup_scaled:.3},\n  \
         \"scaled_serial_secs\": {serial_scaled_secs:.6},\n  \
         \"scaled_parallel_secs\": {parallel_scaled_secs:.6},\n  \
         \"scaled_benchmarks\": {},\n  \
         \"memo_cold_secs\": {cold_secs:.6},\n  \"memo_warm_secs\": {warm_secs:.6},\n  \
         \"memo_hits\": {},\n  \"memo_misses\": {},\n  \
         \"solver_microbench\": {{\n    \
         \"epoch_fits\": {},\n    \
         \"batch_fit_secs\": {:.6},\n    \"incremental_fit_secs\": {:.6},\n    \
         \"epoch_fit_speedup\": {:.2},\n    \"fit_divergence\": {:.3e},\n    \
         \"gp_cold_newton_iters\": {},\n    \"gp_warm_newton_iters\": {},\n    \
         \"gp_warm_fallbacks\": {},\n    \"gp_warm_divergence\": {:.3e},\n    \
         \"gp_cold_secs\": {:.6},\n    \"gp_warm_secs\": {:.6}\n  }},\n  \
         \"bit_identical\": true\n}}\n",
        benches.len(),
        scaled_benches.len(),
        stats.hits,
        stats.misses,
        solver.epochs,
        solver.batch_fit_secs,
        solver.incremental_fit_secs,
        solver.epoch_fit_speedup,
        solver.fit_divergence,
        solver.gp.cold_newton_iters.iter().sum::<usize>(),
        solver.gp.warm_newton_iters.iter().sum::<usize>(),
        solver.gp.warm_fallbacks,
        solver.gp.divergence,
        solver.gp.cold_secs,
        solver.gp.warm_secs
    );
    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    println!("wrote BENCH_pipeline.json");
}

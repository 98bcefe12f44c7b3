//! Determinism proof for the fault simulator: the whole point of DST
//! is that a seed IS the run. Re-running any seed must reproduce the
//! per-event trace bit-identically (same FNV hash, same lines, same
//! violations), and distinct seeds must actually explore distinct
//! executions rather than collapsing onto one trajectory.

use proptest::prelude::*;
use ref_dst::{run_seed, RunOutcome, SimOptions};

fn quick() -> SimOptions {
    SimOptions {
        quick: true,
        break_invariant: None,
    }
}

fn outcomes_bit_identical(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.trace_hash == b.trace_hash
        && a.trace == b.trace
        && a.violations == b.violations
        && a.sim_events == b.sim_events
        && a.acked_events == b.acked_events
        && a.quorum_freezes == b.quorum_freezes
        && a.partial_rounds == b.partial_rounds
        && a.restores == b.restores
        && a.held == b.held
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same seed, two fresh simulators: byte-identical trace hash and
    /// event-for-event identical traces. Nothing may leak in from wall
    /// clocks, map iteration order, or allocator addresses.
    #[test]
    fn same_seed_is_bit_identical(seed in 0u64..20_000) {
        let first = run_seed(seed, &quick());
        let again = run_seed(seed, &quick());
        prop_assert!(
            outcomes_bit_identical(&first, &again),
            "seed {seed}: reruns disagree ({:016x} vs {:016x})",
            first.trace_hash,
            again.trace_hash
        );
        prop_assert!(first.violations.is_empty(), "seed {seed}: {:?}", first.violations);
    }

    /// Adjacent seeds diverge: the seed feeds the schedule, the
    /// network, and the jitter, so two different seeds virtually never
    /// hash to the same trace. (A collision here would mean the seed
    /// is not actually reaching the simulation.)
    #[test]
    fn different_seeds_explore_different_runs(seed in 0u64..20_000) {
        let a = run_seed(seed, &quick());
        let b = run_seed(seed + 1, &quick());
        prop_assert!(
            a.trace_hash != b.trace_hash,
            "seeds {} and {} produced the same trace hash",
            seed,
            seed + 1
        );
    }
}

//! A slice of the deterministic fleet simulation in tier-1: the real
//! `ReplCore` and `RouterCore` under seeded crashes, partitions, torn
//! writes, divergence and delay storms. A band of seeds must hold every
//! standing invariant, and each deliberately broken invariant must be
//! caught — so a protocol regression fails `cargo test -q`, not only
//! the CI sweep.

use ref_dst::{run_seed, BreakKind, SimOptions};

fn options(break_invariant: Option<BreakKind>) -> SimOptions {
    SimOptions {
        quick: true,
        break_invariant,
    }
}

#[test]
fn a_band_of_seeds_holds_every_invariant() {
    let mut acked = 0;
    for seed in 0..25 {
        let outcome = run_seed(seed, &options(None));
        assert!(
            outcome.violations.is_empty(),
            "seed {seed} violated {:?}\ntrace tail: {:#?}",
            outcome.violations,
            outcome.trace.iter().rev().take(30).collect::<Vec<_>>()
        );
        acked += outcome.acked_events;
    }
    assert!(acked > 0, "25 seeds never acked a client event");
}

/// The first seed in `0..60` on which `kind` is caught, with the
/// violations it produced.
fn caught(kind: BreakKind) -> (u64, Vec<String>) {
    (0..60)
        .map(|seed| (seed, run_seed(seed, &options(Some(kind))).violations))
        .find(|(_, violations)| !violations.is_empty())
        .unwrap_or_else(|| panic!("{kind:?} was never caught in 60 seeds"))
}

#[test]
fn eager_acks_are_caught_as_lost_events() {
    let (seed, violations) = caught(BreakKind::AckUnreplicated);
    assert!(
        violations.iter().any(|v| v.contains("acked event")),
        "seed {seed}: {violations:?}"
    );
}

#[test]
fn fairness_merged_on_partial_rounds_is_caught() {
    let (seed, violations) = caught(BreakKind::SiDuringPartial);
    assert!(
        violations.iter().any(|v| v.contains("partial round")),
        "seed {seed}: {violations:?}"
    );
}

//! A slice of the deterministic fleet simulation in tier-1: the real
//! `ReplCore`, replication `Session` and `RouterCore` — replication,
//! catch-up, routing and the node rules (fan, supervisor,
//! restart-or-failover, heartbeats) — under seeded
//! crashes, panics, partitions, torn writes, divergence and delay
//! storms. A band of seeds must hold every standing invariant and replay
//! to a pinned trace hash, and each deliberately broken invariant must be
//! caught — so a protocol regression fails `cargo test -q`, not only the
//! CI sweep, and any change to a node rule shows up as a deliberate
//! golden update.

use ref_dst::{run_seed, BreakKind, SimOptions};

fn options(break_invariant: Option<BreakKind>) -> SimOptions {
    SimOptions {
        quick: true,
        break_invariant,
    }
}

/// FNV-1a over the band's per-seed trace hashes (little-endian), as
/// `dst_sweep` folds its `fleet_trace_hash`.
const BAND_TRACE_GOLDEN: u64 = 0x6456_FAA7_FCDE_DE68;

#[test]
fn a_band_of_seeds_holds_every_invariant() {
    let (mut acked, mut restores, mut held) = (0, 0, 0);
    let mut band = 0xCBF2_9CE4_8422_2325u64;
    for seed in 0..25 {
        let outcome = run_seed(seed, &options(None));
        assert!(
            outcome.violations.is_empty(),
            "seed {seed} violated {:?}\ntrace tail: {:#?}",
            outcome.violations,
            outcome.trace.iter().rev().take(30).collect::<Vec<_>>()
        );
        acked += outcome.acked_events;
        restores += outcome.restores;
        held += outcome.held;
        for byte in outcome.trace_hash.to_le_bytes() {
            band = (band ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    assert!(acked > 0, "25 seeds never acked a client event");
    // The session's two catch-up paths both run: a standby behind the
    // pruned log is bootstrapped from a `snap`, and live records wait
    // in the hold while a catch-up streams.
    assert!(
        restores > 0,
        "25 seeds never bootstrapped a standby from a snap"
    );
    assert!(held > 0, "25 seeds never held a record during a catch-up");
    assert_eq!(
        band, BAND_TRACE_GOLDEN,
        "the band's trace changed ({band:016x}): a node or protocol rule moved"
    );
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
fn a_panicked_primary_that_keeps_heartbeating_is_caught_as_a_dead_shard() {
    let (seed, violations) = caught(BreakKind::HeartbeatWhileDown);
    assert!(
        violations.iter().any(|v| v.contains("after settle")),
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

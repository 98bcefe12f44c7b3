//! Property tests: random join/leave/tick interleavings never oversubscribe
//! capacity and never starve a live agent.

use proptest::prelude::*;

use ref_core::mechanism::CreditInner;
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;
use ref_market::{MarketConfig, MarketEngine, MarketEvent, MechanismKind, ObservationSource};

/// Decoded op: 0 = join, 1 = leave, 2 = tick.
fn drive(ops: &[(u32, u32, u32)], capacity: &[f64], seed: u64) -> Result<(), TestCaseError> {
    drive_with(ops, capacity, seed, MechanismKind::ProportionalElasticity)
}

fn drive_with(
    ops: &[(u32, u32, u32)],
    capacity: &[f64],
    seed: u64,
    mechanism: MechanismKind,
) -> Result<(), TestCaseError> {
    let capacity = Capacity::new(capacity.to_vec()).expect("positive capacity");
    let config = MarketConfig::new(capacity.clone())
        .with_seed(seed)
        .with_mechanism(mechanism);
    let mut market = MarketEngine::new(config).expect("valid config");

    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut events = Vec::new();
    for &(kind, pick, frac) in ops {
        match kind {
            0 => {
                // Join with a fresh id and strictly interior elasticities,
                // so every live agent demands every resource.
                let e0 = f64::from(frac) / 100.0;
                let source = ObservationSource::GroundTruth(
                    CobbDouglas::new(1.0, vec![e0, 1.0 - e0]).expect("interior elasticities"),
                );
                next_id += 1;
                live.push(next_id);
                events.push(MarketEvent::AgentJoined {
                    id: next_id,
                    source,
                });
            }
            1 => {
                if !live.is_empty() {
                    let id = live.remove(pick as usize % live.len());
                    events.push(MarketEvent::AgentLeft { id });
                }
            }
            _ => events.push(MarketEvent::EpochTick),
        }
    }
    // Always finish on a tick so the final population gets an allocation.
    events.push(MarketEvent::EpochTick);

    let mut reports = Vec::new();
    for event in events {
        let report = market.apply_now(event).expect("every event is valid");
        reports.extend(report);
    }
    prop_assert!(!reports.is_empty());
    for report in &reports {
        let Some(alloc) = &report.allocation else {
            prop_assert!(report.agents.is_empty());
            continue;
        };
        prop_assert_eq!(alloc.num_agents(), report.agents.len());
        // Total allocated never exceeds capacity.
        for r in 0..capacity.num_resources() {
            let used: f64 = alloc.bundles().iter().map(|b| b.get(r)).sum();
            prop_assert!(
                used <= capacity.get(r) * (1.0 + 1e-9),
                "epoch {}: resource {r} oversubscribed: {used} > {}",
                report.epoch,
                capacity.get(r)
            );
        }
        // Every live agent holds a strictly positive share of everything.
        for (i, bundle) in alloc.bundles().iter().enumerate() {
            for r in 0..bundle.num_resources() {
                prop_assert!(
                    bundle.get(r) > 0.0,
                    "epoch {}: agent {} starved on resource {r}",
                    report.epoch,
                    report.agents[i]
                );
            }
        }
    }
    // The final population matches the locally tracked live set.
    let mut expected = live.clone();
    expected.sort_unstable();
    prop_assert_eq!(market.live_agents(), expected);

    // Ledger conservation: accrual is mean-centered (zero-sum), settlement
    // redistributes departing balances, and clamp residuals are handed back
    // equally, so across any churn the balances sum to ~0 up to floating
    // error (decay only shrinks whatever residue remains).
    let ledger = market.ledger();
    prop_assert_eq!(ledger.len(), market.num_live_agents());
    let epochs = market.metrics().epochs as f64;
    let tolerance = 1e-9 * (1.0 + epochs);
    prop_assert!(
        ledger.total().abs() <= tolerance,
        "ledger drifted: sum {} over {epochs} epochs (tolerance {tolerance})",
        ledger.total()
    );
    // The cap is soft: settlement spikes and clamp-residual redistribution
    // can briefly overshoot it, but never by more than another cap's worth,
    // and the weight tilt clamps independently.
    prop_assert!(ledger.max_abs() <= 2.0 * ref_market::ledger::CREDIT_CAP);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleavings_never_oversubscribe_or_starve(
        ops in proptest::collection::vec((0u32..3, 0u32..16, 1u32..100), 1..40),
        seed in 0u64..1_000_000,
    ) {
        drive(&ops, &[24.0, 12.0], seed)?;
    }

    #[test]
    fn interleavings_hold_on_asymmetric_capacities(
        ops in proptest::collection::vec((0u32..3, 0u32..16, 1u32..100), 1..25),
        cap0 in 1.0f64..100.0,
        cap1 in 0.5f64..50.0,
    ) {
        drive(&ops, &[cap0, cap1], 11)?;
    }
}

proptest! {
    // The credit mechanism solves a GP per reallocation, so keep the
    // case count modest; conservation and the cap bound are checked by
    // the shared driver either way.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn credit_markets_conserve_the_ledger_across_churn(
        ops in proptest::collection::vec((0u32..3, 0u32..16, 1u32..100), 1..20),
        seed in 0u64..1_000_000,
    ) {
        drive_with(
            &ops,
            &[24.0, 12.0],
            seed,
            MechanismKind::Credit { inner: CreditInner::MaxWelfare },
        )?;
    }
}

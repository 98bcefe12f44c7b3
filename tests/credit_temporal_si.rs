//! Temporal sharing incentives of the credit market, on the engine and
//! without sockets. Per-epoch REF guarantees every agent its equal-share
//! utility *within* an epoch, but an agent whose demand just changed is
//! served off a stale estimate and eats the reconvergence gap. The credit
//! ledger meters that gap and tilts later epochs toward the under-served,
//! so a window's cumulative utility tracks the cumulative equal share.
//!
//! Three deterministic traces run through per-epoch REF
//! (`max-welfare-fair`), `equal-slowdown` and `credit-max-welfare`:
//!
//! * **bursty**: half the population flips its demanded resource in
//!   synchronised bursts, with join/leave churn. Credit must have strictly
//!   fewer temporal-SI violations than per-epoch REF, and REF must have
//!   some — otherwise the trace opened no gap and proves nothing.
//! * **steady**: fixed demands, no churn. Credit must have none: the
//!   ledger may not invent unfairness where per-epoch REF suffices.
//! * **diurnal**: every agent's elasticities drift on a slow sinusoid.
//!
//! Every run must end with the ledger conserved (`|sum| <= 1e-6`).

use ref_fairness::core::resource::Capacity;
use ref_fairness::core::utility::CobbDouglas;
use ref_fairness::market::{
    MarketConfig, MarketEngine, MarketEvent, MechanismKind, ObservationSource,
};

/// Epochs per run: four bursts.
const EPOCHS: u64 = 96;
/// Temporal window (epochs) the ledger audits over.
const WINDOW: u64 = 8;
/// Fraction of the cumulative equal share a window may fall short by
/// before it counts as a violation.
const SLACK: f64 = 0.03;
/// Warm-up after any membership or demand change; shorter than the
/// window, or every post-burst gap would be excused as warm-up.
const WARMUP: u64 = 2;
/// Epochs between demand bursts (bursty) and re-declarations (diurnal).
const PERIOD: u64 = 24;
/// Conservation bound on the final ledger sum.
const DRIFT_BOUND: f64 = 1e-6;

const TRACES: [&str; 3] = ["bursty", "steady", "diurnal"];
const REF: &str = "max-welfare-fair";
const CREDIT: &str = "credit-max-welfare";
const MECHANISMS: [&str; 3] = [REF, "equal-slowdown", CREDIT];

fn join(id: u64, e0: f64) -> MarketEvent {
    MarketEvent::AgentJoined {
        id,
        source: ObservationSource::GroundTruth(truth(e0)),
    }
}

fn flip(id: u64, e0: f64) -> MarketEvent {
    MarketEvent::DemandChanged {
        id,
        new_truth: Some(truth(e0)),
    }
}

fn truth(e0: f64) -> CobbDouglas {
    CobbDouglas::new(1.0, vec![e0, 1.0 - e0]).unwrap()
}

/// For each epoch, the control events submitted before its tick.
fn trace(name: &str) -> Vec<Vec<MarketEvent>> {
    let mut trace: Vec<Vec<MarketEvent>> = (0..EPOCHS).map(|_| Vec::new()).collect();
    // Epochs at which a burst or re-declaration lands, with its ordinal.
    let beats = (1..)
        .map(|k| (k, k * PERIOD))
        .take_while(|(_, t)| *t < EPOCHS);
    match name {
        // Agents 1-3 flip between wanting resource 0 and resource 1 in
        // synchronised bursts; agents 4-6 want resource 1 throughout. In
        // the flipped phase all six contend for resource 1 while the stale
        // estimates still steer 1-3 toward resource 0: a real
        // reconvergence gap every burst. A churner joins and leaves inside
        // each period so settlement runs under membership change.
        "bursty" => {
            let flippers = [(1, 0.8), (2, 0.75), (3, 0.7)];
            for (i, e0) in flippers.into_iter().chain([(4, 0.3), (5, 0.25), (6, 0.2)]) {
                trace[0].push(join(i, e0));
            }
            for (k, burst) in beats {
                for (i, e0) in flippers {
                    let e = if k % 2 == 1 { 1.0 - e0 } else { e0 };
                    trace[burst as usize].push(flip(i, e));
                }
                let churner = 100 + k;
                if burst + 5 < EPOCHS {
                    trace[(burst + 5) as usize].push(join(churner, 0.5));
                }
                if burst + PERIOD - 5 < EPOCHS {
                    trace[(burst + PERIOD - 5) as usize]
                        .push(MarketEvent::AgentLeft { id: churner });
                }
            }
        }
        "steady" => {
            for (i, e0) in [
                (1, 0.8),
                (2, 0.65),
                (3, 0.55),
                (4, 0.45),
                (5, 0.35),
                (6, 0.2),
            ] {
                trace[0].push(join(i, e0));
            }
        }
        // Re-declared every PERIOD epochs with staggered phases.
        "diurnal" => {
            let e_at = |i: u64, t: u64| {
                let phase =
                    std::f64::consts::TAU * (t as f64 / (4.0 * PERIOD as f64) + i as f64 / 6.0);
                0.5 + 0.3 * phase.sin()
            };
            for i in 1..=6 {
                trace[0].push(join(i, e_at(i, 0)));
            }
            for (_, t) in beats {
                for i in 1..=6 {
                    trace[t as usize].push(flip(i, e_at(i, t)));
                }
            }
        }
        other => unreachable!("unknown trace {other}"),
    }
    trace
}

/// Drives one trace through one mechanism; returns the temporal-SI
/// violation count and the final ledger sum.
fn run(label: &str, trace: &[Vec<MarketEvent>]) -> (u64, f64) {
    let config = MarketConfig::new(Capacity::new(vec![12.0, 6.0]).unwrap())
        .with_mechanism(MechanismKind::from_label(label).unwrap())
        .with_seed(0x0C_0FFEE)
        .with_warmup_epochs(WARMUP)
        .with_temporal_window(WINDOW)
        .with_temporal_slack(SLACK);
    let mut market = MarketEngine::new(config).unwrap();
    for controls in trace {
        for event in controls {
            market.apply_now(event.clone()).unwrap();
        }
        market.apply_now(MarketEvent::EpochTick).unwrap();
    }
    (
        market.metrics().temporal_si_violations,
        market.ledger().total(),
    )
}

#[test]
fn credit_repairs_the_gaps_per_epoch_ref_leaves_and_conserves_its_ledger() {
    let mut violations = std::collections::BTreeMap::new();
    for name in TRACES {
        let trace = trace(name);
        for label in MECHANISMS {
            let (count, ledger_total) = run(label, &trace);
            eprintln!("{name:>7}/{label:<18} violations={count:<4} ledger_sum={ledger_total:+.2e}");
            assert!(
                ledger_total.abs() <= DRIFT_BOUND,
                "{name}/{label}: ledger sum {ledger_total:e} is not conserved"
            );
            violations.insert((name, label), count);
        }
    }
    let (bursty_ref, bursty_credit) = (
        violations[&("bursty", REF)],
        violations[&("bursty", CREDIT)],
    );
    assert!(
        bursty_ref > 0,
        "the bursty trace opened no gap for per-epoch REF"
    );
    assert!(
        bursty_credit < bursty_ref,
        "credit ({bursty_credit}) must beat per-epoch REF ({bursty_ref}) on the bursty trace"
    );
    assert_eq!(
        violations[&("steady", CREDIT)],
        0,
        "credit invented violations on the steady trace"
    );
}

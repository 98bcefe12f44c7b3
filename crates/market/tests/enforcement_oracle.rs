//! Every epoch's enforcement summary against an oracle that grants the
//! epoch's quanta one at a time: a fresh stride scheduler over the report's
//! own targets, floored as the engine floors them, driven by
//! `next_quantum`. The achieved shares and the worst deviation must match
//! bit for bit, whatever way the engine grants the quanta.

use ref_core::mechanism::CreditInner;
use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;
use ref_market::{
    EpochReport, MarketConfig, MarketEngine, MarketEvent, MechanismKind, ObservationSource,
};
use ref_sched::StrideScheduler;

/// The floor the engine puts under a vanishing share.
const MIN_STRIDE_WEIGHT: f64 = 1e-9;

const EPOCHS: u64 = 30;

fn truth(id: u64, salt: u64) -> ObservationSource {
    let a = 0.05 + 0.9 * ((id * 7 + salt * 13) % 19) as f64 / 18.0;
    ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap())
}

fn assert_matches_the_oracle(reports: &[EpochReport], quanta: u64) {
    assert_eq!(reports.len() as u64, EPOCHS);
    for report in reports {
        assert_eq!(report.enforcement.len(), 2, "epoch {}", report.epoch);
        for summary in &report.enforcement {
            let weights = summary
                .target
                .iter()
                .map(|t| t.max(MIN_STRIDE_WEIGHT))
                .collect();
            let mut oracle = StrideScheduler::new(weights).unwrap();
            for _ in 0..quanta {
                oracle.next_quantum();
            }
            let achieved = oracle.service_shares();
            let max_deviation = achieved
                .iter()
                .zip(&summary.target)
                .map(|(a, t)| (a - t).abs())
                .fold(0.0, f64::max);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let at = (report.epoch, summary.resource);
            assert_eq!(bits(&summary.achieved), bits(&achieved), "{at:?}");
            assert_eq!(
                summary.max_deviation.to_bits(),
                max_deviation.to_bits(),
                "{at:?}"
            );
        }
    }
}

/// A 200-agent REF market in which agents leave, join and change demand
/// before every tick.
#[test]
fn churning_ref_market_enforces_as_the_loop() {
    const AGENTS: u64 = 200;
    let config = MarketConfig::new(Capacity::new(vec![400.0, 200.0]).unwrap());
    let quanta = config.enforcement_quanta;
    let mut market = MarketEngine::new(config).unwrap();
    market.submit_all((0..AGENTS).map(|id| MarketEvent::AgentJoined {
        id,
        source: truth(id, 0),
    }));
    for epoch in 0..EPOCHS {
        for k in 0..4 {
            market.submit(MarketEvent::AgentLeft { id: epoch * 4 + k });
            market.submit(MarketEvent::AgentJoined {
                id: AGENTS + epoch * 4 + k,
                source: truth(k, epoch),
            });
            market.submit(MarketEvent::DemandChanged {
                id: 150 + epoch,
                new_truth: Some(CobbDouglas::new(1.0, vec![0.3, 0.7]).unwrap()),
            });
        }
        market.submit(MarketEvent::EpochTick);
    }
    assert_matches_the_oracle(&market.pump().unwrap(), quanta);
}

/// A 48-agent credit-weighted max-welfare market, the shape of the
/// `epoch_gp_credit` benchmark, with a demand change every fourth epoch.
#[test]
fn credit_market_enforces_as_the_loop() {
    const AGENTS: u64 = 48;
    let config = MarketConfig::new(Capacity::new(vec![96.0, 48.0]).unwrap()).with_mechanism(
        MechanismKind::Credit {
            inner: CreditInner::MaxWelfare,
        },
    );
    let quanta = config.enforcement_quanta;
    let mut market = MarketEngine::new(config).unwrap();
    market.submit_all((0..AGENTS).map(|id| MarketEvent::AgentJoined {
        id,
        source: truth(id, 1),
    }));
    for epoch in 0..EPOCHS {
        if epoch % 4 == 0 {
            market.submit(MarketEvent::DemandChanged {
                id: epoch % AGENTS,
                new_truth: Some(CobbDouglas::new(1.0, vec![0.8, 0.2]).unwrap()),
            });
        }
        market.submit(MarketEvent::EpochTick);
    }
    assert_matches_the_oracle(&market.pump().unwrap(), quanta);
}

//! The epoch loop must be bit-deterministic at any pool width: per-agent
//! observations fan out across workers, but every random choice is keyed
//! by `(seed, epoch, agent id)` and outcomes fold in agent-id order.
//!
//! This file holds a single test: it flips the process-wide
//! `ref_pool::set_threads` override, which would race against unrelated
//! tests running in the same binary.

use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;
use ref_market::{EpochReport, MarketConfig, MarketEngine, MarketEvent, ObservationSource};

fn final_allocation_bits() -> Vec<u64> {
    let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
        .with_sim_instructions(8_000)
        .with_warmup_epochs(4);
    let mut market = MarketEngine::new(config).unwrap();
    market.submit(MarketEvent::AgentJoined {
        id: 1,
        source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap()),
    });
    market.submit(MarketEvent::AgentJoined {
        id: 2,
        source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap()),
    });
    market.submit(MarketEvent::AgentJoined {
        id: 3,
        source: ObservationSource::Simulated {
            benchmark: "histogram".to_string(),
        },
    });
    market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 15));
    let reports = market.pump().unwrap();
    let alloc = reports.last().unwrap().allocation.as_ref().unwrap();
    alloc
        .bundles()
        .iter()
        .flat_map(|b| b.as_slice().iter().map(|q| q.to_bits()))
        .collect()
}

/// A 2,000-agent REF market in which agents leave, join and change demand
/// before every tick. Warm-up is off, so every epoch's SI/EF/PE audit — all
/// N(N−1) ordered pairs of it — counts against the auditor.
fn churning_market_reports() -> Vec<EpochReport> {
    const AGENTS: u64 = 2_000;
    const EPOCHS: u64 = 12;
    let truth = |id: u64, salt: u64| {
        let a = 0.1 + 0.8 * ((id * 7 + salt * 13) % 16) as f64 / 15.0;
        CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap()
    };
    let config = MarketConfig::new(Capacity::new(vec![4000.0, 2000.0]).unwrap())
        .with_enforcement_quanta(200)
        .with_warmup_epochs(0);
    let mut market = MarketEngine::new(config).unwrap();
    market.submit_all((0..AGENTS).map(|id| MarketEvent::AgentJoined {
        id,
        source: ObservationSource::GroundTruth(truth(id, 0)),
    }));
    for epoch in 0..EPOCHS {
        for k in 0..5 {
            // Each id leaves at most once, and only ever-present ids change demand.
            market.submit(MarketEvent::AgentLeft { id: epoch * 5 + k });
            market.submit(MarketEvent::AgentJoined {
                id: AGENTS + epoch * 5 + k,
                source: ObservationSource::GroundTruth(truth(k, epoch)),
            });
            market.submit(MarketEvent::DemandChanged {
                id: 1_000 + epoch * 5 + k,
                new_truth: Some(truth(k, epoch + 1)),
            });
        }
        market.submit(MarketEvent::EpochTick);
    }
    let reports = market.pump().unwrap();
    assert_eq!(reports.len() as u64, EPOCHS);
    assert_eq!(market.num_live_agents() as u64, AGENTS);
    assert_eq!(market.auditor().epochs_audited, EPOCHS);
    assert!(
        market.auditor().clean_after_warmup(),
        "{:?}",
        market.auditor()
    );
    reports
}

#[test]
fn epoch_loop_is_bit_identical_across_pool_widths() {
    ref_pool::set_threads(1);
    let serial = final_allocation_bits();
    let serial_churn = churning_market_reports();
    for width in [2, 5] {
        ref_pool::set_threads(width);
        assert_eq!(
            serial,
            final_allocation_bits(),
            "market diverged at {width} workers"
        );
    }
    // Pool helpers persist: the widths above created at most the four that
    // width 5 asks for, and an epoch's two fan-outs create none.
    let helpers = ref_pool::helpers_spawned();
    assert!(helpers <= 4, "{helpers} helpers for a widest fan-out of 5");
    ref_pool::set_threads(2);
    assert!(
        serial_churn == churning_market_reports(),
        "churning market diverged at 2 workers"
    );
    assert_eq!(
        ref_pool::helpers_spawned(),
        helpers,
        "12 churning epochs at width 2 created threads"
    );
    ref_pool::set_threads(0); // restore the default resolution order
}

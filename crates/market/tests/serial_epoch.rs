//! An epoch runs on the thread that ticks. REF's allocation is a closed
//! form, so an epoch is about a microsecond of work per agent, and the
//! market hands none of it to another thread: at a pool width of 2,
//! twelve churning 2,000-agent epochs create no pool helper, and on Linux
//! the ticking thread never blocks. The results do not depend on the
//! width: every random choice is keyed by `(seed, epoch, agent id)`.
//!
//! This file holds a single test: it flips the process-wide
//! `ref_pool::set_threads` override, which would race against unrelated
//! tests running in the same binary.

use ref_core::resource::Capacity;
use ref_core::utility::CobbDouglas;
use ref_market::{MarketConfig, MarketEngine, MarketEvent, ObservationSource};

/// The final allocation of a three-agent market, one agent of which runs
/// on the cycle-level simulator, as bits.
fn final_allocation_bits() -> Vec<u64> {
    let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
        .with_sim_instructions(8_000)
        .with_warmup_epochs(4);
    let mut market = MarketEngine::new(config).unwrap();
    let joins = [
        ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap()),
        ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap()),
        ObservationSource::Simulated {
            benchmark: "histogram".to_string(),
        },
    ];
    for (id, source) in (1..).zip(joins) {
        market
            .apply_now(MarketEvent::AgentJoined { id, source })
            .unwrap();
    }
    let mut last = None;
    for _ in 0..15 {
        last = market.apply_now(MarketEvent::EpochTick).unwrap();
    }
    let report = last.unwrap();
    let alloc = report.allocation.as_ref().unwrap();
    alloc
        .bundles()
        .iter()
        .flat_map(|b| b.as_slice().iter().map(|q| q.to_bits()))
        .collect()
}

/// The calling thread's voluntary context switches so far; `None` off
/// Linux.
fn voluntary_switches() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .unwrap();
    Some(line.trim().parse().unwrap())
}

/// A 2,000-agent REF market in which agents leave, join and change demand
/// before every tick. Warm-up is off, so every epoch's SI/EF/PE audit
/// counts against the auditor. Returns the market after twelve epochs and
/// the ticking thread's voluntary context switches during them.
fn churning_market() -> (MarketEngine, Option<u64>) {
    const AGENTS: u64 = 2_000;
    const EPOCHS: u64 = 12;
    let truth = |id: u64, salt: u64| {
        let a = 0.1 + 0.8 * ((id * 7 + salt * 13) % 16) as f64 / 15.0;
        CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap()
    };
    let config =
        MarketConfig::new(Capacity::new(vec![4000.0, 2000.0]).unwrap()).with_warmup_epochs(0);
    let mut market = MarketEngine::new(config).unwrap();
    for id in 0..AGENTS {
        let source = ObservationSource::GroundTruth(truth(id, 0));
        market
            .apply_now(MarketEvent::AgentJoined { id, source })
            .unwrap();
    }
    let before = voluntary_switches();
    for epoch in 0..EPOCHS {
        for k in 0..5 {
            // Each id leaves at most once, and only ever-present ids change demand.
            let churn = [
                MarketEvent::AgentLeft { id: epoch * 5 + k },
                MarketEvent::AgentJoined {
                    id: AGENTS + epoch * 5 + k,
                    source: ObservationSource::GroundTruth(truth(k, epoch)),
                },
                MarketEvent::DemandChanged {
                    id: 1_000 + epoch * 5 + k,
                    new_truth: Some(truth(k, epoch + 1)),
                },
            ];
            for event in churn {
                market.apply_now(event).unwrap();
            }
        }
        assert!(market.apply_now(MarketEvent::EpochTick).unwrap().is_some());
    }
    let switches = voluntary_switches()
        .zip(before)
        .map(|(after, before)| after - before);
    assert_eq!(market.num_live_agents() as u64, AGENTS);
    assert_eq!(market.auditor().epochs_audited, EPOCHS);
    assert!(
        market.auditor().clean_after_warmup(),
        "{:?}",
        market.auditor()
    );
    (market, switches)
}

#[test]
fn the_epoch_runs_on_the_ticking_thread() {
    ref_pool::set_threads(2);
    let (market, switches) = churning_market();
    assert_eq!(
        ref_pool::helpers_spawned(),
        0,
        "12 churning epochs at width 2 created pool helpers"
    );
    if let Some(switches) = switches {
        assert_eq!(switches, 0, "the ticking thread blocked {switches} times");
    }
    // The state the pooled epoch left behind, bit for bit.
    assert_eq!(market.encode_snapshot().len(), 1_714_480);
    assert_eq!(market.state_fingerprint(), 0x862e_3d67_72d9_cb4f);

    let wide = final_allocation_bits();
    ref_pool::set_threads(1);
    assert_eq!(
        wide,
        final_allocation_bits(),
        "market diverged across widths"
    );
    assert_eq!(ref_pool::helpers_spawned(), 0);
    ref_pool::set_threads(0); // restore the default resolution order
}

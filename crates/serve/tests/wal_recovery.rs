//! Torn-write recovery property: truncating the WAL at *any* byte
//! offset recovers exactly the state after the last complete record —
//! or after the newest checkpoint, whichever is further along — and the
//! recovered snapshot matches the pre-crash snapshot byte for byte.
//!
//! This is the crash model the durability contract promises: a crash
//! can tear at most the final record, and recovery never invents,
//! drops, or reorders an applied event.

mod common;

use std::fs;

use proptest::prelude::*;

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEngine, MarketEvent, ObservationSource};
use ref_serve::wal::{Wal, WalConfig};
use ref_serve::FaultPlan;

use common::TempDir;

fn event_strategy() -> impl Strategy<Value = MarketEvent> {
    (0u8..6, 0u64..4, 0.5f64..8.0, 0.1f64..4.0).prop_map(|(sel, agent, a0, perf)| match sel {
        0 => MarketEvent::AgentJoined {
            id: agent,
            source: ObservationSource::External,
        },
        1 => MarketEvent::AgentLeft { id: agent },
        2 => MarketEvent::ObservationReported {
            id: agent,
            allocation: vec![a0, 1.0],
            performance: perf,
        },
        // Weight ticks up so most histories run a few epochs.
        _ => MarketEvent::EpochTick,
    })
}

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_at_any_byte_recovers_the_last_complete_record(
        events in proptest::collection::vec(event_strategy(), 1..28),
        every in 0u64..6,
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = TempDir::new("tornprop");
        // Checkpoints are driven by hand below so the test controls the
        // cadence exactly; history is retained so a checkpoint never
        // prunes the byte offsets the truncation targets.
        let wal_config = WalConfig::new(dir.path())
            .with_checkpoint_every(0)
            .with_retain_history(true);

        // Golden path: apply each event offline, remembering the exact
        // snapshot after every prefix and the record boundary it ends at.
        let mut engine = MarketEngine::new(market()).unwrap();
        let mut snapshots = vec![engine.snapshot().encode()];
        let mut boundaries = vec![0u64];
        let mut latest_ckpt = 0u64;
        // The default segment size never rotates at this length.
        let segment = dir.path().join("segment-0000000000000000.wal");
        {
            let mut w = Wal::open(wal_config.clone(), FaultPlan::none()).unwrap().wal;
            for (i, e) in events.iter().enumerate() {
                prop_assert_eq!(w.append(e).unwrap(), i as u64);
                let _ = engine.apply_now(e.clone());
                snapshots.push(engine.snapshot().encode());
                boundaries.push(fs::metadata(&segment).unwrap().len());
                if every > 0 && (i as u64 + 1).is_multiple_of(every) {
                    w.checkpoint(&snapshots[i + 1]).unwrap();
                    latest_ckpt = i as u64 + 1;
                }
            }
        }

        // Crash: truncate the (single) segment at an arbitrary byte.
        let total = fs::metadata(&segment).unwrap().len();
        let cut = (total as f64 * cut_fraction) as u64;
        fs::OpenOptions::new()
            .write(true)
            .open(&segment)
            .unwrap()
            .set_len(cut)
            .unwrap();

        // k = records that survive the cut intact; the checkpoint wins
        // when it is ahead of the surviving log.
        let k = boundaries.iter().filter(|&&b| b <= cut).count() as u64 - 1;
        let expected_seq = latest_ckpt.max(k);

        let rec = Wal::open(wal_config, FaultPlan::none()).unwrap();
        prop_assert_eq!(rec.wal.next_seq(), expected_seq);
        let mut recovered = match &rec.checkpoint {
            Some((_, snapshot)) => MarketEngine::restore(snapshot).unwrap(),
            None => MarketEngine::new(market()).unwrap(),
        };
        for e in &rec.tail {
            let _ = recovered.apply_now(e.clone());
        }
        prop_assert_eq!(
            recovered.snapshot().encode(),
            snapshots[expected_seq as usize].clone(),
            "recovered state must match the pre-crash snapshot at seq {}",
            expected_seq
        );
    }
}

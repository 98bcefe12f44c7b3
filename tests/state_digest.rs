//! The per-epoch replication audit, end to end and without sockets: a
//! primary and a standby [`ServiceCore`] fed the same records agree on
//! every epoch's state fingerprint, a standby that silently skips one
//! record disagrees from that epoch on, and the [`ReplCore`] pair turns
//! exactly that disagreement into a `diverged` verdict. The digest's own
//! properties are tested beside it in `ref-market`; this scenario runs
//! in tier-1 so `cargo test -q` fails when the audit stops detecting.
//! Beside it, golden pins hold the snapshot text and the fingerprint of
//! one fixed market still: a format pin over agents the engine measures
//! without the simulator, and a simulator pin over the same market with
//! a simulated agent added.

use std::time::Duration;

use ref_fairness::core::mechanism::CreditInner;
use ref_fairness::core::resource::Capacity;
use ref_fairness::core::utility::CobbDouglas;
use ref_fairness::market::{
    MarketConfig, MarketEngine, MarketEvent, MarketSnapshot, MechanismKind, ObservationSource,
};
use ref_fairness::serve::repl::parse_message;
use ref_fairness::serve::repl_core::Ack;
use ref_fairness::serve::wal::crc32;
use ref_fairness::serve::{
    decode_frame, parse_request, FaultPlan, FrameDecode, JournalLimit, ReplApply, ReplConfig,
    ReplCore, Request, ServeMetrics, ServiceCore, Value,
};

/// Joins, measurements for the external agent, a demand change, a
/// departure and ten ticks. The last event of the script is a tick.
fn script() -> Vec<String> {
    let mut lines = vec![
        r#"{"op":"join","agent":1,"source":{"kind":"truth","elasticities":[0.6,0.4]}}"#.to_string(),
        r#"{"op":"join","agent":2,"source":{"kind":"truth","elasticities":[0.2,0.8]}}"#.to_string(),
        r#"{"op":"join","agent":3,"source":{"kind":"external"}}"#.to_string(),
    ];
    for round in 0..10_u32 {
        let (x, y) = (1.0 + f64::from(round % 4), 0.5 + f64::from(round % 3));
        lines.push(format!(
            r#"{{"op":"observe","agent":3,"allocation":[{x},{y}],"performance":{}}}"#,
            x.powf(0.7) * y.powf(0.3)
        ));
        if round == 4 {
            lines.push(r#"{"op":"demand","agent":1}"#.to_string());
        }
        if round == 7 {
            lines.push(r#"{"op":"leave","agent":2}"#.to_string());
        }
        lines.push(r#"{"op":"tick"}"#.to_string());
    }
    lines
}

fn core(faults: FaultPlan) -> ServiceCore {
    let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
    ServiceCore::new(market, JournalLimit(1 << 16))
        .unwrap()
        .with_faults(faults)
}

fn unframe(frame: &[u8]) -> Value {
    let FrameDecode::Complete { payload, .. } = decode_frame(frame) else {
        panic!("a core emitted a frame that does not decode");
    };
    parse_message(&payload).expect("a core emitted a frame that does not parse")
}

/// Runs the script through a primary and a standby built with `faults`;
/// returns, per tick, whether the standby's fingerprint matched and the
/// verdict the primary's [`ReplCore`] reached on the standby's ack.
fn replicate(faults: FaultPlan) -> Vec<(bool, Ack)> {
    let metrics = ServeMetrics::default();
    let (mut primary, mut standby) = (core(FaultPlan::none()), core(faults));
    let mut audit = ReplCore::new(&ReplConfig::primary("p:repl"), 42, 0, 0, Duration::ZERO);
    let mut acker = ReplCore::new(
        &ReplConfig::standby("s:repl", "p:repl"),
        43,
        0,
        0,
        Duration::ZERO,
    );
    let mut ticks = Vec::new();
    for line in script() {
        let request = parse_request(&line).unwrap().request;
        let event = request.to_event().expect("the script only mutates");
        let seq = primary.events_applied();
        let reply = primary.handle(&request, &metrics);
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{line}: {reply}");
        let applied = standby.apply_repl(seq, event, &metrics);
        assert_eq!(applied, ReplApply::Applied, "an in-order record applies");
        if request != Request::Tick {
            continue;
        }
        let got = (
            standby.engine().epoch(),
            standby.engine().state_fingerprint(),
        );
        let want = (
            primary.engine().epoch(),
            primary.engine().state_fingerprint(),
        );
        let have = primary.events_applied();
        audit.push_epoch_fp(have, want.0, want.1);
        let verdict = audit.on_ack(&unframe(&acker.ack(have, Some(got))));
        ticks.push((got == want, verdict));
    }
    // Whatever the standby holds, the fingerprint describes it: the
    // engine's and the one over its decoded final snapshot agree.
    for node in [&primary, &standby] {
        let snapshot = MarketSnapshot::decode(&node.final_snapshot()).unwrap();
        assert_eq!(snapshot.fingerprint(), node.engine().state_fingerprint());
    }
    ticks
}

/// A credit market over the equal-slowdown GP (so the warm-start cache
/// holds auxiliary variables) a few epochs in: ground-truth agents 1 and
/// 2, external agent 4 and, when `simulated`, agent 3 measured by the
/// cycle-level simulator. The allocation cache is live and every ledger
/// entry has a window.
fn golden_market(simulated: bool) -> MarketEngine {
    let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
        .with_mechanism(MechanismKind::Credit {
            inner: CreditInner::EqualSlowdown,
        })
        .with_sim_instructions(8_000)
        .with_warmup_epochs(2)
        .with_temporal_window(4)
        .with_seed(7);
    let mut market = MarketEngine::new(config).unwrap();
    let truth =
        |a: f64| ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap());
    let mut joins = vec![(1, truth(0.6)), (2, truth(0.25))];
    if simulated {
        let benchmark = "histogram".to_string();
        joins.push((3, ObservationSource::Simulated { benchmark }));
    }
    joins.push((4, ObservationSource::External));
    for (id, source) in joins {
        market
            .apply_now(MarketEvent::AgentJoined { id, source })
            .unwrap();
    }
    for i in 0..6_u32 {
        let (x, y) = (1.0 + f64::from(i % 4), 0.5 + f64::from(i % 3));
        let observation = MarketEvent::ObservationReported {
            id: 4,
            allocation: vec![x, y],
            performance: x.powf(0.7) * y.powf(0.3),
        };
        market.apply_now(observation).unwrap();
        market.apply_now(MarketEvent::EpochTick).unwrap();
    }
    market
}

/// Checks `market`'s snapshot text against `(crc32, length)` and its
/// state fingerprint against `fingerprint`, after checking that the
/// snapshot exercises every section and holds an agent of each source
/// named in `sources`.
fn assert_pinned(
    market: &MarketEngine,
    sources: &[&str],
    text_pin: (u32, usize),
    fingerprint: u64,
) {
    let snapshot = market.snapshot();
    assert!(snapshot.cache.is_some(), "no live allocation cache");
    assert!(!snapshot.warm.is_empty(), "empty warm-start cache");
    for agent in &snapshot.agents {
        let entry = snapshot.ledger.entry(agent.id).unwrap();
        assert!(
            !entry.window.is_empty(),
            "agent {} has no ledger window",
            agent.id
        );
    }
    let text = snapshot.encode();
    assert!(
        text.lines().any(|l| l.starts_with("warm-aux ")),
        "no warm aux"
    );
    for source in sources {
        assert!(text.contains(source), "no {source:?} agent");
    }
    assert_eq!((crc32(text.as_bytes()), text.len()), text_pin);
    assert_eq!(market.encode_snapshot(), text);
    assert_eq!(market.state_fingerprint(), fingerprint);
    assert_eq!(snapshot.fingerprint(), fingerprint);
}

/// The format pin: `(crc32, length)` of the snapshot text of the golden
/// market without a simulated agent, and its state fingerprint. Nothing
/// the simulator measures reaches this market, so a change here is a
/// change of the persisted format, of the replication audit's digest, or
/// of what the estimators, the mechanism or the ledger compute.
const GOLDEN_TEXT: (u32, usize) = (0x910e_c08b, 2394);
const GOLDEN_FINGERPRINT: u64 = 0xef61_e129_d538_4d67;

/// The simulator pin: the same, for the golden market with agent 3
/// measured by `ref-sim`. It moves with the format pin and also with
/// anything `ref-sim` measures (agent 3's observations, then its fit, the
/// allocation and the ledger); it was re-pinned when snapshot v5 dropped
/// the incremental-refit count, and when the simulator's DRAM token
/// bucket kept its fractional credit (no line added or dropped). A change
/// here alone is a change of the simulator.
const SIMULATOR_TEXT: (u32, usize) = (0xa3f0_e115, 2981);
const SIMULATOR_FINGERPRINT: u64 = 0x008d_ab17_3ccf_1725;

#[test]
fn snapshot_text_and_fingerprint_match_their_golden_pins() {
    let market = golden_market(false);
    assert!(!market.encode_snapshot().contains("source sim"));
    let sources = ["source truth ", "source external"];
    assert_pinned(&market, &sources, GOLDEN_TEXT, GOLDEN_FINGERPRINT);
}

#[test]
fn a_simulated_agent_matches_the_simulator_pin() {
    let market = golden_market(true);
    let sources = ["source truth ", "source sim histogram", "source external"];
    assert_pinned(&market, &sources, SIMULATOR_TEXT, SIMULATOR_FINGERPRINT);
}

#[test]
fn replicas_fed_the_same_records_agree_on_every_epoch() {
    let ticks = replicate(FaultPlan::none());
    assert_eq!(ticks.len(), 10);
    for (epoch, (agreed, verdict)) in ticks.iter().enumerate() {
        assert!(agreed, "epoch {epoch}: bit-identical replicas disagree");
        assert!(
            matches!(verdict, Ack::Progress(_)),
            "epoch {epoch}: {verdict:?}"
        );
    }
}

#[test]
fn a_standby_that_skips_one_record_disagrees_from_that_epoch_on() {
    // Record 7 is the observation of the third round (3 joins, then
    // observe + tick per round): ticks 0 and 1 are clean, tick 2 and
    // everything after it audits a standby that is one observation short.
    let ticks = replicate(FaultPlan {
        corrupt_standby_at: Some(7),
        ..FaultPlan::none()
    });
    assert_eq!(ticks.len(), 10);
    for (epoch, (agreed, verdict)) in ticks.iter().enumerate() {
        if epoch < 2 {
            assert!(agreed, "epoch {epoch} precedes the skipped record");
            assert!(matches!(verdict, Ack::Progress(_)), "{verdict:?}");
        } else {
            assert!(!agreed, "epoch {epoch}: the skipped record went unnoticed");
            assert!(matches!(verdict, Ack::Diverged { .. }), "{verdict:?}");
        }
    }
}

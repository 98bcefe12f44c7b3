//! The two protocol state machines, wired back to back with no sockets,
//! threads or clocks: a primary/standby pair of [`ReplCore`]s hands over
//! without losing an acked record, and a [`RouterCore`] keeps routing
//! and allotment safe across the failover. The per-rule transition
//! tables live next to the cores in `ref-serve`; this scenario runs in
//! tier-1 so `cargo test -q` fails when the protocols regress.

use std::time::Duration;

use ref_fairness::market::MarketEvent;
use ref_fairness::serve::protocol::ok_response;
use ref_fairness::serve::repl::{parse_frame, parse_message, rec_frame, Frame};
use ref_fairness::serve::repl_core::{Ack, AckWait, Hello, Promotion, Stream};
use ref_fairness::serve::{
    decode_frame, FrameDecode, ReplConfig, ReplCore, Role, RouterCore, ShardHealth, TickOutcome,
    Value,
};

const MS: Duration = Duration::from_millis(1);
const TIMEOUT: Duration = Duration::from_millis(100);

fn unframe(frame: &[u8]) -> Value {
    let FrameDecode::Complete { payload, .. } = decode_frame(frame) else {
        panic!("a core emitted a frame that does not decode");
    };
    parse_message(&payload).expect("a core emitted a frame that does not parse")
}

/// A stream frame as the standby's driver hands it to its core.
fn stream_frame(frame: &[u8]) -> Frame {
    let FrameDecode::Complete { payload, .. } = decode_frame(frame) else {
        panic!("a core emitted a frame that does not decode");
    };
    parse_frame(payload).expect("a core emitted a frame that does not parse")
}

fn node(standby: bool, log_seq: u64) -> ReplCore {
    let config = if standby {
        ReplConfig::standby("s:repl", "p:repl")
    } else {
        ReplConfig::primary("p:repl")
    };
    let config = config.with_election_timeout(TIMEOUT);
    let mut core = ReplCore::new(&config, 42, 0, log_seq, Duration::ZERO);
    let name = if standby { "s" } else { "p" };
    core.set_addrs(format!("{name}:client"), format!("{name}:repl"));
    core
}

fn error_of(reply: &Value) -> Option<&str> {
    reply.get("error").and_then(Value::as_str)
}

#[test]
fn a_pair_hands_over_without_losing_an_acked_record() {
    let (mut primary, mut standby) = (node(false, 0), node(true, 0));
    let mut router = RouterCore::new(vec![8.0], 1, 1, 2);

    // Handshake: hello → meta; the standby learns where the leader is.
    let Hello::Accept { have: 0, meta } = primary.on_hello(&unframe(&standby.hello())) else {
        panic!("a fresh standby is accepted");
    };
    assert_eq!(
        standby.on_frame(stream_frame(&meta), "p:repl", MS),
        Stream::Following
    );
    assert_eq!(standby.leader_client(), Some("p:client"));
    // A mutation on the standby is redirected there.
    let redirect = standby
        .admit_mutation(MS, Some(3))
        .expect("standbys refuse");
    assert_eq!(error_of(&redirect), Some("not_primary"));
    assert_eq!(
        redirect.get("leader").and_then(Value::as_str),
        Some("p:client")
    );
    assert!(primary.admit_mutation(MS, None).is_none());

    // One record: published, streamed, applied, acked — only then may
    // the client's reply go.
    primary.note_log(1);
    assert_eq!(primary.ack_state(1, true), AckWait::Pending);
    let mut record = Vec::new();
    MarketEvent::EpochTick.write_record(&mut record);
    let rec = rec_frame(0, &record);
    let Stream::Apply { seq: 0, event, .. } =
        standby.on_frame(stream_frame(&rec), "p:repl", 2 * MS)
    else {
        panic!("the standby applies the stream");
    };
    assert_eq!(event, MarketEvent::EpochTick);
    let ack = standby.ack(1, None);
    assert_eq!(primary.on_ack(&unframe(&ack)), Ack::Progress(1));
    assert_eq!(primary.ack_state(1, true), AckWait::Acked);
    let hb = primary.heartbeat().expect("primaries heartbeat");
    assert_eq!(
        standby.on_frame(stream_frame(&hb), "p:repl", 3 * MS),
        Stream::Following
    );
    assert_eq!(
        router.pick_primary(0, [(0, primary.role(), 0), (1, standby.role(), 0)]),
        Some(0)
    );

    // The primary goes quiet. The standby heard it this boot and holds
    // everything it advertised, so once the jittered timeout lapses it
    // elects itself and deposes the old leader.
    assert!(!standby.election_due(3 * MS + TIMEOUT - MS));
    let later = 3 * MS + 2 * TIMEOUT;
    assert!(standby.election_due(later));
    let Promotion::Promoted {
        term: 1,
        depose: Some((old, hello)),
    } = standby.promote()
    else {
        panic!("the standby promotes");
    };
    assert_eq!(old, "p:repl");
    assert!(standby.admit_mutation(later, None).is_none());

    // Split brain until the deposing hello lands: the router picks the
    // higher term, and its floor never lets it fall back.
    let split = [(0, Role::Primary, 0), (1, Role::Primary, 1)];
    assert_eq!(router.pick_primary(0, split), Some(1));
    assert_eq!(router.pick_primary(0, [(0, Role::Primary, 0)]), None);

    assert!(matches!(
        primary.on_hello(&unframe(&hello)),
        Hello::Refuse(_)
    ));
    assert_eq!((primary.role(), primary.term()), (Role::Fenced, 1));
    let refusal = primary.admit_mutation(later, None).expect("fenced");
    assert_eq!(error_of(&refusal), Some("fenced"));
    assert_eq!(primary.promote(), Promotion::Fenced);
    assert!(primary.heartbeat().is_none());

    // The acked record is in the new primary's log: a late-joining
    // standby at 0 is accepted and streamed from there; one claiming
    // more than that log holds is refused.
    assert!(matches!(
        standby.on_hello(&unframe(&node(true, 0).hello())),
        Hello::Accept { have: 0, .. }
    ));
    assert!(matches!(
        standby.on_hello(&unframe(&node(true, 2).hello())),
        Hello::Refuse(_)
    ));
}

#[test]
fn a_recovered_primary_waits_out_its_lease() {
    let mut recovered = node(false, 5);
    let refusal = recovered.admit_mutation(MS, None).expect("lease");
    assert_eq!(error_of(&refusal), Some("unavailable"));
    assert_eq!(
        refusal.get("retry_after_ms").and_then(Value::as_u64),
        Some(199)
    );
    // The router reads it as "no report", not as a failed shard.
    assert_eq!(TickOutcome::of(&refusal), TickOutcome::Silent);
    assert!(recovered.admit_mutation(2 * TIMEOUT, None).is_none());
    let mut standby = node(true, 5);
    assert!(matches!(
        recovered.on_hello(&unframe(&standby.hello())),
        Hello::Accept { have: 5, .. }
    ));
    assert!(recovered.admit_mutation(MS, None).is_none());
    standby.fence(0);
    assert_eq!(standby.promote(), Promotion::Fenced);
}

#[test]
fn the_router_freezes_below_quorum_and_never_half_applies() {
    let total = [30.0, 12.0];
    let mut router = RouterCore::new(total.to_vec(), 3, 2, 2);
    let demand = |d: [f64; 2]| ok_response(vec![("demand", Value::num_array(&d))]);
    let (ok, timeout, unavailable) = (
        ok_response(vec![("epoch", Value::from_u64(9))]),
        ref_fairness::serve::protocol::error_response("timeout", None, None),
        ref_fairness::serve::protocol::shard_unavailable_response(2, 5),
    );
    let split = vec![10.0, 4.0];

    // One of three reported its demand: below quorum nothing is
    // reallotted. The reporter ticks at the split it has; the others sit
    // the round out, their phase-1 replies standing as their tick replies.
    let allot = router.allot(&[demand([9.0, 3.0]), timeout.clone(), timeout.clone()]);
    assert!(allot.frozen);
    assert_eq!(allot.capacities, vec![Some(split.clone()), None, None]);
    let lone = [ok.clone(), timeout.clone(), timeout];
    let round = router.tick_round(&lone);
    assert_eq!(round.missing, vec![1, 2]);
    assert_eq!(router.health(1), ShardHealth::Suspect);
    router.tick_round(&lone);
    assert_eq!(router.health(1), ShardHealth::Down);

    // At quorum capacity moves, but only between the shards that
    // reported: the silent third keeps its split.
    let allot = router.allot(&[demand([9.0, 3.0]), demand([1.0, 1.0]), unavailable]);
    assert!(!allot.frozen);
    assert_eq!(allot.capacities[2], None);
    let moved: Vec<&Vec<f64>> = allot.capacities.iter().flatten().collect();
    for (r, total) in total.iter().enumerate() {
        let left = total - split[r];
        let sum = moved[0][r] + moved[1][r];
        assert!(sum <= left && sum >= left * (1.0 - 1e-12), "{moved:?}");
    }
    // The round it reports in again re-derives its allotment: the closed
    // form C_r · D_kr / D_r, never above the capacity.
    let allot = router.allot(&[demand([9.0, 3.0]), demand([1.0, 1.0]), demand([1.0, 1.0])]);
    let all: Vec<Vec<f64>> = allot.capacities.into_iter().flatten().collect();
    for (r, total) in total.iter().enumerate() {
        let d = [[9.0, 3.0], [1.0, 1.0], [1.0, 1.0]].map(|d| d[r]);
        for (k, allotment) in all.iter().enumerate() {
            let want = total * d[k] / d.iter().sum::<f64>();
            assert!((allotment[r] - want).abs() <= 1e-12 * want, "{all:?}");
        }
        assert!(all.iter().map(|a| a[r]).sum::<f64>() <= *total);
    }
    // Served from a recovered WAL, it is caught up to the rest of the
    // fleet.
    assert_eq!(router.recovered(1, 4).catch_up, 5);
}

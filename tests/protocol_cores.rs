//! The two protocol state machines, wired back to back with no sockets,
//! threads or clocks: a primary/standby pair of [`ReplCore`]s hands over
//! without losing an acked record, and a [`RouterCore`] keeps routing
//! and allotment safe across the failover. The per-rule transition
//! tables live next to the cores in `ref-serve`; this scenario runs in
//! tier-1 so `cargo test -q` fails when the protocols regress. The last
//! scenario drives two whole replicas — the [`Node`] composition both
//! the server and the simulator run — by hand.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ref_fairness::core::resource::Capacity;
use ref_fairness::market::{MarketConfig, MarketEvent, ObservationSource};
use ref_fairness::serve::node::{Follow, Hold, Node, Peer, Replication};
use ref_fairness::serve::protocol::ok_response;
use ref_fairness::serve::repl::{parse_frame, parse_message, rec_frame, Frame};
use ref_fairness::serve::repl_core::{Ack, AckWait, Hello, Promotion, Stream, Timer};
use ref_fairness::serve::{
    decode_frame, Clock, FaultPlan, FrameDecode, FsStorage, JournalLimit, ReplConfig, ReplCore,
    Request, Role, RouterCore, ServeMetrics, ServiceCore, ShardHealth, TickOutcome, Value,
    WalConfig,
};

use common::TempDir;

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
    let redirect = standby.admit_mutation(MS).expect("standbys refuse");
    assert_eq!(error_of(&redirect), Some("not_primary"));
    assert_eq!(
        redirect.get("leader").and_then(Value::as_str),
        Some("p:client")
    );
    assert!(primary.admit_mutation(MS).is_none());

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
    assert!(standby.admit_mutation(later).is_none());

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
    let refusal = primary.admit_mutation(later).expect("fenced");
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
    let refusal = recovered.admit_mutation(MS).expect("lease");
    assert_eq!(error_of(&refusal), Some("unavailable"));
    assert_eq!(
        refusal.get("retry_after_ms").and_then(Value::as_u64),
        Some(199)
    );
    // The router reads it as "no report", not as a failed shard.
    assert_eq!(TickOutcome::of(&refusal), TickOutcome::Silent);
    assert!(recovered.admit_mutation(2 * TIMEOUT).is_none());
    let mut standby = node(true, 5);
    assert!(matches!(
        recovered.on_hello(&unframe(&standby.hello())),
        Hello::Accept { have: 5, .. }
    ));
    assert!(recovered.admit_mutation(MS).is_none());
    standby.fence(0);
    assert_eq!(standby.promote(), Promotion::Fenced);
}

#[test]
fn the_router_freezes_below_quorum_and_never_half_applies() {
    let total = [30.0, 12.0];
    let mut router = RouterCore::new(total.to_vec(), 3, 2, 2);
    let demand = |d: [f64; 2]| Ok(d.to_vec());
    let (ok, timeout, unavailable) = (
        ok_response(vec![("epoch", Value::from_u64(9))]),
        ref_fairness::serve::protocol::error_response("timeout", None, None),
        ref_fairness::serve::protocol::shard_unavailable_response(2, 5),
    );
    let split = vec![10.0, 4.0];

    // One of three has a demand: below quorum nothing is reallotted. It
    // ticks at the split it has; the others sit the round out, the reason
    // they have none standing as their tick replies.
    let allot = router.allot(&[
        demand([9.0, 3.0]),
        Err(timeout.clone()),
        Err(timeout.clone()),
    ]);
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
    let allot = router.allot(&[demand([9.0, 3.0]), demand([1.0, 1.0]), Err(unavailable)]);
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

/// A clock the test moves by hand.
#[derive(Debug, Default)]
struct HandClock(AtomicU64);

impl HandClock {
    fn set(&self, at: Duration) {
        self.0.store(at.as_nanos() as u64, Ordering::SeqCst);
    }
}

impl Clock for HandClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::SeqCst))
    }
}

/// The frames a primary sent one standby, in order.
#[derive(Debug, Default)]
struct Wire(Vec<Vec<u8>>);

impl Peer for Wire {
    fn send(&mut self, frame: &[u8]) -> bool {
        self.0.push(frame.to_vec());
        true
    }
}

type Replica = Node<Replication<Wire>>;

/// A durable replica on `dir`, booting in `config`'s role.
fn replica(dir: &TempDir, config: ReplConfig, name: &str, clock: &Arc<HandClock>) -> Replica {
    let market = MarketConfig::new(Capacity::new(vec![8.0, 4.0]).unwrap());
    let wal = WalConfig::new(dir.path()).with_retain_history(true);
    let core = ServiceCore::recover(market, JournalLimit::default(), wal, FaultPlan::none());
    let mut repl = ReplCore::new(&config.with_election_timeout(TIMEOUT), 7, 0, 0, clock.now());
    repl.set_addrs(format!("{name}:client"), format!("{name}:repl"));
    let clock: Arc<dyn Clock> = Arc::clone(clock) as Arc<dyn Clock>;
    Node::new(0, Some(core.unwrap()), Some(Replication::new(repl, clock)))
}

fn half(node: &mut Replica) -> &mut Replication<Wire> {
    node.link.as_mut().expect("replicated")
}

/// Everything the primary has sent its standby since the last look.
fn sent(primary: &mut Replica) -> Vec<Frame> {
    let frames: Vec<Vec<u8>> = half(primary).peers().flat_map(|w| w.0.drain(..)).collect();
    frames.iter().map(|f| stream_frame(f)).collect()
}

fn join(agent: u64) -> Request {
    let source = ObservationSource::External;
    Request::Join { agent, source }
}

#[test]
fn two_nodes_hand_a_held_reply_over_only_on_the_ack() {
    let (dir_p, dir_s) = (TempDir::new("node-p"), TempDir::new("node-s"));
    let clock = Arc::new(HandClock::default());
    let mut primary = replica(&dir_p, ReplConfig::primary("p:repl"), "p", &clock);
    let mut standby = replica(&dir_s, ReplConfig::standby("s:repl", "p:repl"), "s", &clock);
    let metrics = ServeMetrics::new();

    // Alone, a primary's record goes out to nobody: its hold is released
    // at once (solo durability).
    let solo = primary.serve(&join(1), &metrics);
    let hold = solo.hold.expect("a replicated primary holds its record");
    assert_eq!(
        hold,
        Hold {
            target: 1,
            attached: false
        }
    );
    assert_eq!(primary.released(hold), AckWait::NoStandby);

    // hello → meta: the session opens at once, and the next live record
    // is held for it while its catch-up reads the log.
    let hello = half(&mut standby).drive(|core, now| core.dial(now));
    let (verdict, id) = half(&mut primary).accept(&unframe(&hello), Wire::default());
    let (Hello::Accept { have: 0, meta }, Some(id)) = (verdict, id) else {
        panic!("a fresh standby is accepted");
    };
    let live = primary.serve(&join(2), &metrics);
    let held = live.hold.expect("held");
    assert_eq!(
        held,
        Hold {
            target: 2,
            attached: true
        }
    );
    assert!(
        sent(&mut primary).is_empty(),
        "a catching-up session sends nothing live"
    );
    assert_eq!(half(&mut primary).held, 1);
    assert_eq!(primary.released(held), AckWait::Pending);

    // The catch-up streams the log from 0 and goes live: the held record
    // is the log's, sent once.
    let caught = half(&mut primary).catch_up(id, 0, &FsStorage, dir_p.path());
    assert_eq!(caught.unwrap(), (None, 2));
    let frames = sent(&mut primary);
    let seqs: Vec<u64> = (frames.iter())
        .map(|f| match f {
            Frame::Rec { seq, .. } => *seq,
            Frame::Msg(msg) => panic!("a catch-up sends records, not {msg}"),
        })
        .collect();
    assert_eq!(seqs, [0, 1]);

    // The standby follows: meta, then each record applied and acked.
    let from = "p:repl";
    assert_eq!(
        standby.follow(stream_frame(&meta), from, &metrics),
        Follow::Reading
    );
    let mut acks = Vec::new();
    for (seq, frame) in frames.into_iter().enumerate() {
        let Follow::Ack {
            seq: at,
            have,
            fresh: true,
            ack,
        } = standby.follow(frame, from, &metrics)
        else {
            panic!("record {seq} is applied");
        };
        assert_eq!((at, have), (seq as u64, seq as u64 + 1));
        let ack = unframe(&ack);
        assert_eq!(ack.get("fp"), None, "only a tick's ack is fingerprinted");
        acks.push(ack);
    }

    // Nothing but the ack of its record releases the held reply: not a
    // heartbeat, not a later record, not an ack of an earlier one.
    clock.set(Duration::from_millis(5));
    assert_eq!(half(&mut primary).beat(), Timer::Heartbeat);
    let hb = sent(&mut primary)
        .pop()
        .expect("a live session hears heartbeats");
    assert_eq!(standby.follow(hb, from, &metrics), Follow::Reading);
    assert_eq!(primary.released(held), AckWait::Pending);
    assert_eq!(half(&mut primary).ack(id, &acks[0]), Ack::Progress(1));
    assert_eq!(primary.released(held), AckWait::Pending);
    assert_eq!(half(&mut primary).ack(id, &acks[1]), Ack::Progress(2));
    assert_eq!(primary.released(held), AckWait::Acked);

    // A live tick goes straight out, and its ack carries the standby's
    // fingerprint, which agrees with the primary's.
    let tick = primary.serve(&Request::Tick, &metrics);
    assert_eq!(
        tick.reply.get("ok"),
        Some(&Value::Bool(true)),
        "{}",
        tick.reply
    );
    let mut frames = sent(&mut primary);
    assert_eq!(frames.len(), 1);
    let Follow::Ack {
        have: 3,
        fresh: true,
        ack,
        ..
    } = standby.follow(frames.remove(0), from, &metrics)
    else {
        panic!("the tick is applied");
    };
    let ack = unframe(&ack);
    let engine = standby.core().expect("the standby is up").engine();
    let fp = format!("{:016x}", engine.state_fingerprint());
    assert_eq!(ack.get("fp").and_then(Value::as_str), Some(fp.as_str()));
    assert_eq!(half(&mut primary).ack(id, &ack), Ack::Progress(3));

    // The primary goes quiet: the standby, which holds everything it was
    // told of, elects itself and deposes it; the deposed node fences.
    clock.set(Duration::from_millis(5) + 2 * TIMEOUT);
    let Some(Promotion::Promoted {
        term: 1,
        depose: Some((old, deposing)),
    }) = standby.elect(&metrics)
    else {
        panic!("the standby elects itself");
    };
    assert_eq!(old, "p:repl");
    let (verdict, none) = half(&mut primary).accept(&unframe(&deposing), Wire::default());
    assert!(matches!(verdict, Hello::Refuse(_)) && none.is_none());
    let refused = primary.serve(&join(3), &metrics);
    assert_eq!(error_of(&refused.reply), Some("fenced"));
    assert!(refused.hold.is_none());
    assert_eq!(standby.core().unwrap().events_applied(), 3);
    let new = standby.serve(&join(3), &metrics);
    assert_eq!(
        new.reply.get("ok"),
        Some(&Value::Bool(true)),
        "{}",
        new.reply
    );
}

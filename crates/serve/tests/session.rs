//! The replication session's transitions, as tables over a real log on
//! disk: when a catch-up sends a `snap`, what it streams and where it
//! ends, the hold and go-live, live offers — including the race where a
//! checkpoint and prune land between the catch-up's log read and its
//! checkpoint read — and the standby's side, a replica's
//! [`Node::follow`] of each frame, Down or up.

mod common;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEvent, ObservationSource};
use ref_serve::node::{Follow, Node, Peer, Replication};
use ref_serve::repl::{message, parse_frame, rec_frame, Frame};
use ref_serve::session::{self, GoLive, Offer, Session, SINK_QUEUE};
use ref_serve::wal::newest_checkpoint_with;
use ref_serve::{
    decode_frame, Clock, FaultPlan, FrameDecode, FsStorage, JournalLimit, ReplConfig, ReplCore,
    Request, ServeMetrics, ServiceCore, Storage, StorageFile, Value, WalConfig,
};

use common::TempDir;

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap())
}

/// A primary's core on `dir`: a checkpoint every 4 records, small
/// segments, covered history pruned.
fn open_core(dir: &Path) -> ServiceCore {
    let wal = WalConfig::new(dir)
        .with_checkpoint_every(4)
        .with_segment_max_bytes(128);
    ServiceCore::open(
        Arc::new(FsStorage),
        market(),
        JournalLimit::default(),
        wal,
        FaultPlan::default(),
        &ServeMetrics::new(),
    )
    .unwrap()
}

/// Appends `n` records: agent 1 joins, then observations and ticks.
fn append(core: &mut ServiceCore, n: u64) {
    let metrics = ServeMetrics::new();
    for _ in 0..n {
        let i = core.events_applied();
        let request = match i {
            0 => Request::Join {
                agent: 1,
                source: ObservationSource::External,
            },
            _ if i.is_multiple_of(3) => Request::Tick,
            _ => Request::Observe {
                agent: 1,
                allocation: vec![1.0 + i as f64, 2.0],
                performance: 0.5 + 0.01 * i as f64,
            },
        };
        core.handle(&request, &metrics);
    }
}

/// The `(kind, seq)` of each framed message.
fn kinds(frames: &[Vec<u8>]) -> Vec<(String, u64)> {
    frames
        .iter()
        .map(|frame| {
            let FrameDecode::Complete { payload, .. } = decode_frame(frame) else {
                panic!("a whole frame");
            };
            match parse_frame(payload).unwrap() {
                Frame::Rec { seq, .. } => ("rec".to_string(), seq),
                Frame::Msg(msg) => {
                    let seq = msg.get("seq").and_then(Value::as_u64).unwrap();
                    (ref_serve::repl::kind(&msg).to_string(), seq)
                }
            }
        })
        .collect()
}

/// A catch-up's `(snap, upto)` and the frames it sent.
type CaughtUp = ((Option<u64>, u64), Vec<Vec<u8>>);

fn catch_up(have: u64, storage: &dyn Storage, dir: &Path) -> io::Result<CaughtUp> {
    let mut frames = Vec::new();
    let caught = session::catch_up(have, storage, dir, |frame| {
        frames.push(frame);
        Ok(())
    })?;
    Ok((caught, frames))
}

#[test]
fn a_catch_up_sends_a_snap_iff_the_standby_is_behind_the_retained_log() {
    let dir = TempDir::new("session-snap");
    let mut core = open_core(dir.path());
    append(&mut core, 30);
    let wal = core.wal().unwrap();
    let (first, end) = (wal.first_retained_seq(), wal.next_seq());
    let (ckpt, _) = newest_checkpoint_with(&FsStorage, dir.path())
        .unwrap()
        .unwrap();
    assert!(
        first > 0 && first <= ckpt && ckpt <= end,
        "{first} {ckpt} {end}"
    );

    // have → the snap sent first (if any), and where the records start.
    let table = [
        (0, Some(ckpt), ckpt),
        (first - 1, Some(ckpt), ckpt),
        (first, None, first),
        (end - 1, None, end - 1),
        (end, None, end),
    ];
    for (have, snap, from) in table {
        let (caught, frames) = catch_up(have, &FsStorage, dir.path()).unwrap();
        assert_eq!(caught, (snap, end), "have {have}");
        let mut want: Vec<(String, u64)> =
            snap.map(|s| ("snap".to_string(), s)).into_iter().collect();
        want.extend((from..end).map(|seq| ("rec".to_string(), seq)));
        assert_eq!(kinds(&frames), want, "have {have}");
    }
}

#[test]
fn a_gap_no_checkpoint_covers_ends_the_catch_up() {
    let dir = TempDir::new("session-gap");
    let mut core = open_core(dir.path());
    append(&mut core, 30);
    let first = core.wal().unwrap().first_retained_seq();
    for path in FsStorage.list_dir(dir.path()).unwrap() {
        if path.extension().is_some_and(|e| e == "ckpt") {
            std::fs::remove_file(path).unwrap();
        }
    }
    let err = catch_up(first - 1, &FsStorage, dir.path()).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    // A standby the retained log still covers needs no checkpoint.
    assert!(catch_up(first, &FsStorage, dir.path()).is_ok());
    // A failed send ends it too.
    let failed = session::catch_up(first, &FsStorage, dir.path(), |_| {
        Err(io::Error::other("peer gone"))
    });
    assert!(failed.is_err());
}

/// One transition of a session: a live record offered, or one go-live
/// step (`Some(seqs)`: the held frames it hands out; `None`: live).
#[derive(Debug)]
enum Step {
    Offer(u64, Offer),
    GoLive(u64, Option<Vec<u64>>),
    GoLiveKills(u64),
}

fn frame(seq: u64) -> Vec<u8> {
    seq.to_le_bytes().to_vec()
}

#[test]
fn hold_go_live_and_live_offers() {
    use Offer::{Held, Kill, Send, Skip};
    use Step::{GoLive as Go, GoLiveKills, Offer as O};
    // (case, have, steps)
    let table = [
        (
            "held records the catch-up covered are skipped",
            5,
            vec![O(5, Held), O(6, Held), Go(7, Some(vec![])), Go(7, None)],
        ),
        (
            "the overlap is skipped, the rest sent in order",
            0,
            vec![
                O(3, Held),
                O(4, Held),
                O(5, Held),
                Go(4, Some(vec![4, 5])),
                Go(4, None),
            ],
        ),
        (
            "records offered between steps are held for the next",
            0,
            vec![
                O(0, Held),
                Go(0, Some(vec![0])),
                O(1, Held),
                Go(0, Some(vec![1])),
                Go(0, None),
            ],
        ),
        (
            "a hole in the hold kills",
            5,
            vec![O(8, Held), GoLiveKills(7)],
        ),
        (
            "live: less is skipped, equal sent, greater kills",
            2,
            vec![
                Go(4, None),
                O(3, Skip),
                O(4, Send),
                O(5, Send),
                O(4, Skip),
                O(7, Kill),
            ],
        ),
        (
            "nothing held: live at once, from upto",
            9,
            vec![Go(9, None), O(9, Send)],
        ),
    ];
    for (case, have, steps) in table {
        let mut session = Session::open(have);
        assert_eq!(session.heartbeat(), Skip, "{case}: opens catching up");
        for step in steps {
            match &step {
                Step::Offer(seq, want) => {
                    assert_eq!(session.offer(*seq, &frame(*seq)), *want, "{case}: {step:?}");
                }
                Step::GoLive(upto, want) => {
                    let got = match session.go_live(*upto) {
                        GoLive::Send(frames) => Some(frames),
                        GoLive::Live => None,
                        GoLive::Kill => panic!("{case}: {step:?} killed"),
                    };
                    let want = want
                        .as_ref()
                        .map(|seqs| seqs.iter().map(|s| frame(*s)).collect());
                    assert_eq!(got, want, "{case}: {step:?}");
                    // Heartbeats wait for the catch-up: until live, they
                    // are skipped.
                    let beat = if want.is_some() { Skip } else { Send };
                    assert_eq!(session.heartbeat(), beat, "{case}: {step:?}");
                }
                Step::GoLiveKills(upto) => {
                    assert_eq!(session.go_live(*upto), GoLive::Kill, "{case}");
                }
            }
        }
    }
}

#[test]
fn a_full_hold_kills_the_session() {
    let mut session = Session::open(0);
    for seq in 0..SINK_QUEUE as u64 {
        assert_eq!(session.offer(seq, &frame(seq)), Offer::Held);
    }
    assert_eq!(session.offer(SINK_QUEUE as u64, &frame(0)), Offer::Kill);
}

/// The real filesystem, running `interpose` once just before the
/// second directory listing: the catch-up's checkpoint read.
struct Racing {
    listings: AtomicUsize,
    interpose: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl std::fmt::Debug for Racing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Racing")
    }
}

impl Storage for Racing {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        FsStorage.create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        if self.listings.fetch_add(1, Ordering::SeqCst) == 1 {
            if let Some(interpose) = self.interpose.lock().unwrap().take() {
                interpose();
            }
        }
        FsStorage.list_dir(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        FsStorage.exists(path)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        FsStorage.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        FsStorage.write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        FsStorage.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        FsStorage.remove_file(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        FsStorage.len(path)
    }

    fn open_append(&self, path: &Path, create: bool) -> io::Result<Box<dyn StorageFile>> {
        FsStorage.open_append(path, create)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        FsStorage.truncate(path, len)
    }
}

#[test]
fn a_checkpoint_landing_between_the_log_read_and_the_checkpoint_read_moves_upto() {
    let dir = TempDir::new("session-race");
    let mut core = open_core(dir.path());
    append(&mut core, 30);
    let end = core.wal().unwrap().next_seq();
    // The standby is registered at 0, behind the retained log: from now
    // on the appender's records are held for it.
    let mut session = Session::open(0);
    let core = Arc::new(Mutex::new(core));
    let appender = Arc::clone(&core);
    let racing = Racing {
        listings: AtomicUsize::new(0),
        interpose: Mutex::new(Some(Box::new(move || {
            // Past the log read: 7 more records, a checkpoint and a prune.
            append(&mut appender.lock().unwrap(), 7);
        }))),
    };
    let (caught, frames) = catch_up(0, &racing, dir.path()).unwrap();
    let raced = core.lock().unwrap().wal().unwrap().next_seq();
    let (ckpt, _) = newest_checkpoint_with(&FsStorage, dir.path())
        .unwrap()
        .unwrap();
    assert!(end < ckpt && ckpt < raced, "{end} {ckpt} {raced}");
    // The snapshot covers records the log read never saw: nothing else
    // is streamed, and the catch-up ends at the checkpoint.
    assert_eq!(caught, (Some(ckpt), ckpt));
    assert_eq!(kinds(&frames), vec![("snap".to_string(), ckpt)]);
    // Going live sends exactly the held records past the checkpoint.
    for seq in end..raced {
        assert_eq!(session.offer(seq, &frame(seq)), Offer::Held);
    }
    let past: Vec<Vec<u8>> = (ckpt..raced).map(frame).collect();
    assert_eq!(session.go_live(ckpt), GoLive::Send(past));
    assert_eq!(session.go_live(ckpt), GoLive::Live);
    assert_eq!(session.offer(raced, &frame(raced)), Offer::Send);
}

/// A clock that never moves: the standby's verdicts read no timer.
#[derive(Debug)]
struct Still;

impl Clock for Still {
    fn now(&self) -> Duration {
        Duration::ZERO
    }
}

/// Where a standby's frames would go: it streams to nobody.
struct Nowhere;

impl Peer for Nowhere {
    fn send(&mut self, _: &[u8]) -> bool {
        true
    }
}

/// A standby replica around `core`.
fn standby_node(core: ServiceCore) -> Node<Replication<Nowhere>> {
    let config = ReplConfig::standby("s:repl", "p:repl");
    let repl = ReplCore::new(&config, 7, 0, core.events_applied(), Duration::ZERO);
    Node::new(0, Some(core), Some(Replication::new(repl, Arc::new(Still))))
}

/// `framed` as the standby's driver hands it over.
fn unframed(framed: &[u8]) -> Frame {
    let FrameDecode::Complete { payload, .. } = decode_frame(framed) else {
        panic!("a whole frame");
    };
    parse_frame(payload).unwrap()
}

/// The primary's log from `first` on, as `rec` frames.
fn recs(dir: &Path) -> impl Fn(u64) -> Frame {
    let (first, log) = ref_serve::wal::read_events_with(&FsStorage, dir).unwrap();
    move |seq| {
        let mut record = Vec::new();
        log[(seq - first) as usize].write_record(&mut record);
        unframed(&rec_frame(seq, &record))
    }
}

fn snap(seq: u64, snapshot: &str) -> Frame {
    let fields = vec![
        ("seq", Value::from_u64(seq)),
        ("snapshot", Value::str(snapshot)),
    ];
    unframed(&message("snap", fields))
}

/// The ack of a standby that holds `have` records, without a fingerprint.
fn ack(seq: u64, have: u64, fresh: bool) -> Follow {
    let ack = message("ack", vec![("have", Value::from_u64(have))]);
    Follow::Ack {
        seq,
        have,
        fresh,
        ack,
    }
}

#[test]
fn the_standby_verdict() {
    let (pdir, sdir) = (TempDir::new("session-p"), TempDir::new("session-s"));
    let mut primary = open_core(pdir.path());
    append(&mut primary, 30);
    let (ckpt, snapshot) = newest_checkpoint_with(&FsStorage, pdir.path())
        .unwrap()
        .unwrap();
    let rec = recs(pdir.path());
    let metrics = ServeMetrics::new();
    let mut standby = standby_node(open_core(sdir.path()));
    let hb = message(
        "hb",
        vec![("term", Value::from_u64(0)), ("seq", Value::from_u64(0))],
    );
    let resync = |seq, have| Follow::HangUp {
        resync: Some((seq, have)),
        crash: false,
    };
    let hang_up = Follow::HangUp {
        resync: None,
        crash: false,
    };
    // (frame, what the standby does, records it holds after it)
    let table = [
        (unframed(&hb), Follow::Reading, 0),
        (unframed(&message("snap", vec![])), hang_up, 0),
        (rec(ckpt), resync(ckpt, 0), 0),
        (snap(ckpt, "not a snapshot"), resync(ckpt, 0), 0),
        (snap(ckpt, &snapshot), ack(ckpt, ckpt, true), ckpt),
        (rec(ckpt - 1), ack(ckpt - 1, ckpt, false), ckpt),
        (rec(ckpt + 1), resync(ckpt + 1, ckpt), ckpt),
        (rec(ckpt), ack(ckpt, ckpt + 1, true), ckpt + 1),
    ];
    for (frame, want, have) in table {
        let row = format!("{frame:?}");
        assert_eq!(standby.follow(frame, "p:repl", &metrics), want, "{row}");
        let core = standby.core().unwrap();
        assert_eq!(core.events_applied(), have, "{row}");
    }
    // The rest of the log brings the standby level with the primary,
    // and exactly the ticks ack with the standby's epoch fingerprint.
    let end = primary.wal().unwrap().next_seq();
    let (first, log) = ref_serve::wal::read_events_with(&FsStorage, pdir.path()).unwrap();
    for seq in ckpt + 1..end {
        let tick = log[(seq - first) as usize] == MarketEvent::EpochTick;
        let Follow::Ack {
            fresh: true, ack, ..
        } = standby.follow(rec(seq), "p:repl", &metrics)
        else {
            panic!("seq {seq} applies");
        };
        let FrameDecode::Complete { payload, .. } = decode_frame(&ack) else {
            panic!("a whole ack");
        };
        let ack = ref_serve::repl::parse_message(&payload).unwrap();
        let engine = standby.core().unwrap().engine();
        let fp = tick.then(|| format!("{:016x}", engine.state_fingerprint()));
        assert_eq!(
            ack.get("fp").and_then(Value::as_str),
            fp.as_deref(),
            "seq {seq}"
        );
    }
    let core = standby.core().unwrap();
    assert_eq!(core.final_snapshot(), primary.final_snapshot());
    // The restored standby's own log starts at the checkpoint.
    let (standby_first, _) = ref_serve::wal::read_events_with(&FsStorage, sdir.path()).unwrap();
    assert!(standby_first >= ckpt, "{standby_first}");
}

#[test]
fn a_down_standby_applies_and_acks_nothing_until_it_restarts_from_its_log() {
    let (pdir, sdir) = (TempDir::new("down-p"), TempDir::new("down-s"));
    // Below the checkpoint cadence: the log holds every record.
    let mut primary = open_core(pdir.path());
    append(&mut primary, 3);
    let snapshot = primary.final_snapshot();
    let rec = recs(pdir.path());
    let metrics = ServeMetrics::new();
    let mut standby = standby_node(open_core(sdir.path()));
    assert_eq!(standby.follow(rec(0), "p:repl", &metrics), ack(0, 1, true));
    standby.go_down(false);
    let hb = message(
        "hb",
        vec![("term", Value::from_u64(0)), ("seq", Value::from_u64(0))],
    );
    for frame in [rec(1), snap(3, &snapshot), unframed(&hb), rec(0)] {
        let row = format!("{frame:?}");
        assert_eq!(
            standby.follow(frame, "p:repl", &metrics),
            Follow::Reading,
            "{row}"
        );
        assert_eq!(standby.core().unwrap().events_applied(), 1, "{row}");
    }
    // Restarted from its log, it follows again where the log ends.
    drop(standby.crash());
    standby.restart(open_core(sdir.path()));
    assert!(!standby.is_down());
    assert_eq!(standby.follow(rec(1), "p:repl", &metrics), ack(1, 2, true));
}

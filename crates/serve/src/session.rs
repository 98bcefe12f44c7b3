//! `Session`: the primary's side of one standby connection as sans-IO
//! rules — catch-up, `snap` bootstrap, hold and go-live (DESIGN.md §10).
//! The standby's side is [`crate::node::Node::follow`].
//!
//! Nothing in here opens a socket, spawns, sleeps, locks or reads a
//! clock; the log and its newest checkpoint are read through the
//! [`Storage`] seam, and frames leave through the caller's `send`. The
//! threaded server (`repl.rs`) and the deterministic simulator
//! (`ref-dst`) drive these same rules, next to [`crate::ReplCore`]'s.
//!
//! A session opens when the primary accepts a standby's `hello` at
//! `have`: from that moment every live record is held for it. The
//! driver then streams the log with [`catch_up`] — a `snap` first when
//! `have` is behind the retained log, then the tail — and drains the
//! hold with [`Session::go_live`], skipping what the catch-up already
//! covered. Live records offered after that go straight out, in order.

use std::io;
use std::path::Path;

use crate::json::Value;
use crate::repl::{message, rec_frame};
use crate::storage::Storage;
use crate::wal;

/// How many live records may wait for a standby's catch-up before the
/// session is killed (the standby reconnects and catches up again).
pub const SINK_QUEUE: usize = 4096;

/// Streams a standby at `have` the log in `dir`: the newest checkpoint
/// as a `snap` iff `have` is below the first retained record, then
/// every record from there on. Reading a live directory is safe:
/// records and checkpoints become visible only whole.
///
/// Returns the `snap`'s sequence, if one was sent, and `upto`, the
/// first sequence the catch-up did not cover (pass it to
/// [`Session::go_live`]): the end of the log read, or the checkpoint's
/// sequence when that is further — a checkpoint and prune that land
/// between the two reads leave a snapshot covering records the log
/// read never saw.
///
/// # Errors
///
/// Read failures, `send` failures, and [`io::ErrorKind::InvalidData`]
/// when `have` is behind the retained log and no checkpoint covers the
/// gap. Any error ends the session.
pub fn catch_up(
    have: u64,
    storage: &dyn Storage,
    dir: &Path,
    mut send: impl FnMut(Vec<u8>) -> io::Result<()>,
) -> io::Result<(Option<u64>, u64)> {
    let (first, events) = wal::read_events_with(storage, dir)?;
    let mut snap = None;
    if have < first {
        let gap = "standby is behind the retained log and no checkpoint covers the gap";
        let newest = wal::newest_checkpoint_with(storage, dir)?;
        let (seq, snapshot) = newest.ok_or(io::Error::new(io::ErrorKind::InvalidData, gap))?;
        let seq_field = ("seq", Value::from_u64(seq));
        send(message(
            "snap",
            vec![seq_field, ("snapshot", Value::str(snapshot))],
        ))?;
        snap = Some(seq);
    }
    let from = snap.unwrap_or(have);
    let mut record = Vec::new();
    for (seq, event) in (first..).zip(&events).filter(|(seq, _)| *seq >= from) {
        record.clear();
        event.write_record(&mut record);
        send(rec_frame(seq, &record))?;
    }
    Ok((snap, (first + events.len() as u64).max(from)))
}

/// The verdict on a live record or a heartbeat offered to a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Held until the catch-up is through.
    Held,
    /// Nothing to send: the catch-up already covered the record, or a
    /// heartbeat would interrupt it.
    Skip,
    /// The next record the standby is owed: send it.
    Send,
    /// The hold is full, or there is a hole between what was sent and
    /// this record: kill the session.
    Kill,
}

/// One step of [`Session::go_live`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoLive {
    /// Send these held frames, in order, then step again.
    Send(Vec<Vec<u8>>),
    /// The hold is drained: the session is live.
    Live,
    /// A hole in the held records: kill the session.
    Kill,
}

/// The primary's side of one standby connection (see the module docs).
#[derive(Debug)]
pub struct Session {
    /// `Some` while catching up: live records wait here, in order.
    held: Option<Vec<(u64, Vec<u8>)>>,
    /// The next record sequence the standby is owed.
    next_send: u64,
}

impl Session {
    /// A session for a standby that holds `have` records, accepted just
    /// now: live records are held from this moment on.
    pub fn open(have: u64) -> Session {
        Session {
            held: Some(Vec::new()),
            next_send: have,
        }
    }

    /// The verdict on a heartbeat: sent once live; one still catching
    /// up is hearing from the primary anyway.
    pub fn heartbeat(&self) -> Offer {
        match self.held {
            Some(_) => Offer::Skip,
            None => Offer::Send,
        }
    }

    /// Judges one live record: held while catching up (up to
    /// [`SINK_QUEUE`]), then sent only when it is the next one owed.
    pub fn offer(&mut self, seq: u64, frame: &[u8]) -> Offer {
        match &mut self.held {
            Some(held) if held.len() < SINK_QUEUE => {
                held.push((seq, frame.to_vec()));
                Offer::Held
            }
            Some(_) => Offer::Kill,
            None => match seq.cmp(&self.next_send) {
                std::cmp::Ordering::Less => Offer::Skip,
                std::cmp::Ordering::Equal => {
                    self.next_send = seq + 1;
                    Offer::Send
                }
                // A hole between what was sent and the live record
                // should be impossible; never paper over it.
                std::cmp::Ordering::Greater => Offer::Kill,
            },
        }
    }

    /// Ends the catch-up that covered everything below `upto`: hands out
    /// what was held since the last step (skipping `seq < upto` and
    /// what an earlier step sent) until the hold is empty, then turns
    /// the session live. Records offered between steps are held, so the
    /// driver may send a step's frames without holding the session.
    pub fn go_live(&mut self, upto: u64) -> GoLive {
        self.next_send = self.next_send.max(upto);
        let held = match self.held.take() {
            Some(held) if !held.is_empty() => held,
            _ => return GoLive::Live,
        };
        self.held = Some(Vec::new());
        let mut frames = Vec::new();
        for (seq, frame) in held {
            if seq > self.next_send {
                return GoLive::Kill;
            }
            if seq == self.next_send {
                frames.push(frame);
                self.next_send += 1;
            }
        }
        GoLive::Send(frames)
    }
}

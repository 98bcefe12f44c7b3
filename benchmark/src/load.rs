//! The two load loops: closed (send the next op when the reply arrives) and
//! paced (open loop: ops are due on a fixed schedule whatever the server
//! does).
//!
//! Both take the op source and the transport as closures, so the tests can
//! drive them against a fake server.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::script::{Op, OpKind};

/// One completed op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Op index within its phase and connection.
    pub index: usize,
    pub kind: OpKind,
    /// The reply was `ok` (and passed the workload's reply checks).
    pub ok: bool,
    /// Closed: send to reply. Paced: *due time* to reply, so a stalled reply
    /// is charged to every op that became due while the connection waited.
    pub latency_ns: u64,
    /// When the reply arrived, since the phase began.
    pub done_ns: u64,
    /// Paced only: how long after its due time the op was sent.
    pub late_ns: u64,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Sends ops `0..n` back to back. `call` returns whether the reply was good.
pub fn run_closed(
    n: usize,
    origin: Instant,
    mut op: impl FnMut(usize) -> Op,
    mut call: impl FnMut(&Op) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(n);
    for index in 0..n {
        let op = op(index);
        let sent = Instant::now();
        let ok = call(&op);
        let done = Instant::now();
        samples.push(Sample {
            index,
            kind: op.kind,
            ok,
            latency_ns: ns(done - sent),
            done_ns: ns(done - origin),
            late_ns: 0,
        });
    }
    samples
}

/// When a paced loop ends.
pub enum PacedEnd<'a> {
    /// After this many ops.
    Count(usize),
    /// At the first due time after the flag is set.
    Flag(&'a AtomicBool),
}

/// Sends op `i` at `origin + i / rate`, sleeping (never spinning) until
/// then. The connection carries one request at a time, so an op whose
/// predecessor's reply is late is sent late: its latency still runs from
/// the time it was due.
pub fn run_paced(
    rate: f64,
    end: PacedEnd<'_>,
    origin: Instant,
    mut op: impl FnMut(usize) -> Op,
    mut call: impl FnMut(&Op) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for index in 0.. {
        match end {
            PacedEnd::Count(n) if index >= n => break,
            PacedEnd::Flag(stop) if stop.load(Ordering::SeqCst) => break,
            _ => {}
        }
        let due = origin + Duration::from_secs_f64(index as f64 / rate);
        let op = op(index);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let ok = call(&op);
        let done = Instant::now();
        samples.push(Sample {
            index,
            kind: op.kind,
            ok,
            latency_ns: ns(done.saturating_duration_since(due)),
            done_ns: ns(done - origin),
            late_ns: ns(sent.saturating_duration_since(due)),
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observe(_: usize) -> Op {
        Op {
            kind: OpKind::Mutate,
            line: String::new(),
        }
    }

    #[test]
    fn closed_loop_times_each_call_alone() {
        let origin = Instant::now();
        let mut calls = 0;
        let samples = run_closed(20, origin, observe, |_| {
            calls += 1;
            if calls == 5 {
                std::thread::sleep(Duration::from_millis(20));
            }
            calls != 7
        });
        assert_eq!(samples.len(), 20);
        assert!(samples[4].latency_ns >= 20_000_000);
        // The stall is not charged to the ops after it.
        assert!(samples[5..].iter().all(|s| s.latency_ns < 15_000_000));
        assert_eq!(samples.iter().filter(|s| !s.ok).count(), 1);
        assert!(!samples[6].ok);
    }

    #[test]
    fn paced_loop_charges_a_stalled_reply_to_the_ops_behind_it() {
        // 1,000 ops/s; the reply to op 10 takes 50 ms. Ops 11.. were due at
        // 11 ms, 12 ms, ... but cannot be sent before 60 ms, so op `i`
        // waits at least `60 - i` ms from its due time.
        let origin = Instant::now();
        let mut sent = 0;
        let samples = run_paced(1_000.0, PacedEnd::Count(120), origin, observe, |_| {
            sent += 1;
            if sent == 11 {
                std::thread::sleep(Duration::from_millis(50));
            }
            true
        });
        assert!(samples[10].latency_ns >= 50_000_000);
        for s in &samples[11..=40] {
            let floor_ns = (60 - s.index as u64) * 1_000_000 - 500_000;
            assert!(s.latency_ns >= floor_ns, "{s:?}: under {floor_ns} ns");
            assert!(s.late_ns >= floor_ns);
        }
        // Before the stall nothing was late by anything like that.
        assert!(samples[..10].iter().all(|s| s.latency_ns < 40_000_000));
        // The loop never sends an op before it is due.
        for s in &samples {
            assert!(s.done_ns >= s.index as u64 * 1_000_000);
        }
    }

    #[test]
    fn paced_loop_stops_on_the_flag() {
        let stop = AtomicBool::new(false);
        let mut calls = 0;
        let samples = run_paced(
            2_000.0,
            PacedEnd::Flag(&stop),
            Instant::now(),
            observe,
            |_| {
                calls += 1;
                if calls == 25 {
                    stop.store(true, Ordering::SeqCst);
                }
                true
            },
        );
        assert_eq!(samples.len(), 25);
    }
}

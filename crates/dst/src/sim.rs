//! The deterministic substrate: virtual time, seeded randomness, and
//! the hashed event trace.
//!
//! Nothing in the simulator reads [`std::time::Instant`], the OS
//! entropy pool, or thread scheduling. Time is a counter that advances
//! only when the scheduler says so; randomness is a `splitmix64` stream
//! forked per concern; and every observable step appends to a running
//! FNV-1a trace hash, so two runs of the same seed either match
//! bit-for-bit or point at the first divergent event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ref_serve::Clock;

/// Virtual monotonic time: a shared nanosecond counter implementing the
/// serve [`Clock`] seam. Cloning shares the counter, so the fleet and
/// every component it hands the clock to observe the same instant.
#[derive(Debug, Clone, Default)]
pub(crate) struct SimClock(Arc<AtomicU64>);

impl SimClock {
    /// A clock at virtual time zero.
    pub(crate) fn new() -> SimClock {
        SimClock::default()
    }

    /// Jumps to an absolute virtual instant (ignored if in the past).
    pub(crate) fn set(&self, at: Duration) {
        let nanos = u64::try_from(at.as_nanos()).unwrap_or(u64::MAX);
        self.0.fetch_max(nanos, Ordering::SeqCst);
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.0.load(Ordering::SeqCst))
    }
}

/// `splitmix64`: the same full-avalanche mixer the serve crate uses for
/// ring placement and election jitter, so simulated randomness and
/// product randomness share one arithmetic.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded deterministic random stream (`splitmix64` sequence).
///
/// Pure state machine: no process entropy, no locks. [`SimRng::fork`]
/// derives an independent stream for a sub-concern so inserting a draw
/// in one component cannot shift every draw after it fleet-wide.
#[derive(Debug, Clone)]
pub(crate) struct SimRng {
    state: u64,
}

impl SimRng {
    /// A stream seeded (and stirred) from `seed`.
    pub(crate) fn new(seed: u64) -> SimRng {
        SimRng {
            state: mix64(seed ^ 0x00D5_7000_0D57),
        }
    }

    /// The next 64 uniformly random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)` (`0` when `n == 0`), via the
    /// multiply-high reduction — no modulo bias worth caring about.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)` (`lo` when the range is empty).
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi.saturating_sub(lo))
    }

    /// `true` with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The append-only event trace: every observable simulator step, stamped
/// with virtual time, folded into a running FNV-1a hash.
///
/// The hash is the determinism oracle — two runs of one seed must agree
/// on it exactly — and the stored lines are the debugging artifact a
/// violation prints so `dst_sweep --seed N` reproduces the failure
/// event-for-event.
#[derive(Debug)]
pub(crate) struct Trace {
    lines: Vec<String>,
    hash: u64,
    events: u64,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace {
            lines: Vec::new(),
            hash: FNV_OFFSET,
            events: 0,
        }
    }
}

impl Trace {
    /// An empty trace.
    pub(crate) fn new() -> Trace {
        Trace::default()
    }

    /// Records one event at virtual time `at`.
    pub(crate) fn push(&mut self, at: Duration, line: impl Into<String>) {
        let line = line.into();
        let stamped = format!("t={:>9}us {}", at.as_micros(), line);
        for byte in stamped.as_bytes() {
            self.hash ^= u64::from(*byte);
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        self.hash ^= 0xFF;
        self.hash = self.hash.wrapping_mul(FNV_PRIME);
        self.events += 1;
        self.lines.push(stamped);
    }

    /// The running FNV-1a hash over every event so far.
    pub(crate) fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of events recorded.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// Consumes the trace, returning the lines.
    pub(crate) fn into_lines(self) -> Vec<String> {
        self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_advances_only_on_request() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.set(Duration::from_millis(5));
        assert_eq!(clock.now(), Duration::from_millis(5));
        let shared = clock.clone();
        shared.set(Duration::from_millis(3)); // past: ignored
        assert_eq!(clock.now(), Duration::from_millis(5));
        shared.set(Duration::from_millis(9));
        assert_eq!(clock.now(), Duration::from_millis(9));
    }

    #[test]
    fn rng_streams_are_deterministic_and_forks_independent() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(draws_a, draws_b);
        let mut c = SimRng::new(43);
        assert_ne!(c.next_u64(), draws_a[0]);
    }

    #[test]
    fn rng_range_stays_in_bounds() {
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            let x = rng.range(10, 20);
            assert!((10..20).contains(&x));
            let p = rng.next_f64();
            assert!((0.0..1.0).contains(&p));
        }
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.range(5, 5), 5);
    }

    #[test]
    fn trace_hash_is_order_and_content_sensitive() {
        let mut a = Trace::new();
        a.push(Duration::from_millis(1), "x");
        a.push(Duration::from_millis(2), "y");
        let mut b = Trace::new();
        b.push(Duration::from_millis(2), "y");
        b.push(Duration::from_millis(1), "x");
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.events(), 2);

        let mut c = Trace::new();
        c.push(Duration::from_millis(1), "x");
        c.push(Duration::from_millis(2), "y");
        assert_eq!(a.hash(), c.hash());
    }
}

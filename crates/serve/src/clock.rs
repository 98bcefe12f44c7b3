//! The clock seam: monotonic time as a trait, so heartbeat, election
//! and tick-budget decisions can run on virtual time.
//!
//! Everything in `serve` that *compares* times — "has the standby been
//! silent longer than the election timeout?", "is the next timed epoch
//! due?" — reads a [`Clock`] instead of [`std::time::Instant`] directly.
//! Production uses [`RealClock`], a zero-state newtype over a
//! process-wide monotonic origin; the `ref-dst` simulator substitutes a
//! `SimClock` whose time advances only when the scheduler says so,
//! making every timeout race a deterministic, seed-reproducible event.
//!
//! The seam covers time *reads*; actual blocking (condvar waits, thread
//! parks, socket timeouts) stays on the real primitives — under
//! simulation there are no threads to park, so nothing simulated ever
//! blocks.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A monotonic clock: `now()` is the time elapsed since an arbitrary
/// fixed origin. Only differences between readings are meaningful.
pub trait Clock: std::fmt::Debug + Send + Sync {
    /// Monotonic time since the clock's origin.
    fn now(&self) -> Duration;
}

/// The process monotonic clock ([`Instant`] under the hood), measured
/// from the first reading taken anywhere in the process.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RealClock;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

impl Clock for RealClock {
    fn now(&self) -> Duration {
        ORIGIN.get_or_init(Instant::now).elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let clock = RealClock;
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn real_clock_advances_with_wall_time() {
        let clock = RealClock;
        let a = clock.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(clock.now() > a);
    }
}

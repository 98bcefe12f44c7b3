//! Per-shard count of requests in flight and the queue of work pushed to
//! the shard thread.
//!
//! A client request is served to completion on the connection thread that
//! read it, so there is no queue of client requests. What is left of one
//! is its count: [`Bus::admit`] counts the requests that are *in flight*
//! — admitted and not yet served: waiting for the shard lock or being
//! served. The count bounds nothing by itself: a connection carries one
//! request at a time, so the server's connection cap is the bound. It
//! feeds the `queue_depth` metrics and the shutdown drain, and `admit`
//! refuses new requests once the bus is closed.
//!
//! The queue carries what is *pushed* to the shard's own thread from
//! inside the server — fanned ticks and inspections, journaled
//! reallotments, probes, `shutdown` — in FIFO order: [`Bus::push`],
//! [`Bus::wait`], [`Bus::drain`].

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// The bus is closed (server shutting down).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Closed;

struct BusState<T> {
    queue: VecDeque<T>,
    in_flight: usize,
    closed: bool,
}

impl<T> BusState<T> {
    fn depth(&self) -> usize {
        self.queue.len() + self.in_flight
    }
}

/// The in-flight count and pushed-work queue of one shard.
pub(crate) struct Bus<T> {
    state: Mutex<BusState<T>>,
    available: Condvar,
}

/// One admitted request; dropping it ends the request's flight.
pub(crate) struct Admitted<'a, T> {
    bus: &'a Bus<T>,
    /// The bus depth right after this admission (this request included).
    pub depth: usize,
}

impl<T> Drop for Admitted<'_, T> {
    fn drop(&mut self) {
        let mut state = self.bus.state();
        state.in_flight -= 1;
        let drained = state.closed && state.depth() == 0;
        drop(state);
        if drained {
            // The shard thread may be waiting for exactly this.
            self.bus.available.notify_all();
        }
    }
}

impl<T> Bus<T> {
    /// Creates an open, empty bus.
    pub(crate) fn new() -> Bus<T> {
        Bus {
            state: Mutex::new(BusState {
                queue: VecDeque::new(),
                in_flight: 0,
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, BusState<T>> {
        self.state.lock().expect("bus lock poisoned")
    }

    /// Admits one request. The request is in flight until the returned
    /// guard is dropped.
    ///
    /// # Errors
    ///
    /// [`Closed`] once [`Bus::close`] has been called.
    pub(crate) fn admit(&self) -> Result<Admitted<'_, T>, Closed> {
        let mut state = self.state();
        if state.closed {
            return Err(Closed);
        }
        state.in_flight += 1;
        let depth = state.depth();
        Ok(Admitted { bus: self, depth })
    }

    /// Queues one item for the shard thread. Reserved for producers
    /// inside the server; client traffic goes through [`Bus::admit`].
    ///
    /// # Errors
    ///
    /// [`Closed`] once [`Bus::close`] has been called.
    pub(crate) fn push(&self, item: T) -> Result<(), Closed> {
        let mut state = self.state();
        if state.closed {
            return Err(Closed);
        }
        state.queue.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Removes and returns every queued item in arrival order.
    pub(crate) fn drain(&self) -> Vec<T> {
        self.state().queue.drain(..).collect()
    }

    /// Blocks until an item is queued, the bus is closed with nothing left
    /// queued or in flight, [`Bus::wake`] is called, or `timeout` elapses.
    pub(crate) fn wait(&self, timeout: Duration) {
        let state = self.state();
        if !state.queue.is_empty() || (state.closed && state.depth() == 0) {
            return;
        }
        let _ = self
            .available
            .wait_timeout(state, timeout)
            .expect("bus lock poisoned");
    }

    /// Cuts a [`Bus::wait`] short, so its caller re-reads whatever it
    /// schedules by.
    pub(crate) fn wake(&self) {
        self.available.notify_all();
    }

    /// Closes the bus: subsequent `admit`s and `push`es fail with
    /// [`Closed`]; queued items remain drainable and requests
    /// in flight finish.
    pub(crate) fn close(&self) {
        self.state().closed = true;
        self.available.notify_all();
    }

    /// Whether the bus is closed.
    pub(crate) fn is_closed(&self) -> bool {
        self.state().closed
    }

    /// Requests in flight plus items queued.
    pub(crate) fn depth(&self) -> usize {
        self.state().depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pushed_items_drain_in_fifo_order() {
        let bus: Bus<u32> = Bus::new();
        for item in 1..=3 {
            bus.push(item).unwrap();
        }
        assert_eq!(bus.depth(), 3);
        assert_eq!(bus.drain(), vec![1, 2, 3]);
        assert_eq!(bus.depth(), 0);
    }

    #[test]
    fn push_bypasses_quota_but_not_closure() {
        // Pushed work and admitted requests share the depth, not a bound.
        let bus: Bus<u32> = Bus::new();
        let _held = bus.admit().unwrap();
        bus.push(3).unwrap();
        assert_eq!(bus.depth(), 2);
        assert_eq!(bus.drain().len(), 1);
        bus.close();
        assert_eq!(bus.push(4), Err(Closed));
    }

    #[test]
    fn close_rejects_new_work_but_keeps_what_was_admitted() {
        let bus: Bus<u32> = Bus::new();
        bus.push(1).unwrap();
        let held = bus.admit().unwrap();
        bus.close();
        assert_eq!(bus.admit().err(), Some(Closed));
        assert!(bus.is_closed());
        assert_eq!(bus.drain().len(), 1);
        assert_eq!(bus.depth(), 1);
        drop(held);
        assert_eq!(bus.depth(), 0);
    }

    #[test]
    fn wait_wakes_on_push_and_expires_on_timeout() {
        let bus: Arc<Bus<u32>> = Arc::new(Bus::new());
        bus.wait(Duration::from_millis(10));
        assert_eq!(bus.depth(), 0);
        let sender = Arc::clone(&bus);
        let handle = std::thread::spawn(move || sender.push(7).unwrap());
        while bus.depth() == 0 {
            bus.wait(Duration::from_secs(5));
        }
        handle.join().unwrap();
        assert_eq!(bus.drain(), vec![7]);
    }

    #[test]
    fn a_closed_bus_wakes_its_waiter_when_the_last_flight_lands() {
        let bus: Arc<Bus<u32>> = Arc::new(Bus::new());
        let (admitted, landed) = (
            Arc::new(std::sync::Barrier::new(2)),
            Arc::new(std::sync::Barrier::new(2)),
        );
        let flight = {
            let (bus, admitted, landed) =
                (Arc::clone(&bus), Arc::clone(&admitted), Arc::clone(&landed));
            std::thread::spawn(move || {
                let held = bus.admit().unwrap();
                admitted.wait();
                landed.wait();
                drop(held);
            })
        };
        admitted.wait();
        bus.close();
        // Closed but not drained: the wait parks instead of spinning.
        let started = std::time::Instant::now();
        bus.wait(Duration::from_millis(20));
        assert!(started.elapsed() >= Duration::from_millis(20));
        landed.wait();
        while bus.depth() > 0 {
            bus.wait(Duration::from_secs(5));
        }
        flight.join().unwrap();
        // Drained: the wait returns at once.
        let started = std::time::Instant::now();
        bus.wait(Duration::from_secs(5));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn concurrent_admissions_respect_the_quota_exactly() {
        // The one count is exact under contention: every admission is
        // counted while held and uncounted when dropped.
        let bus: Arc<Bus<usize>> = Arc::new(Bus::new());
        // Every thread keeps what it was admitted until all have tried.
        let tried = Arc::new(std::sync::Barrier::new(9));
        let landed = Arc::new(std::sync::Barrier::new(9));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (bus, tried, landed) = (Arc::clone(&bus), Arc::clone(&tried), Arc::clone(&landed));
            handles.push(std::thread::spawn(move || {
                let held: Vec<_> = (0..100).map(|_| bus.admit().unwrap()).collect();
                tried.wait();
                landed.wait();
                held.len()
            }));
        }
        tried.wait();
        assert_eq!(bus.depth(), 800, "every admission in flight is counted");
        landed.wait();
        let admitted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(admitted, 800);
        assert_eq!(bus.depth(), 0);
    }
}

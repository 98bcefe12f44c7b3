//! Per-shard admission control and the queue of work pushed to the shard
//! thread.
//!
//! A client request is served to completion on the connection thread that
//! read it, so there is no queue of client requests any more. What is left
//! of one is its bound: [`Bus::admit`] counts the requests that are *in
//! flight* — admitted and not yet answered: waiting for the shard lock,
//! being served, or having their reply written — per admission class,
//! and refuses the one that would exceed its class quota.
//! A flood of `query`s fills the query quota and starts bouncing while
//! `observe` and control traffic keep flowing until their own quotas fill.
//! Rejection is immediate and explicit — `admit` never blocks — so
//! backpressure surfaces to the client as an `overloaded` response with a
//! `retry_after_ms` hint rather than as unbounded waiting or silent drops.
//!
//! The queue that remains carries what is *pushed* to the shard's own
//! thread from inside the server — fanned ticks and inspections, journaled
//! reallotments, probes, `shutdown` — in FIFO order and exempt from the
//! quotas: [`Bus::push`], [`Bus::wait`], [`Bus::drain`].

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::protocol::{Class, NUM_CLASSES};

/// Why a request was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The request's class quota is exhausted; retry after the hint.
    Full(Class),
    /// The bus is closed (server shutting down).
    Closed,
}

/// Per-class quotas of in-flight requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quotas {
    /// Maximum in-flight `Control` requests.
    pub control: usize,
    /// Maximum in-flight `Observe` requests.
    pub observe: usize,
    /// Maximum in-flight `Query` requests.
    pub query: usize,
}

impl Quotas {
    fn limit(&self, class: Class) -> usize {
        match class {
            Class::Control => self.control,
            Class::Observe => self.observe,
            Class::Query => self.query,
        }
    }
}

impl Default for Quotas {
    fn default() -> Quotas {
        Quotas {
            control: 256,
            observe: 1024,
            query: 256,
        }
    }
}

struct BusState<T> {
    queue: VecDeque<T>,
    in_flight: [usize; NUM_CLASSES],
    closed: bool,
    depth_max: usize,
}

impl<T> BusState<T> {
    fn depth(&self) -> usize {
        self.queue.len() + self.in_flight.iter().sum::<usize>()
    }
}

/// The in-flight admission guard and pushed-work queue of one shard.
pub struct Bus<T> {
    state: Mutex<BusState<T>>,
    available: Condvar,
    quotas: Quotas,
}

impl<T> std::fmt::Debug for Bus<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bus").field("quotas", &self.quotas).finish()
    }
}

/// One admitted request; dropping it ends the request's flight.
pub struct Admitted<'a, T> {
    bus: &'a Bus<T>,
    class: Class,
    /// The bus depth right after this admission (this request included).
    pub depth: usize,
}

impl<T> Drop for Admitted<'_, T> {
    fn drop(&mut self) {
        let mut state = self.bus.state();
        state.in_flight[self.class as usize] -= 1;
        let drained = state.closed && state.depth() == 0;
        drop(state);
        if drained {
            // The shard thread may be waiting for exactly this.
            self.bus.available.notify_all();
        }
    }
}

impl<T> Bus<T> {
    /// Creates an open bus with the given quotas.
    pub fn new(quotas: Quotas) -> Bus<T> {
        Bus {
            state: Mutex::new(BusState {
                queue: VecDeque::new(),
                in_flight: [0; NUM_CLASSES],
                closed: false,
                depth_max: 0,
            }),
            available: Condvar::new(),
            quotas,
        }
    }

    fn state(&self) -> MutexGuard<'_, BusState<T>> {
        self.state.lock().expect("bus lock poisoned")
    }

    /// The configured quotas.
    pub fn quotas(&self) -> Quotas {
        self.quotas
    }

    /// Admits one request of `class`, or rejects it immediately. The
    /// request is in flight until the returned guard is dropped.
    ///
    /// # Errors
    ///
    /// [`SendError::Full`] when the class quota is exhausted,
    /// [`SendError::Closed`] once [`Bus::close`] has been called.
    pub fn admit(&self, class: Class) -> Result<Admitted<'_, T>, SendError> {
        let mut state = self.state();
        if state.closed {
            return Err(SendError::Closed);
        }
        if state.in_flight[class as usize] >= self.quotas.limit(class) {
            return Err(SendError::Full(class));
        }
        state.in_flight[class as usize] += 1;
        let depth = state.depth();
        state.depth_max = state.depth_max.max(depth);
        Ok(Admitted {
            bus: self,
            class,
            depth,
        })
    }

    /// Queues one item for the shard thread, exempt from the quotas (still
    /// refused once the bus is closed). Reserved for producers inside the
    /// server: fleet-wide control must not be bounced by one shard's
    /// backpressure. External client traffic goes through [`Bus::admit`].
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] once [`Bus::close`] has been called.
    pub fn push(&self, item: T) -> Result<(), SendError> {
        let mut state = self.state();
        if state.closed {
            return Err(SendError::Closed);
        }
        state.queue.push_back(item);
        let depth = state.depth();
        state.depth_max = state.depth_max.max(depth);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Removes and returns every queued item in arrival order.
    pub fn drain(&self) -> Vec<T> {
        self.state().queue.drain(..).collect()
    }

    /// Blocks until an item is queued, the bus is closed with nothing left
    /// queued or in flight, [`Bus::wake`] is called, or `timeout` elapses.
    pub fn wait(&self, timeout: Duration) {
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
    pub fn wake(&self) {
        self.available.notify_all();
    }

    /// Closes the bus: subsequent `admit`s and `push`es fail with
    /// [`SendError::Closed`]; queued items remain drainable and requests
    /// in flight finish.
    pub fn close(&self) {
        self.state().closed = true;
        self.available.notify_all();
    }

    /// Whether the bus is closed.
    pub fn is_closed(&self) -> bool {
        self.state().closed
    }

    /// Requests in flight plus items queued.
    pub fn depth(&self) -> usize {
        self.state().depth()
    }

    /// High-water mark of the depth since creation.
    pub fn depth_max(&self) -> usize {
        self.state().depth_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pushed_items_drain_in_fifo_order() {
        let bus: Bus<u32> = Bus::new(Quotas::default());
        for item in 1..=3 {
            bus.push(item).unwrap();
        }
        assert_eq!(bus.depth(), 3);
        assert_eq!(bus.drain(), vec![1, 2, 3]);
        assert_eq!(bus.depth(), 0);
        assert_eq!(bus.depth_max(), 3);
    }

    #[test]
    fn full_class_rejects_without_blocking_other_classes() {
        let bus: Bus<u32> = Bus::new(Quotas {
            control: 2,
            observe: 1,
            query: 1,
        });
        let query = bus.admit(Class::Query).unwrap();
        // The query quota is exhausted; queries bounce with the class.
        assert_eq!(
            bus.admit(Class::Query).err(),
            Some(SendError::Full(Class::Query))
        );
        // Other classes are unaffected by the full query quota.
        let _observe = bus.admit(Class::Observe).unwrap();
        let _first = bus.admit(Class::Control).unwrap();
        let second = bus.admit(Class::Control).unwrap();
        assert_eq!(second.depth, 4);
        assert_eq!(
            bus.admit(Class::Control).err(),
            Some(SendError::Full(Class::Control))
        );
        // A request that lands frees its slot, and only its own.
        drop(query);
        assert_eq!(bus.depth(), 3);
        let _query = bus.admit(Class::Query).unwrap();
        assert_eq!(bus.depth_max(), 4);
    }

    #[test]
    fn push_bypasses_quota_but_not_closure() {
        let bus: Bus<u32> = Bus::new(Quotas {
            control: 1,
            observe: 1,
            query: 1,
        });
        let _held = bus.admit(Class::Control).unwrap();
        assert!(bus.admit(Class::Control).is_err());
        bus.push(3).unwrap();
        assert_eq!(bus.drain().len(), 1);
        bus.close();
        assert_eq!(bus.push(4), Err(SendError::Closed));
    }

    #[test]
    fn close_rejects_new_work_but_keeps_what_was_admitted() {
        let bus: Bus<u32> = Bus::new(Quotas::default());
        bus.push(1).unwrap();
        let held = bus.admit(Class::Observe).unwrap();
        bus.close();
        assert_eq!(bus.admit(Class::Control).err(), Some(SendError::Closed));
        assert!(bus.is_closed());
        assert_eq!(bus.drain().len(), 1);
        assert_eq!(bus.depth(), 1);
        drop(held);
        assert_eq!(bus.depth(), 0);
    }

    #[test]
    fn wait_wakes_on_push_and_expires_on_timeout() {
        let bus: Arc<Bus<u32>> = Arc::new(Bus::new(Quotas::default()));
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
        let bus: Arc<Bus<u32>> = Arc::new(Bus::new(Quotas::default()));
        let (admitted, landed) = (
            Arc::new(std::sync::Barrier::new(2)),
            Arc::new(std::sync::Barrier::new(2)),
        );
        let flight = {
            let (bus, admitted, landed) =
                (Arc::clone(&bus), Arc::clone(&admitted), Arc::clone(&landed));
            std::thread::spawn(move || {
                let held = bus.admit(Class::Observe).unwrap();
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
        let bus: Arc<Bus<usize>> = Arc::new(Bus::new(Quotas {
            control: 256,
            observe: 50,
            query: 256,
        }));
        // Every thread keeps what it was admitted until all have tried.
        let tried = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (bus, tried) = (Arc::clone(&bus), Arc::clone(&tried));
            handles.push(std::thread::spawn(move || {
                let held: Vec<_> = (0..100)
                    .filter_map(|_| bus.admit(Class::Observe).ok())
                    .collect();
                tried.wait();
                held.len()
            }));
        }
        let admitted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(admitted, 50, "quota must bound admissions exactly");
        assert_eq!(bus.depth(), 0);
        assert_eq!(bus.depth_max(), 50);
    }
}

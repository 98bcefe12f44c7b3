//! The market's event API.
//!
//! Clients do not call into the engine synchronously; they submit events
//! which the engine processes in submission order when pumped. Membership
//! events between two `EpochTick`s take effect at the next tick, so a batch
//! of joins/leaves triggers at most one reallocation.
//!
//! ## Same-batch ordering semantics
//!
//! Events are applied strictly one at a time in submission order — there
//! is no coalescing, and every edge case a concurrent transport can
//! produce reduces to sequential application:
//!
//! - **join then leave** (same agent, same batch): a clean no-op for the
//!   next allocation, but both counters advance and the warm-up window
//!   restarts (the population *did* churn).
//! - **leave then join** (same id): a legal rejoin; the new incarnation
//!   starts from the uniform prior with a fresh `joined_epoch`.
//! - **join then join** (same id, no leave between): the second join is a
//!   [`DuplicateAgent`](crate::error::MarketError::DuplicateAgent) error;
//!   the first incarnation is untouched.
//! - **leave then observe** (same agent): the observation is an
//!   [`UnknownAgent`](crate::error::MarketError::UnknownAgent) error —
//!   departure is immediate, not end-of-epoch. The mirrored
//!   **observe then leave** order applies the observation first and is
//!   fully effective.
//!
//! Error handling differs by entry point: [`pump`](crate::MarketEngine::pump)
//! is fail-fast (the failed event is dropped, the rest stay queued), while
//! [`apply_now`](crate::MarketEngine::apply_now) surfaces each event's
//! outcome individually. Applying the same sequence through either path —
//! retrying `pump` past errors — yields bit-identical engine state.

use std::collections::VecDeque;

use ref_core::utility::CobbDouglas;

use crate::agent::{AgentId, ObservationSource};

/// An event submitted to the market.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MarketEvent {
    /// A new agent requests admission.
    AgentJoined {
        /// Stable id chosen by the client; must not collide with a live agent.
        id: AgentId,
        /// How the agent's performance observations are produced.
        source: ObservationSource,
    },
    /// A live agent departs; its share is redistributed at the next tick.
    AgentLeft {
        /// The departing agent.
        id: AgentId,
    },
    /// An agent's demand changed: its observation history is stale. The
    /// engine flushes the estimator back to the naive prior and, for
    /// ground-truth agents, swaps the hidden utility.
    DemandChanged {
        /// The agent whose demand changed.
        id: AgentId,
        /// Replacement ground truth for
        /// [`ObservationSource::GroundTruth`] agents; `None` keeps the
        /// current source (external/simulated agents just reset).
        new_truth: Option<CobbDouglas>,
    },
    /// An externally measured `(allocation, performance)` sample for an
    /// [`ObservationSource::External`] agent.
    ObservationReported {
        /// The measured agent.
        id: AgentId,
        /// Resource quantities the measurement was taken at.
        allocation: Vec<f64>,
        /// Measured performance (e.g. IPC); must be finite and positive.
        performance: f64,
    },
    /// Replace the market's per-resource capacity allotment. Used by the
    /// sharded serving tier's cross-shard coordinator to rebalance capacity
    /// between shards between epochs; flowing the change through the event
    /// stream (rather than mutating config out of band) keeps the WAL,
    /// journal, and replication stream a complete record — a shard's journal
    /// replays byte-for-byte regardless of what the coordinator did.
    CapacityRealloted {
        /// New per-resource capacities; must have the same arity as the
        /// current capacity, and every entry must be finite and positive.
        capacity: Vec<f64>,
    },
    /// Advance the market by one epoch: refit, reallocate, enforce, audit,
    /// observe.
    EpochTick,
}

/// FIFO queue of pending events.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue {
    pending: VecDeque<MarketEvent>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Appends an event.
    pub(crate) fn push(&mut self, event: MarketEvent) {
        self.pending.push_back(event);
    }

    /// Removes and returns the oldest pending event.
    pub(crate) fn pop(&mut self) -> Option<MarketEvent> {
        self.pending.pop_front()
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use std::mem::size_of;

    use ref_core::resource::Bundle;

    use super::*;

    /// The per-resource vectors `ref-core` stores inline must not grow a
    /// `MarketEvent`, which every request carries from parse to apply and
    /// the engine's queue holds by value. (The serving tier's journal keeps
    /// compact records, not events; while it kept events, a four-wide
    /// inline buffer grew one from 48 to 64 bytes and `serve_mem`'s peak
    /// RSS by 9 %.) The sizes are those of the `Vec<f64>`-backed types on a
    /// 64-bit target.
    #[test]
    fn inline_per_resource_vectors_do_not_grow_journalled_events() {
        assert_eq!(size_of::<Bundle>(), size_of::<Vec<f64>>());
        assert!(size_of::<CobbDouglas>() <= size_of::<f64>() + size_of::<Vec<f64>>());
        if cfg!(target_pointer_width = "64") {
            assert!(size_of::<CobbDouglas>() <= 32);
            assert!(size_of::<ObservationSource>() <= 32);
            assert!(size_of::<MarketEvent>() <= 48);
        }
    }

    #[test]
    fn queue_preserves_submission_order() {
        let mut q = EventQueue::new();
        q.push(MarketEvent::AgentLeft { id: 2 });
        q.push(MarketEvent::EpochTick);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(MarketEvent::AgentLeft { id: 2 }));
        assert_eq!(q.pop(), Some(MarketEvent::EpochTick));
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
    }
}

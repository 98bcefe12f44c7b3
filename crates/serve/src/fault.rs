//! Deterministic fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] is plain data threaded through the WAL writer and the
//! request path. Every trigger is counted against a deterministic event
//! ordinal (the WAL append sequence, an epoch, or an explicit line
//! token), so a test that injects "fail the 7th append" fails the same
//! append on every run. The default plan injects nothing and costs one
//! branch check per append — it is always compiled, never feature-gated,
//! so the production code path *is* the tested code path.
//!
//! Disk faults are not modelled here. A torn write, a failed fsync or a
//! failed rename is injected *below* the log, by a
//! [`crate::storage::Storage`] that misbehaves (the deterministic
//! simulator's `SimDisk`, or a test's fault-arming storage), so the WAL's
//! real self-heal and poison paths handle it. [`FaultPlan::fail_append_at`]
//! is the one log-level fault: it is the disk fault a threaded server's
//! tests can reach without a storage of their own.

/// A deterministic schedule of injected faults. `Default` injects none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the append of WAL record `seq` (no bytes written): the write
    /// path reports an I/O error and the event must not be applied. Fires
    /// once — a retry of the same sequence succeeds, modeling a transient
    /// disk error.
    pub fail_append_at: Option<u64>,
    /// Panic the thread applying WAL record `seq` (under the shard lock),
    /// *after* the record is durable but *before* the engine applies it.
    /// Exercises the contained-panic path: that request fails, the server
    /// must degrade, keep serving reads, and recovery must replay the
    /// orphaned record.
    pub panic_on_event: Option<u64>,
    /// Panic the reader thread whose request line contains this token,
    /// exercising connection isolation: the poisoned connection dies
    /// alone and every other connection keeps working.
    pub panic_on_line_token: Option<String>,
    /// On a *standby*, silently skip applying the replicated record
    /// `seq` to the engine (the record is still logged and acknowledged,
    /// as a buggy or bit-flipped replica would). The standby's state
    /// then diverges from the primary's, and the per-epoch fingerprint
    /// carried on its acks must catch it: the primary fences the replica
    /// instead of ever promoting it.
    pub corrupt_standby_at: Option<u64>,
    /// `(shard, epoch, delay_ms)`: stall shard `shard` (under its lock)
    /// for `delay_ms` milliseconds right before it applies the tick that
    /// would close epoch `epoch`. Models a GC pause / IO stall on one
    /// shard: the router's per-shard tick budget must expire, the shard
    /// must turn Suspect (then Down if the stall outlasts further
    /// ticks), and the fleet clock must keep advancing. One-shot by
    /// construction — the epoch ordinal only passes once.
    pub slow_shard_tick: Option<(u64, u64, u64)>,
    /// `(shard, epoch)`: shard `shard` applies (and journals) the tick
    /// closing epoch `epoch` but never sends the reply, as a shard
    /// wedged *after* the durable work would. The router sees a tick
    /// timeout while the shard's state stays consistent — the
    /// reply-loss and state-loss failure modes are decoupled.
    pub drop_tick_reply: Option<(u64, u64)>,
    /// `(shard, epoch)`: panic shard `shard` immediately after it
    /// applies the tick closing epoch `epoch` (the tick is already
    /// durable). Exercises the full shard-recovery path: the shard Down,
    /// `shard_unavailable` fast-fails, supervisor restart from the
    /// shard's own WAL, and epoch resynchronization. Cannot re-fire
    /// after recovery: the recovered engine is already past `epoch`.
    pub panic_shard_ticker: Option<(u64, u64)>,
}

impl FaultPlan {
    /// A plan that injects nothing (same as `Default`).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether any fault is armed (used to skip per-request checks in
    /// the common case).
    pub(crate) fn is_armed(&self) -> bool {
        *self != FaultPlan::default()
    }
}

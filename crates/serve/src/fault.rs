//! Deterministic fault injection for crash-safety testing.
//!
//! A [`FaultPlan`] is plain data threaded through the WAL writer and the
//! request path. Every trigger is counted against a deterministic event
//! ordinal (the WAL append sequence, or an explicit line token), so a
//! test that injects "fail the 7th append" fails the same append on
//! every run. The default plan injects nothing and costs two branch
//! checks per append — it is always compiled, never feature-gated, so
//! the production code path *is* the tested code path.

/// A deterministic schedule of injected faults. `Default` injects none.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Fail the append of WAL record `seq` (no bytes written): the write
    /// path reports an I/O error and the event must not be applied. Fires
    /// once — a retry of the same sequence succeeds, modeling a transient
    /// disk error.
    pub fail_append_at: Option<u64>,
    /// Tear the append of WAL record `seq`: write only the first `bytes`
    /// bytes of the framed record, then report an I/O error and poison
    /// the log (as a dying disk would). Recovery must truncate the torn
    /// tail back to the last complete record.
    pub torn_append_at: Option<(u64, usize)>,
    /// Fail the fsync after WAL record `seq`; treated like a failed
    /// append — the written bytes are rolled back and the event is not
    /// applied. Fires once, like `fail_append_at`.
    pub fail_sync_at: Option<u64>,
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
    /// Schedule-driven WAL faults: an arbitrary list of injections, each
    /// keyed to an append sequence and fired once when that sequence is
    /// attempted. This is the simulator's interface — `ref-dst` compiles
    /// a seeded virtual-time schedule down to the WAL sequences it
    /// expects each node to reach, so one plan can tear *several* writes
    /// across a run where the single-shot fields above inject exactly
    /// one. Entries may target the same sequences as the single-shot
    /// fields; the single-shot fields win ties (they are checked first).
    pub wal_schedule: Vec<ScheduledWalFault>,
}

/// One entry in [`FaultPlan::wal_schedule`]: inject `kind` when the WAL
/// attempts to append sequence `at_seq`. Fires once and is consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledWalFault {
    /// The append sequence the fault triggers on.
    pub at_seq: u64,
    /// What to inject.
    pub kind: WalFaultKind,
}

/// The kinds of WAL write fault a schedule can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFaultKind {
    /// Fail the append before any bytes land (transient; a retry of the
    /// same sequence succeeds). Mirrors [`FaultPlan::fail_append_at`].
    FailAppend,
    /// Fail the fsync after the bytes land; the bytes are rolled back
    /// and the append reports an error. Mirrors
    /// [`FaultPlan::fail_sync_at`].
    FailSync,
    /// Write only the first `bytes` bytes of the framed record, then
    /// poison the log — a crash mid-write. Mirrors
    /// [`FaultPlan::torn_append_at`].
    Torn {
        /// How many bytes of the framed record land before the tear.
        bytes: usize,
    },
}

impl FaultPlan {
    /// A plan that injects nothing (same as `Default`).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether any fault is armed (used to skip per-request checks in
    /// the common case).
    pub fn is_armed(&self) -> bool {
        *self != FaultPlan::default()
    }
}

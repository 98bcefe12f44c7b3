//! The sans-IO service core: one [`MarketEngine`] plus the accepted-event
//! journal, driven by parsed [`Request`]s.
//!
//! The network layer is a pure transport around this type: every request
//! the server admits is handled here, one at a time, in the order the
//! shard lock was taken. That makes the server's behaviour replayable — feeding the
//! journal back through [`replay`] reconstructs the exact engine state,
//! bit for bit — and makes the core testable without opening a socket.

use std::sync::Arc;
use std::time::Instant;

use ref_market::{EpochReport, Result as MarketResult};
use ref_market::{MarketConfig, MarketEngine, MarketEvent, MarketSnapshot};

use crate::fault::FaultPlan;
use crate::json::Value;
use crate::metrics::{market_metrics, ServeMetrics};
use crate::protocol::{
    error_response, event_to_value, ok_response, outcome_unknown_response, Request,
};
use crate::storage::{FsStorage, Storage};
use crate::wal::{Wal, WalConfig};

/// How many journal entries the core retains in memory before it stops
/// recording.
///
/// The journal exists so a run can be audited offline (replay equals the
/// live engine, byte for byte). It must not become an unbounded memory
/// leak under sustained load, so past the cap the core keeps serving but
/// marks the in-memory journal overflowed. Without a WAL, `journal`
/// requests then fail loudly instead of returning a silently truncated
/// history; with a WAL the cap is only a cache bound — `journal`
/// requests fall back to reading the log from disk.
///
/// The journal keeps each event as its compact record, so the default
/// cap of 2^20 events costs about 27 MiB on `serve_mem`'s mix (a
/// two-resource observation is 27 bytes, a tick one), plus the column's
/// growth slack; as `MarketEvent`s the same history took about 80 MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalLimit(pub usize);

impl Default for JournalLimit {
    fn default() -> JournalLimit {
        JournalLimit(1 << 20)
    }
}

/// The accepted-event journal as one byte column: each event's record
/// ([`MarketEvent::write_record`]) end to end, and how many there are.
/// Past `limit` events the column is dropped and the journal stays
/// `overflowed`.
#[derive(Debug)]
struct Journal {
    bytes: Vec<u8>,
    events: usize,
    limit: usize,
    overflowed: bool,
}

impl Journal {
    fn new(limit: usize, overflowed: bool) -> Journal {
        Journal {
            bytes: Vec::new(),
            events: 0,
            limit,
            overflowed,
        }
    }

    /// Records one event's record, until the journal overflows.
    fn push(&mut self, record: &[u8]) {
        if self.overflowed {
            return;
        }
        if self.events >= self.limit {
            *self = Journal::new(self.limit, true);
            return;
        }
        self.bytes.extend_from_slice(record);
        self.events += 1;
    }

    /// Every journaled event in order, decoded and passed through `each`.
    fn decoded<T>(&self, mut each: impl FnMut(MarketEvent) -> T) -> MarketResult<Vec<T>> {
        let mut out = Vec::with_capacity(self.events);
        let mut rest = self.bytes.as_slice();
        while !rest.is_empty() {
            let (event, len) = MarketEvent::read_record(rest)?;
            out.push(each(event));
            rest = &rest[len..];
        }
        Ok(out)
    }
}

/// The engine, its journal, the optional write-ahead log, and the last
/// epoch's report.
#[derive(Debug)]
pub struct ServiceCore {
    engine: MarketEngine,
    journal: Journal,
    last_report: Option<EpochReport>,
    /// Durable log; when present, every event is appended here *before*
    /// it is applied, and an append failure means the event is rejected.
    wal: Option<Wal>,
    /// Events ever applied to the engine, including those replayed
    /// during recovery — equals the WAL sequence when a WAL is attached.
    events_applied: u64,
    faults: FaultPlan,
    /// The event being applied, as its record: on a primary one encode
    /// serves the WAL, the journal and the `rec` frame; on a standby the
    /// bytes the `rec` carried serve the WAL and the journal.
    record: Vec<u8>,
}

impl ServiceCore {
    /// Creates a core around a fresh engine (no durability).
    ///
    /// # Errors
    ///
    /// Propagates [`MarketEngine::new`] configuration errors.
    pub fn new(config: MarketConfig, journal_limit: JournalLimit) -> MarketResult<ServiceCore> {
        Ok(ServiceCore {
            engine: MarketEngine::new(config)?,
            journal: Journal::new(journal_limit.0, false),
            last_report: None,
            wal: None,
            events_applied: 0,
            faults: FaultPlan::default(),
            record: Vec::new(),
        })
    }

    /// Arms a fault-injection plan (testing seam; the default plan
    /// injects nothing). Append-time faults on a durable core are set
    /// through [`ServiceCore::recover`] instead, which threads the plan
    /// into the WAL writer.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> ServiceCore {
        self.faults = faults;
        self
    }

    /// Opens (creating or recovering) a durable core: the WAL directory
    /// is recovered — newest valid checkpoint restored, tail replayed,
    /// torn final record truncated — and every future event is appended
    /// to the log before it is applied.
    ///
    /// The resulting state is bit-identical to replaying the full event
    /// history offline.
    ///
    /// # Errors
    ///
    /// I/O and corruption errors from [`Wal::open`]; an invalid
    /// [`MarketConfig`] or a checkpoint belonging to a *different*
    /// market configuration as [`std::io::ErrorKind::InvalidInput`].
    pub fn recover(
        config: MarketConfig,
        journal_limit: JournalLimit,
        wal_config: WalConfig,
        faults: FaultPlan,
    ) -> std::io::Result<ServiceCore> {
        ServiceCore::recover_with(
            Arc::new(FsStorage),
            config,
            journal_limit,
            wal_config,
            faults,
        )
    }

    /// [`ServiceCore::recover`] against an explicit [`Storage`]
    /// implementation — how the deterministic simulator hosts durable
    /// cores on an in-memory disk.
    ///
    /// # Errors
    ///
    /// Exactly as [`ServiceCore::recover`].
    pub fn recover_with(
        storage: Arc<dyn Storage>,
        config: MarketConfig,
        journal_limit: JournalLimit,
        wal_config: WalConfig,
        faults: FaultPlan,
    ) -> std::io::Result<ServiceCore> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        let recovery = Wal::open_with(storage, wal_config, faults.clone())?;
        let mut engine = match &recovery.checkpoint {
            Some((_, snapshot)) => {
                // Capacity values are excluded from the check: the
                // sharded coordinator reallots capacity at runtime, and
                // the journaled reallotments restore the exact split.
                if !snapshot.config.compatible_with(&config) {
                    return Err(invalid(
                        "wal directory belongs to a different market configuration".to_string(),
                    ));
                }
                MarketEngine::restore(snapshot).map_err(|e| invalid(e.to_string()))?
            }
            None => MarketEngine::new(config).map_err(|e| invalid(e.to_string()))?,
        };
        // Replay the tail exactly as the live core does: rejections are
        // part of faithful replay, and the last tick's report is kept.
        // (A checkpoint holds no report: with no tick after it, `query
        // {agent}` answers no bundle until the next epoch.)
        let mut last_report = None;
        for event in &recovery.tail {
            if let Ok(Some(report)) = engine.apply_now(event.clone()) {
                last_report = Some(report);
            }
        }
        let wal = recovery.wal;
        let events_applied = wal.next_seq();

        // Re-warm the in-memory journal cache when the log still holds
        // the complete history and it fits; otherwise the cache starts
        // overflowed and `journal` requests stream from the WAL.
        let mut journal = Journal::new(journal_limit.0, true);
        let mut record = Vec::new();
        if let Ok((0, events)) = wal.read_events() {
            if events.len() as u64 == events_applied && events.len() <= journal_limit.0 {
                journal.overflowed = false;
                for event in &events {
                    record.clear();
                    event.write_record(&mut record);
                    journal.push(&record);
                }
            }
        }

        Ok(ServiceCore {
            engine,
            journal,
            last_report,
            wal: Some(wal),
            events_applied,
            faults,
            record,
        })
    }

    /// Opens a recovered core the one way every boot and restart does —
    /// the server's and the simulator's: [`ServiceCore::recover_with`],
    /// then a scrub of every retained byte (recovery validates only the
    /// replay path, so latent rot in old checkpoints surfaces in
    /// `wal_scrub_errors` now rather than at the next failover), then the
    /// WAL gauges published.
    ///
    /// # Errors
    ///
    /// Exactly as [`ServiceCore::recover`].
    pub fn open(
        storage: Arc<dyn Storage>,
        config: MarketConfig,
        journal_limit: JournalLimit,
        wal_config: WalConfig,
        faults: FaultPlan,
        metrics: &ServeMetrics,
    ) -> std::io::Result<ServiceCore> {
        let core = ServiceCore::recover_with(storage, config, journal_limit, wal_config, faults)?;
        let scrub_errors = match core.wal().map(Wal::scrub) {
            Some(Ok(report)) => report.errors.len() as u64,
            Some(Err(_)) => 1,
            None => 0,
        };
        ServeMetrics::bump_by(&metrics.wal_scrub_errors, scrub_errors);
        core.publish_wal_gauges(metrics);
        Ok(core)
    }

    /// The wrapped engine (read-only).
    pub fn engine(&self) -> &MarketEngine {
        &self.engine
    }

    /// The attached write-ahead log, if the core is durable.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// Publishes the log's size gauges; called wherever the log changed
    /// (append, checkpoint, reset), so a scrape never reads a stale size.
    pub(crate) fn publish_wal_gauges(&self, metrics: &ServeMetrics) {
        let Some(wal) = &self.wal else {
            return;
        };
        let gauges = [
            (&metrics.wal_segments, wal.segment_count() as u64),
            (&metrics.wal_bytes, wal.total_bytes()),
            (&metrics.checkpoint_bytes, wal.checkpoint_bytes()),
        ];
        for (gauge, value) in gauges {
            gauge.store(value, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Events ever applied to the engine (including recovery replay).
    pub fn events_applied(&self) -> u64 {
        self.events_applied
    }

    /// The accepted-event journal, decoded from its records (empty once
    /// overflowed — check [`ServiceCore::journal_overflowed`]).
    ///
    /// # Panics
    ///
    /// If a record does not decode: only a utility that
    /// [`CobbDouglas::new`](ref_core::utility::CobbDouglas::new) refuses
    /// can do that, and the wire protocol builds none.
    pub fn journal(&self) -> Vec<MarketEvent> {
        self.journal
            .decoded(|event| event)
            .expect("the journal decodes the records it wrote")
    }

    /// Whether the journal hit its cap and stopped recording.
    pub fn journal_overflowed(&self) -> bool {
        self.journal.overflowed
    }

    /// Logs `event` at the next sequence, which it returns:
    /// append-before-apply, fail-closed. If the WAL append fails the
    /// event is *not* to be applied and `Err` is the client's `wal`
    /// error — engine state is never ahead of the log. When that append
    /// poisoned the log, the error says its outcome is unknown: recovery
    /// may replay the record (DESIGN.md §9). The record stays in
    /// [`ServiceCore::record`] until the next append.
    pub(crate) fn append(
        &mut self,
        event: &MarketEvent,
        metrics: &ServeMetrics,
    ) -> Result<u64, Value> {
        let seq = self.events_applied;
        self.record.clear();
        event.write_record(&mut self.record);
        if let Some(wal) = self.wal.as_mut() {
            let healthy = !wal.poisoned();
            if let Err(e) = wal.append_record(&self.record) {
                ServeMetrics::bump(&metrics.wal_errors);
                let detail = format!("append failed: {e}");
                return Err(if healthy && wal.poisoned() {
                    outcome_unknown_response(&detail)
                } else {
                    error_response("wal", Some(&detail), None)
                });
            }
            ServeMetrics::bump(&metrics.wal_appends);
            self.publish_wal_gauges(metrics);
        }
        if self.faults.panic_on_event == Some(seq) {
            // After the append, before the apply: the record is durable
            // but orphaned; recovery must replay it.
            panic!("injected panic applying event seq {seq}");
        }
        Ok(seq)
    }

    /// The record of the event [`ServiceCore::append`] last took, as the
    /// log holds it.
    pub(crate) fn record(&self) -> &[u8] {
        &self.record
    }

    /// Whether a failed write poisoned the log: it refuses every append
    /// until the node restarts from it.
    pub(crate) fn poisoned(&self) -> bool {
        self.wal.as_ref().is_some_and(Wal::poisoned)
    }

    /// Applies the event [`ServiceCore::append`] just logged. The reply
    /// is the engine's verdict.
    pub(crate) fn apply_logged(&mut self, event: MarketEvent, metrics: &ServeMetrics) -> Value {
        match self.apply_appended(event, false, metrics) {
            Ok(reported) => {
                let epoch = ("epoch", Value::from_u64(self.engine.epoch()));
                match (reported, &self.last_report) {
                    (true, Some(report)) => ok_response([epoch, ("report", report_value(report))]),
                    _ => ok_response([epoch]),
                }
            }
            Err(e) => error_response("market", Some(&e.to_string()), None),
        }
    }

    /// The one step after an append, the primary's and the standby's:
    /// journal the record ([`ServiceCore::record`]) and count it, apply
    /// `event` to the engine unless `skip` (an injected divergence), keep
    /// and time an accepted tick's report as an epoch, and take a
    /// checkpoint when one is due. Whether the event reported an epoch; a
    /// rejected event is part of faithful replay, logged and counted all
    /// the same.
    fn apply_appended(
        &mut self,
        event: MarketEvent,
        skip: bool,
        metrics: &ServeMetrics,
    ) -> MarketResult<bool> {
        self.journal.push(&self.record);
        self.events_applied += 1;
        let started = Instant::now();
        let applied = if skip {
            Ok(None)
        } else {
            self.engine.apply_now(event)
        };
        let reported = applied.map(|report| {
            let Some(report) = report else {
                return false;
            };
            let us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            metrics.epoch_latency.record_us(us);
            ServeMetrics::bump(&metrics.epochs);
            self.last_report = Some(report);
            true
        });
        self.maybe_checkpoint(metrics);
        reported
    }

    /// Takes a snapshot checkpoint when the configured cadence is due;
    /// a failed checkpoint is logged in metrics but never fatal — the
    /// WAL tail simply stays longer.
    fn maybe_checkpoint(&mut self, metrics: &ServeMetrics) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        let every = wal.checkpoint_every();
        if every == 0 || !self.events_applied.is_multiple_of(every) {
            return;
        }
        // Streamed from the engine's own state — nothing cloned, never the
        // whole document in memory — so any thread holding the lock may
        // take it.
        match wal.checkpoint_with(&|out| self.engine.write_snapshot(out)) {
            Ok(()) => ServeMetrics::bump(&metrics.checkpoints),
            Err(_) => ServeMetrics::bump(&metrics.wal_errors),
        }
        self.publish_wal_gauges(metrics);
    }

    /// Applies one *replicated* record on a standby: appended at a known
    /// sequence, then the primary's apply step. A replay (`seq` below the
    /// applied count) is [`ReplApply::Held`]; a sequence from the future
    /// or a failed append is [`ReplApply::Resync`].
    ///
    /// Public for drivers that hold the event but not the bytes it came
    /// in: it encodes the record, then takes the path a `rec`'s bytes
    /// take.
    pub fn apply_repl(
        &mut self,
        seq: u64,
        event: MarketEvent,
        metrics: &ServeMetrics,
    ) -> ReplApply {
        let mut record = std::mem::take(&mut self.record);
        record.clear();
        event.write_record(&mut record);
        self.apply_record(seq, event, record, metrics)
    }

    /// [`ServiceCore::apply_repl`] of `event` arriving as `record`, its
    /// [`MarketEvent::write_record`] bytes: the log takes them as they
    /// came, without encoding the event again.
    pub(crate) fn apply_record(
        &mut self,
        seq: u64,
        event: MarketEvent,
        record: Vec<u8>,
        metrics: &ServeMetrics,
    ) -> ReplApply {
        if seq < self.events_applied {
            return ReplApply::Held;
        }
        if seq > self.events_applied {
            return ReplApply::Resync;
        }
        self.record = record;
        if let Some(wal) = self.wal.as_mut() {
            if wal.append_record(&self.record).is_err() {
                ServeMetrics::bump(&metrics.wal_errors);
                return ReplApply::Resync;
            }
            ServeMetrics::bump(&metrics.wal_appends);
            self.publish_wal_gauges(metrics);
        }
        // Divergence injection: log and acknowledge the record but skip
        // the engine apply, exactly like a buggy replica would.
        let skip = self.faults.corrupt_standby_at == Some(seq);
        let _ = self.apply_appended(event, skip, metrics);
        ReplApply::Applied
    }

    /// Resets the standby to a bootstrap checkpoint from the primary:
    /// engine restored from the snapshot text, WAL rewritten to start at
    /// that checkpoint, journal invalidated. An undecodable snapshot, one
    /// for a different market configuration, or a failed WAL reset is
    /// [`ReplApply::Resync`], counted in `wal_errors`: engine and log stay
    /// as they were.
    pub(crate) fn restore_from_snapshot(
        &mut self,
        seq: u64,
        snapshot_text: &str,
        metrics: &ServeMetrics,
    ) -> ReplApply {
        let engine = MarketSnapshot::decode(snapshot_text)
            .ok()
            .filter(|snapshot| snapshot.config.compatible_with(self.engine.config()))
            .and_then(|snapshot| MarketEngine::restore(&snapshot).ok());
        // The log first: a reset that fails leaves engine and log as they
        // were, still in step.
        let reset = |wal: &mut Wal| wal.reset_to_checkpoint(seq, snapshot_text).is_ok();
        let Some(engine) = engine.filter(|_| self.wal.as_mut().is_none_or(reset)) else {
            ServeMetrics::bump(&metrics.wal_errors);
            return ReplApply::Resync;
        };
        self.engine = engine;
        self.journal = Journal::new(self.journal.limit, seq > 0);
        self.last_report = None;
        self.events_applied = seq;
        self.publish_wal_gauges(metrics);
        ReplApply::Applied
    }

    /// The `reallot` that moves this shard to `allotment`, or `None` when
    /// it holds exactly that capacity already: a fleet tick journals an
    /// allotment only where it moved.
    pub fn reallot_to(&self, allotment: &[f64]) -> Option<Request> {
        (self.engine.config().capacity.as_slice() != allotment).then(|| Request::Reallot {
            capacity: allotment.to_vec(),
        })
    }

    /// Handles one admitted request and produces its response.
    ///
    /// `Shutdown` is *not* handled here — the transport intercepts it to
    /// sequence the drain — but every other op is.
    pub fn handle(&mut self, request: &Request, metrics: &ServeMetrics) -> Value {
        if let Some(event) = request.to_event() {
            // Logged and journaled first, rejected events too: the
            // rejection bumps an engine counter, so replay must see it
            // to stay bit-identical.
            return match self.append(&event, metrics) {
                Ok(_) => self.apply_logged(event, metrics),
                Err(refusal) => refusal,
            };
        }
        match request {
            Request::Query { agent: None } => {
                let mut fields = vec![
                    ("epoch", Value::from_u64(self.engine.epoch())),
                    (
                        "agents",
                        Value::Arr(
                            self.engine
                                .live_agents()
                                .into_iter()
                                .map(Value::from_u64)
                                .collect(),
                        ),
                    ),
                ];
                if let Some(report) = &self.last_report {
                    fields.push(("report", report_value(report)));
                }
                ok_response(fields)
            }
            Request::Query { agent: Some(id) } => match self.engine.agent(*id) {
                None => error_response("market", Some(&format!("unknown agent {id}")), None),
                Some(agent) => {
                    let utility = agent.reported_utility();
                    let bundle = self.last_report.as_ref().and_then(|r| {
                        let slot = r.agents.binary_search(id).ok()?;
                        let alloc = r.allocation.as_ref()?;
                        Some(Value::num_array(alloc.bundle(slot).as_slice()))
                    });
                    ok_response([
                        ("epoch", Value::from_u64(self.engine.epoch())),
                        ("agent", Value::from_u64(*id)),
                        ("joined_epoch", Value::from_u64(agent.joined_epoch)),
                        ("elasticities", Value::num_array(utility.elasticities())),
                        (
                            "observations",
                            Value::from_u64(agent.estimator.num_observations() as u64),
                        ),
                        ("refits", Value::from_u64(agent.estimator.refits() as u64)),
                        ("quarantined", Value::Bool(agent.quarantined())),
                        ("credit", Value::num(self.engine.ledger().balance(*id))),
                        ("bundle", bundle.unwrap_or(Value::Null)),
                    ])
                }
            },
            Request::Snapshot => {
                ok_response([("snapshot", Value::str(self.engine.encode_snapshot()))])
            }
            Request::Metrics { text } => {
                let server = metrics.snapshot();
                let ledger = self.engine.ledger();
                if *text {
                    let (_, mut out) = market_metrics(self.engine.metrics());
                    out.push_str(&format!(
                        "refmarket_ledger_agents {}\nrefmarket_ledger_total {}\nrefmarket_ledger_total_abs {}\n",
                        ledger.len(),
                        ledger.total(),
                        ledger.total_abs(),
                    ));
                    out.push_str(&server.to_text());
                    ok_response([("text", Value::str(out))])
                } else {
                    ok_response([
                        ("market", market_metrics(self.engine.metrics()).0),
                        (
                            "ledger",
                            Value::obj(vec![
                                ("agents", Value::from_u64(ledger.len() as u64)),
                                ("total", Value::num(ledger.total())),
                                ("total_abs", Value::num(ledger.total_abs())),
                                ("max_abs", Value::num(ledger.max_abs())),
                            ]),
                        ),
                        ("server", server.to_json_value()),
                    ])
                }
            }
            Request::Journal => {
                if !self.journal.overflowed {
                    return match self.journal.decoded(|event| event_to_value(&event)) {
                        Ok(events) => ok_response([("events", Value::Arr(events))]),
                        Err(e) => error_response(
                            "internal",
                            Some(&format!("journal record unreadable: {e}")),
                            None,
                        ),
                    };
                }
                // The in-memory cache overflowed; with a WAL that is not
                // a correctness limit — stream the history from disk, as
                // long as the log still reaches back to event 0.
                let Some(wal) = &self.wal else {
                    return error_response(
                        "journal_overflow",
                        Some("journal exceeded its retention limit and was dropped"),
                        None,
                    );
                };
                match wal.read_events() {
                    Ok((0, events)) if events.len() as u64 == self.events_applied => {
                        ok_response([(
                            "events",
                            Value::Arr(events.iter().map(event_to_value).collect()),
                        )])
                    }
                    Ok(_) => error_response(
                        "journal_truncated",
                        Some(
                            "checkpoint pruning dropped the event prefix; only snapshots cover it",
                        ),
                        None,
                    ),
                    Err(e) => {
                        error_response("wal", Some(&format!("journal read failed: {e}")), None)
                    }
                }
            }
            Request::Scrub => {
                let Some(wal) = &self.wal else {
                    // No WAL, nothing to verify: vacuously clean.
                    return ok_response([
                        ("clean", Value::Bool(true)),
                        ("segments", Value::from_u64(0)),
                        ("records", Value::from_u64(0)),
                        ("checkpoints", Value::from_u64(0)),
                        ("errors", Value::Arr(Vec::new())),
                    ]);
                };
                match wal.scrub() {
                    Ok(report) => {
                        ServeMetrics::bump_by(
                            &metrics.wal_scrub_errors,
                            report.errors.len() as u64,
                        );
                        ok_response([
                            ("clean", Value::Bool(report.is_clean())),
                            ("segments", Value::from_u64(report.segments)),
                            ("records", Value::from_u64(report.records)),
                            ("checkpoints", Value::from_u64(report.checkpoints)),
                            (
                                "errors",
                                Value::Arr(
                                    report
                                        .errors
                                        .iter()
                                        .map(|e| Value::str(e.clone()))
                                        .collect(),
                                ),
                            ),
                        ])
                    }
                    Err(e) => error_response("wal", Some(&format!("scrub failed: {e}")), None),
                }
            }
            Request::Shutdown => error_response(
                "protocol",
                Some("shutdown is handled by the transport"),
                None,
            ),
            // Like Shutdown: the transport answers these (ping from
            // exported atomics, promote in its role logic).
            Request::Ping { .. } => {
                error_response("protocol", Some("ping is handled by the transport"), None)
            }
            Request::Promote => error_response(
                "protocol",
                Some("promote is handled by the transport"),
                None,
            ),
            // Event-bearing ops were dispatched above.
            Request::Join { .. }
            | Request::Leave { .. }
            | Request::Demand { .. }
            | Request::Observe { .. }
            | Request::Reallot { .. }
            | Request::Tick => unreachable!("event-bearing request fell through"),
        }
    }

    /// Final snapshot text, for the shutdown drain.
    pub fn final_snapshot(&self) -> String {
        self.engine.encode_snapshot()
    }
}

/// The wire form of an epoch's verdict, what `tick` and the market-wide
/// `query` carry: [`EpochReport`]'s fields, but `agents` as a count, no
/// `allocation`, and the fairness report as its verdicts and violation
/// counts, so the reply grows with resources, never with agents. An
/// agent's bundle is answered by `query {agent}`.
fn report_value(report: &EpochReport) -> Value {
    let count = |n: usize| Value::from_u64(n as u64);
    let fairness = report.fairness.as_ref().map_or(Value::Null, |fair| {
        Value::obj(vec![
            ("sharing_incentives", Value::Bool(fair.sharing_incentives())),
            ("envy_free", Value::Bool(fair.envy_free())),
            ("pareto_efficient", Value::Bool(fair.pareto_efficient)),
            ("si_violations", count(fair.si_violations.len())),
            ("envy_edges", count(fair.envy_edges.len())),
            ("max_mrs_mismatch", Value::Num(fair.max_mrs_mismatch)),
        ])
    });
    Value::obj(vec![
        ("epoch", Value::from_u64(report.epoch)),
        ("agents", count(report.agents.len())),
        ("realloc", Value::str(report.realloc.label())),
        ("warm", Value::Bool(report.warm)),
        ("observations", count(report.observations)),
        ("refits", count(report.refits)),
        ("temporal_violations", count(report.temporal_violations)),
        (
            "worst_temporal_ratio",
            Value::Num(report.worst_temporal_ratio),
        ),
        ("fairness", fairness),
    ])
}

/// A standby's verdict on one record or snapshot from its primary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplApply {
    /// Logged and applied, or the snapshot restored: ack.
    Applied,
    /// Already held (a replay after a reconnect): ack again.
    Held,
    /// A hole, a failed append or a failed restore cannot be repaired
    /// in-stream: hang up, and catch up from the log.
    Resync,
}

/// Replays a journal against a fresh engine with `config`, continuing
/// past rejected events exactly as the live core does.
///
/// The result is bit-identical to the engine that produced the journal:
/// `replay(config, &core.journal()).snapshot().encode() ==
/// core.final_snapshot()`.
///
/// # Errors
///
/// Propagates only [`MarketEngine::new`] configuration errors; event
/// rejections are part of faithful replay and are swallowed.
pub fn replay(config: MarketConfig, journal: &[MarketEvent]) -> MarketResult<MarketEngine> {
    let mut engine = MarketEngine::new(config)?;
    for event in journal {
        let _ = engine.apply_now(event.clone());
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ref_core::resource::Capacity;
    use ref_core::utility::CobbDouglas;
    use ref_market::ObservationSource;

    fn config() -> MarketConfig {
        MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
    }

    fn join(agent: u64, e0: f64) -> Request {
        Request::Join {
            agent,
            source: ObservationSource::GroundTruth(
                CobbDouglas::new(1.0, vec![e0, 1.0 - e0]).unwrap(),
            ),
        }
    }

    #[test]
    fn core_journal_replays_bit_identically() {
        let metrics = ServeMetrics::new();
        let mut core = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        core.handle(&join(1, 0.6), &metrics);
        core.handle(&join(2, 0.2), &metrics);
        core.handle(&join(1, 0.5), &metrics); // duplicate: rejected, journaled
        for _ in 0..12 {
            core.handle(&Request::Tick, &metrics);
        }
        core.handle(&Request::Leave { agent: 2 }, &metrics);
        core.handle(&Request::Leave { agent: 99 }, &metrics); // unknown: rejected
        core.handle(&Request::Tick, &metrics);

        let replayed = replay(config(), &core.journal()).unwrap();
        assert_eq!(replayed.snapshot().encode(), core.final_snapshot());
        assert_eq!(metrics.snapshot().epochs, 13);
    }

    #[test]
    fn queries_report_allocation_bundles() {
        let metrics = ServeMetrics::new();
        let mut core = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        core.handle(&join(1, 0.6), &metrics);
        core.handle(&join(2, 0.2), &metrics);
        for _ in 0..20 {
            core.handle(&Request::Tick, &metrics);
        }
        let reply = core.handle(&Request::Query { agent: Some(1) }, &metrics);
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
        assert!(
            reply.get("credit").unwrap().as_f64().unwrap().is_finite(),
            "{reply}"
        );
        let bundle = reply.get("bundle").unwrap().as_array().unwrap();
        assert_eq!(bundle.len(), 2);
        assert!((bundle[0].as_f64().unwrap() - 18.0).abs() < 0.6, "{reply}");
        let market_wide = core.handle(&Request::Query { agent: None }, &metrics);
        assert_eq!(
            market_wide.get("agents").unwrap().as_array().unwrap().len(),
            2
        );
        let unknown = core.handle(&Request::Query { agent: Some(9) }, &metrics);
        assert_eq!(unknown.get("ok"), Some(&Value::Bool(false)));
    }

    #[test]
    fn an_agent_that_joined_after_the_last_tick_has_no_bundle() {
        let metrics = ServeMetrics::new();
        let mut core = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        core.handle(&join(1, 0.6), &metrics);
        core.handle(&join(3, 0.2), &metrics);
        core.handle(&Request::Tick, &metrics);
        // One newcomer between the reported ids, one after them.
        core.handle(&join(2, 0.5), &metrics);
        core.handle(&join(4, 0.5), &metrics);
        let bundle = |core: &mut ServiceCore, agent| {
            let reply = core.handle(&Request::Query { agent: Some(agent) }, &metrics);
            assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply}");
            reply.get("bundle").unwrap().clone()
        };
        assert_eq!(bundle(&mut core, 2), Value::Null);
        assert_eq!(bundle(&mut core, 4), Value::Null);
        let alloc = core
            .last_report
            .as_ref()
            .unwrap()
            .allocation
            .clone()
            .unwrap();
        for (slot, agent) in [(0, 1), (1, 3)] {
            assert_eq!(
                bundle(&mut core, agent),
                Value::num_array(alloc.bundle(slot).as_slice())
            );
        }
    }

    #[test]
    fn journal_overflow_fails_loudly_not_silently() {
        let metrics = ServeMetrics::new();
        let mut core = ServiceCore::new(config(), JournalLimit(3)).unwrap();
        core.handle(&join(1, 0.6), &metrics);
        core.handle(&Request::Tick, &metrics);
        core.handle(&Request::Tick, &metrics);
        assert!(!core.journal_overflowed());
        core.handle(&Request::Tick, &metrics); // 4th event: overflow
        assert!(core.journal_overflowed());
        assert!(core.journal().is_empty());
        let reply = core.handle(&Request::Journal, &metrics);
        assert_eq!(
            reply.get("error").and_then(Value::as_str),
            Some("journal_overflow")
        );
        // The engine keeps serving regardless.
        let tick = core.handle(&Request::Tick, &metrics);
        assert_eq!(tick.get("ok"), Some(&Value::Bool(true)));
    }

    /// The golden reports: an empty market's (no allocation, no
    /// fairness block), a cache hit's (no fairness block), and two made
    /// for the encoder's corners — non-finite ratios go out as `null`, a
    /// count past 2^53 as its nearest `f64`, and `-0` keeps its sign.
    fn golden_reports() -> Vec<EpochReport> {
        use ref_core::properties::{EnvyEdge, FairnessReport, SiViolation};
        use ref_core::resource::{Allocation, Bundle};
        use ref_market::ReallocationOutcome;
        let empty = EpochReport {
            epoch: 0,
            agents: vec![],
            realloc: ReallocationOutcome::EmptyMarket,
            allocation: None,
            fairness: None,
            warm: true,
            observations: 0,
            refits: 0,
            temporal_violations: 0,
            worst_temporal_ratio: 1.0,
        };
        let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
        let bundles = vec![
            Bundle::new(vec![18.0, 4.0]).unwrap(),
            Bundle::new(vec![6.0, 8.0]).unwrap(),
        ];
        let cached = EpochReport {
            epoch: 7,
            agents: vec![1, 2],
            realloc: ReallocationOutcome::CacheHit,
            allocation: Some(Allocation::new(bundles, &capacity).unwrap()),
            fairness: None,
            warm: false,
            observations: 2,
            refits: 1,
            temporal_violations: 1,
            worst_temporal_ratio: 0.875,
        };
        let violated = FairnessReport {
            si_violations: vec![
                SiViolation {
                    agent: 0,
                    allocated_utility: 0.5,
                    equal_split_utility: 1.0,
                };
                2
            ],
            envy_edges: vec![EnvyEdge {
                envious: 0,
                envied: 1,
                own_utility: 0.5,
                other_utility: 1.0,
            }],
            pareto_efficient: false,
            max_mrs_mismatch: f64::INFINITY,
        };
        let corners = EpochReport {
            epoch: 9,
            agents: vec![1, 2, 3],
            realloc: ReallocationOutcome::Reallocated,
            allocation: None,
            fairness: Some(violated),
            warm: false,
            observations: (1 << 53) + 1,
            refits: 3,
            temporal_violations: 2,
            worst_temporal_ratio: f64::NAN,
        };
        let signed_zero = EpochReport {
            fairness: Some(FairnessReport {
                si_violations: Vec::new(),
                envy_edges: Vec::new(),
                pareto_efficient: true,
                max_mrs_mismatch: -0.0,
            }),
            worst_temporal_ratio: -0.0,
            ..empty.clone()
        };
        vec![empty, cached, corners, signed_zero]
    }

    #[test]
    fn report_value_encodes_to_the_golden_report_bytes() {
        let golden = [
            "{\"epoch\":0,\"agents\":0,\"realloc\":\"empty_market\",\"warm\":true,\
             \"observations\":0,\"refits\":0,\"temporal_violations\":0,\
             \"worst_temporal_ratio\":1,\"fairness\":null}",
            "{\"epoch\":7,\"agents\":2,\"realloc\":\"cache_hit\",\"warm\":false,\
             \"observations\":2,\"refits\":1,\"temporal_violations\":1,\
             \"worst_temporal_ratio\":0.875,\"fairness\":null}",
            "{\"epoch\":9,\"agents\":3,\"realloc\":\"reallocated\",\"warm\":false,\
             \"observations\":9007199254740992,\"refits\":3,\"temporal_violations\":2,\
             \"worst_temporal_ratio\":null,\"fairness\":{\"sharing_incentives\":false,\
             \"envy_free\":false,\"pareto_efficient\":false,\"si_violations\":2,\
             \"envy_edges\":1,\"max_mrs_mismatch\":null}}",
            "{\"epoch\":0,\"agents\":0,\"realloc\":\"empty_market\",\"warm\":true,\
             \"observations\":0,\"refits\":0,\"temporal_violations\":0,\
             \"worst_temporal_ratio\":-0,\"fairness\":{\"sharing_incentives\":true,\
             \"envy_free\":true,\"pareto_efficient\":true,\"si_violations\":0,\
             \"envy_edges\":0,\"max_mrs_mismatch\":-0}}",
        ];
        for (report, bytes) in golden_reports().iter().zip(golden) {
            assert_eq!(report_value(report).encode(), bytes);
        }
        // A live engine's report, fairness block included.
        let metrics = ServeMetrics::new();
        let mut core = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        core.handle(&join(1, 0.6), &metrics);
        core.handle(&join(2, 0.2), &metrics);
        let tick = core.handle(&Request::Tick, &metrics);
        let report = core.last_report.as_ref().unwrap();
        assert!(report.fairness.is_some() && report.allocation.is_some());
        assert_eq!(
            tick.get("report").unwrap().encode(),
            "{\"epoch\":0,\"agents\":2,\"realloc\":\"reallocated\",\"warm\":true,\
             \"observations\":2,\"refits\":0,\"temporal_violations\":0,\
             \"worst_temporal_ratio\":1,\"fairness\":{\"sharing_incentives\":true,\
             \"envy_free\":true,\"pareto_efficient\":true,\"si_violations\":0,\
             \"envy_edges\":0,\"max_mrs_mismatch\":0}}"
        );
    }

    /// Every `query {agent}` reply of `core` for agents `1..=last`,
    /// encoded (an unknown agent's error included).
    fn agent_answers(core: &mut ServiceCore, last: u64) -> Vec<String> {
        let metrics = ServeMetrics::new();
        (1..=last)
            .map(|agent| {
                let request = Request::Query { agent: Some(agent) };
                core.handle(&request, &metrics).encode()
            })
            .collect()
    }

    /// Six agents over a dozen epochs with a departure, then a newcomer
    /// after the last tick (which has no bundle yet).
    fn history(core: &mut ServiceCore, metrics: &ServeMetrics) {
        for agent in 1..=6 {
            core.handle(&join(agent, 0.1 + 0.13 * agent as f64), metrics);
        }
        for epoch in 0..12 {
            if epoch == 7 {
                core.handle(&Request::Leave { agent: 4 }, metrics);
            }
            core.handle(&Request::Tick, metrics);
        }
        core.handle(&join(7, 0.5), metrics);
    }

    #[test]
    fn a_standby_answers_agent_queries_as_its_primary_does() {
        let metrics = ServeMetrics::new();
        let mut primary = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        history(&mut primary, &metrics);
        let mut standby = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        for (seq, event) in primary.journal().into_iter().enumerate() {
            let applied = standby.apply_repl(seq as u64, event, &metrics);
            assert_eq!(applied, ReplApply::Applied);
        }
        let answers = agent_answers(&mut primary, 8);
        assert!(answers[0].contains("\"bundle\":["), "{}", answers[0]);
        assert!(answers[6].contains("\"bundle\":null"), "{}", answers[6]);
        assert_eq!(agent_answers(&mut standby, 8), answers);
    }

    #[test]
    fn a_recovered_core_answers_agent_queries_as_before_the_crash() {
        let dir = std::env::temp_dir().join(format!("ref-core-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let wal = WalConfig::new(&dir);
            ServiceCore::recover(config(), JournalLimit::default(), wal, FaultPlan::none()).unwrap()
        };
        let metrics = ServeMetrics::new();
        let mut core = open();
        history(&mut core, &metrics);
        let answers = agent_answers(&mut core, 8);
        assert!(answers[0].contains("\"bundle\":["), "{}", answers[0]);
        drop(core);
        // Every tick is in the WAL tail: no checkpoint was due.
        let mut recovered = open();
        assert_eq!(agent_answers(&mut recovered, 8), answers);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_reply_carries_market_and_server_sections() {
        let metrics = ServeMetrics::new();
        let mut core = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        core.handle(&join(1, 0.6), &metrics);
        core.handle(&Request::Tick, &metrics);
        let reply = core.handle(&Request::Metrics { text: false }, &metrics);
        assert_eq!(
            reply.get("market").unwrap().get("epochs").unwrap().as_u64(),
            Some(1)
        );
        assert!(reply.get("server").unwrap().get("epochs").is_some());
        let ledger = reply.get("ledger").unwrap();
        assert_eq!(ledger.get("agents").unwrap().as_u64(), Some(1));
        assert!(ledger.get("total").unwrap().as_f64().unwrap().abs() < 1e-9);
        let text = core.handle(&Request::Metrics { text: true }, &metrics);
        let body = text.get("text").unwrap().as_str().unwrap();
        assert!(body.contains("refmarket_epochs 1\n"), "{body}");
        assert!(body.contains("refmarket_ledger_agents 1\n"), "{body}");
        assert!(body.contains("refserve_epochs"), "{body}");
        // A busier market's market section and scrape lines, byte for byte.
        let mut core = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        history(&mut core, &metrics);
        core.handle(&Request::Leave { agent: 99 }, &metrics);
        core.handle(&Request::Tick, &metrics);
        let reply = core.handle(&Request::Metrics { text: false }, &metrics);
        assert_eq!(
            reply.get("market").unwrap().encode(),
            "{\"epochs\":13,\"events\":22,\"joins\":7,\"leaves\":1,\"demand_changes\":0,\
             \"external_observations\":0,\"reallocations\":4,\"cache_hits\":9,\"refits\":54,\
             \"rejected_events\":1,\"degenerate_refits\":0,\"quarantines\":0,\
             \"reallotments\":0,\"warm_start_hits\":0,\"warm_start_misses\":0,\
             \"warm_start_fallbacks\":0,\"credits_accrued\":31,\"credits_spent\":0,\
             \"temporal_si_violations\":0,\"cache_hit_rate\":0.6923076923076923}"
        );
        let text = core.handle(&Request::Metrics { text: true }, &metrics);
        let body = text.get("text").unwrap().as_str().unwrap();
        let market: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("refmarket_"))
            .collect();
        assert_eq!(
            market.join("\n"),
            "refmarket_epochs 13\nrefmarket_events 22\nrefmarket_joins 7\n\
             refmarket_leaves 1\nrefmarket_demand_changes 0\n\
             refmarket_external_observations 0\nrefmarket_reallocations 4\n\
             refmarket_cache_hits 9\nrefmarket_refits 54\nrefmarket_rejected_events 1\n\
             refmarket_degenerate_refits 0\nrefmarket_quarantines 0\n\
             refmarket_reallotments 0\nrefmarket_warm_start_hits 0\n\
             refmarket_warm_start_misses 0\nrefmarket_warm_start_fallbacks 0\n\
             refmarket_credits_accrued 31\nrefmarket_credits_spent 0\n\
             refmarket_temporal_si_violations 0\nrefmarket_ledger_agents 6\n\
             refmarket_ledger_total 0.00000000000000023592239273284576\n\
             refmarket_ledger_total_abs 4.141585101241373"
        );
        // A count past 2^53 goes out as its nearest f64 in JSON, exactly in
        // the scrape.
        let wide = ref_market::MarketMetrics {
            epochs: (1 << 53) + 1,
            ..Default::default()
        };
        let (json, text) = market_metrics(&wide);
        assert!(json.encode().starts_with("{\"epochs\":9007199254740992,"));
        assert!(text.starts_with("refmarket_epochs 9007199254740993\n"));
    }
}

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

use ref_market::{EpochReport, MarketMetrics, Result as MarketResult};
use ref_market::{MarketConfig, MarketEngine, MarketEvent, MarketSnapshot};

use crate::fault::FaultPlan;
use crate::json::Value;
use crate::metrics::ServeMetrics;
use crate::protocol::{error_response, event_to_value, ok_response, Request};
use crate::repl::{ReplShared, Role};
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
#[derive(Debug, Default)]
struct Journal {
    bytes: Vec<u8>,
    events: usize,
}

impl Journal {
    fn push(&mut self, event: &MarketEvent) {
        event.write_record(&mut self.bytes);
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
    journal_limit: usize,
    journal_overflowed: bool,
    last_report: Option<EpochReport>,
    /// Durable log; when present, every event is appended here *before*
    /// it is applied, and an append failure means the event is rejected.
    wal: Option<Wal>,
    /// Events ever applied to the engine, including those replayed
    /// during recovery — equals the WAL sequence when a WAL is attached.
    events_applied: u64,
    faults: FaultPlan,
    /// Replication state, when this core is one node of a replicated
    /// pair: as a primary it streams every appended record and keeps
    /// per-epoch fingerprints; as a standby it applies the stream.
    repl: Option<Arc<ReplShared>>,
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
            journal: Journal::default(),
            journal_limit: journal_limit.0,
            journal_overflowed: false,
            last_report: None,
            wal: None,
            events_applied: 0,
            faults: FaultPlan::default(),
            repl: None,
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
        let mut journal = Journal::default();
        let mut journal_overflowed = true;
        if let Ok((0, events)) = wal.read_events() {
            if events.len() as u64 == events_applied && events.len() <= journal_limit.0 {
                events.iter().for_each(|event| journal.push(event));
                journal_overflowed = false;
            }
        }

        Ok(ServiceCore {
            engine,
            journal,
            journal_limit: journal_limit.0,
            journal_overflowed,
            last_report,
            wal: Some(wal),
            events_applied,
            faults,
            repl: None,
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

    /// Attaches replication state; the core will stream appended records
    /// (as a primary) and track per-epoch state fingerprints.
    pub(crate) fn attach_repl(&mut self, repl: Arc<ReplShared>) {
        self.repl = Some(repl);
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
        self.journal_overflowed
    }

    fn record(&mut self, event: &MarketEvent) {
        if self.journal_overflowed {
            return;
        }
        if self.journal.events >= self.journal_limit {
            self.journal_overflowed = true;
            self.journal = Journal::default();
            return;
        }
        self.journal.push(event);
    }

    /// Applies one event-bearing request to the engine, logging it
    /// durably and journaling it first (rejected events are logged too —
    /// the rejection bumps an engine counter, so replay must see it to
    /// stay bit-identical).
    ///
    /// Append-before-apply, fail-closed: if the WAL append fails the
    /// event is *not* applied and the client gets a `wal` error — engine
    /// state is never ahead of the log.
    fn apply_event(&mut self, event: MarketEvent, metrics: &ServeMetrics) -> Value {
        let seq = self.events_applied;
        if let Some(wal) = self.wal.as_mut() {
            if let Err(e) = wal.append(&event) {
                ServeMetrics::bump(&metrics.wal_errors);
                return error_response("wal", Some(&format!("append failed: {e}")), None);
            }
            ServeMetrics::bump(&metrics.wal_appends);
            self.publish_wal_gauges(metrics);
        }
        if self.faults.panic_on_event == Some(seq) {
            // After the append, before the apply: the record is durable
            // but orphaned; recovery must replay it.
            panic!("injected panic applying event seq {seq}");
        }
        // Stream to standbys right after the durable append, before the
        // local apply, so replication overlaps the engine work.
        let mut attached = false;
        if let Some(repl) = self.repl.as_ref().filter(|r| r.role() == Role::Primary) {
            attached = repl.publish_record(seq, &event, metrics);
            ServeMetrics::bump(&metrics.repl_records_sent);
        }
        self.record(&event);
        self.events_applied += 1;
        let is_tick = matches!(event, MarketEvent::EpochTick);
        let started = Instant::now();
        let response = match self.engine.apply_now(event) {
            Ok(report) => {
                let epoch = self.engine.epoch();
                if is_tick {
                    metrics
                        .epoch_latency
                        .record_us(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
                    ServeMetrics::bump(&metrics.epochs);
                    if let Some(repl) = &self.repl {
                        repl.push_epoch_fp(
                            self.events_applied,
                            epoch,
                            self.engine.state_fingerprint(),
                        );
                    }
                }
                let mut fields = vec![("epoch", Value::from_u64(epoch))];
                if let Some(report) = report {
                    fields.push(("report", report_value(&report)));
                    self.last_report = Some(report);
                }
                ok_response(fields)
            }
            Err(e) => error_response("market", Some(&e.to_string()), None),
        };
        self.maybe_checkpoint(metrics);
        // Synchronous replication: hold the reply until a standby has
        // applied this record, so an acked mutation survives failover.
        // With no standby connected the primary degrades to async (a
        // lone node must stay available); on timeout the client gets a
        // loud `repl` error — the event *is* applied locally, but its
        // replication was never confirmed.
        if let Some(repl) = self
            .repl
            .as_ref()
            .filter(|r| r.config().sync && r.role() == Role::Primary)
        {
            if !repl.wait_applied(self.events_applied, attached) {
                return error_response(
                    "repl",
                    Some("applied locally but the standby ack timed out; not confirmed replicated"),
                    None,
                );
            }
        }
        response
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

    /// Applies one *replicated* record on a standby: the same
    /// append-before-apply path as a primary mutation, entered at a
    /// known sequence. Replays (`seq` below the applied count) are
    /// skipped but still acknowledged; a sequence from the future means
    /// the stream has a hole and the puller must resynchronize.
    ///
    /// Public for the deterministic simulator (`ref-dst`), which drives
    /// standby cores with frames it routes itself instead of running the
    /// replication threads.
    pub fn apply_repl(
        &mut self,
        seq: u64,
        event: MarketEvent,
        metrics: &ServeMetrics,
    ) -> ReplApply {
        if seq < self.events_applied {
            return ReplApply::Skipped;
        }
        if seq > self.events_applied {
            return ReplApply::Gap;
        }
        if let Some(wal) = self.wal.as_mut() {
            if wal.append(&event).is_err() {
                // Counted in `wal_errors`; the puller resynchronizes.
                ServeMetrics::bump(&metrics.wal_errors);
                return ReplApply::WalError;
            }
            ServeMetrics::bump(&metrics.wal_appends);
            self.publish_wal_gauges(metrics);
        }
        // Divergence injection: log and acknowledge the record but skip
        // the engine apply, exactly like a buggy replica would.
        let skip_apply = self.faults.corrupt_standby_at == Some(seq);
        self.record(&event);
        self.events_applied += 1;
        let is_tick = matches!(event, MarketEvent::EpochTick);
        let started = Instant::now();
        if !skip_apply {
            // Rejections are part of faithful replay, same as recovery;
            // a tick's report is kept, as on the primary, so `query
            // {agent}` answers the same bundle here.
            if let Ok(Some(report)) = self.engine.apply_now(event) {
                self.last_report = Some(report);
            }
        }
        let mut epoch_fp = None;
        if is_tick {
            metrics
                .epoch_latency
                .record_us(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            ServeMetrics::bump(&metrics.epochs);
            // Fingerprint whatever state we actually have — a corrupted
            // apply must produce a *wrong* fingerprint, not none.
            epoch_fp = Some((self.engine.epoch(), self.engine.state_fingerprint()));
        }
        self.maybe_checkpoint(metrics);
        ReplApply::Applied { epoch_fp }
    }

    /// Resets the standby to a bootstrap checkpoint from the primary:
    /// engine restored from the snapshot text, WAL rewritten to start at
    /// that checkpoint, journal invalidated.
    ///
    /// # Errors
    ///
    /// An undecodable snapshot or one for a different market
    /// configuration as [`std::io::ErrorKind::InvalidInput`]; WAL reset
    /// I/O errors verbatim.
    pub(crate) fn restore_from_snapshot(
        &mut self,
        seq: u64,
        snapshot_text: &str,
    ) -> std::io::Result<()> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        let snapshot = MarketSnapshot::decode(snapshot_text).map_err(|e| invalid(e.to_string()))?;
        if !snapshot.config.compatible_with(self.engine.config()) {
            return Err(invalid(
                "replication snapshot belongs to a different market configuration".to_string(),
            ));
        }
        let engine = MarketEngine::restore(&snapshot).map_err(|e| invalid(e.to_string()))?;
        // The log first: a reset that fails leaves engine and log as they
        // were, still in step.
        if let Some(wal) = self.wal.as_mut() {
            wal.reset_to_checkpoint(seq, snapshot_text)?;
        }
        self.engine = engine;
        self.journal = Journal::default();
        self.journal_overflowed = seq > 0;
        self.last_report = None;
        self.events_applied = seq;
        Ok(())
    }

    /// Handles one admitted request and produces its response.
    ///
    /// `Shutdown` is *not* handled here — the transport intercepts it to
    /// sequence the drain — but every other op is.
    pub fn handle(&mut self, request: &Request, metrics: &ServeMetrics) -> Value {
        if let Some(event) = request.to_event() {
            return self.apply_event(event, metrics);
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
                    ok_response(vec![
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
            Request::Snapshot => ok_response(vec![(
                "snapshot",
                Value::str(self.engine.encode_snapshot()),
            )]),
            Request::Metrics { text } => {
                let server = metrics.snapshot();
                let ledger = self.engine.ledger();
                if *text {
                    let mut out = self.engine.metrics().to_text();
                    out.push_str(&format!(
                        "refmarket_ledger_agents {}\nrefmarket_ledger_total {}\nrefmarket_ledger_total_abs {}\n",
                        ledger.len(),
                        ledger.total(),
                        ledger.total_abs(),
                    ));
                    out.push_str(&server.to_text());
                    ok_response(vec![("text", Value::str(out))])
                } else {
                    ok_response(vec![
                        ("market", market_metrics_value(self.engine.metrics())),
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
                if !self.journal_overflowed {
                    return match self.journal.decoded(|event| event_to_value(&event)) {
                        Ok(events) => ok_response(vec![("events", Value::Arr(events))]),
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
                        ok_response(vec![(
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
                    return ok_response(vec![
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
                        ok_response(vec![
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
/// `query` carry: [`EpochReport::to_json`]'s fields in its order, but
/// `agents` as a count and no `allocation`, so the reply grows with
/// resources, never with agents. An agent's bundle is answered by
/// `query {agent}`.
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
    let enforcement = report.enforcement.iter().map(|e| {
        Value::obj(vec![
            ("resource", count(e.resource)),
            ("max_deviation", Value::Num(e.max_deviation)),
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
        ("enforcement", Value::Arr(enforcement.collect())),
        (
            "worst_enforcement_deviation",
            Value::Num(report.worst_enforcement_deviation()),
        ),
    ])
}

/// [`MarketMetrics::to_json`] as a [`Value`], likewise byte for byte.
fn market_metrics_value(m: &MarketMetrics) -> Value {
    let mut fields: Vec<(&str, Value)> = [
        ("epochs", m.epochs),
        ("events", m.events),
        ("joins", m.joins),
        ("leaves", m.leaves),
        ("demand_changes", m.demand_changes),
        ("external_observations", m.external_observations),
        ("reallocations", m.reallocations),
        ("cache_hits", m.cache_hits),
        ("refits", m.refits),
        ("rejected_events", m.rejected_events),
        ("degenerate_refits", m.degenerate_refits),
        ("quarantines", m.quarantines),
        ("reallotments", m.reallotments),
        ("warm_start_hits", m.warm_start_hits),
        ("warm_start_misses", m.warm_start_misses),
        ("warm_start_fallbacks", m.warm_start_fallbacks),
        ("incremental_refits", m.incremental_refits),
        ("credits_accrued", m.credits_accrued),
        ("credits_spent", m.credits_spent),
        ("temporal_si_violations", m.temporal_si_violations),
    ]
    .into_iter()
    .map(|(name, count)| (name, Value::from_u64(count)))
    .collect();
    fields.push(("cache_hit_rate", Value::Num(m.cache_hit_rate())));
    Value::obj(fields)
}

/// Outcome of applying one replicated record on a standby.
#[derive(Debug)]
pub enum ReplApply {
    /// Applied (and logged); when the record closed an epoch, the
    /// standby's post-epoch state fingerprint rides back on the ack.
    Applied {
        /// `(epoch, fingerprint)` when the record was an epoch tick.
        epoch_fp: Option<(u64, u64)>,
    },
    /// Already applied (stream replay after a reconnect); ack anyway.
    Skipped,
    /// The record skips ahead of this standby's history: unrecoverable
    /// in-stream, the puller must reconnect and catch up.
    Gap,
    /// The local append failed (counted in `wal_errors`); the record
    /// was *not* applied.
    WalError,
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

    fn golden_reports() -> Vec<EpochReport> {
        use ref_core::resource::{Allocation, Bundle};
        use ref_market::epoch::EnforcementSummary;
        use ref_market::ReallocationOutcome;
        let empty = EpochReport {
            epoch: 0,
            agents: vec![],
            realloc: ReallocationOutcome::EmptyMarket,
            allocation: None,
            fairness: None,
            enforcement: vec![],
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
            enforcement: vec![EnforcementSummary {
                resource: 0,
                target: vec![0.75, 0.25],
                achieved: vec![0.74, 0.26],
                max_deviation: 0.01,
            }],
            warm: false,
            observations: 2,
            refits: 1,
            temporal_violations: 1,
            worst_temporal_ratio: 0.875,
        };
        vec![empty, cached]
    }

    /// The oracle of the wire report: [`EpochReport::to_json`] parsed,
    /// with the agent id list replaced by its length and the allocation
    /// dropped, then encoded again.
    fn verdict_of(report: &EpochReport) -> String {
        let Value::Obj(mut fields) = Value::parse(&report.to_json()).unwrap() else {
            panic!("to_json is an object");
        };
        fields.retain(|(key, _)| key != "allocation");
        for (key, value) in &mut fields {
            if key == "agents" {
                *value = Value::from_u64(value.as_array().unwrap().len() as u64);
            }
        }
        Value::Obj(fields).encode()
    }

    #[test]
    fn report_value_encodes_to_the_golden_report_bytes() {
        // The same two reports `ref-market` pins `to_json` on.
        let reports = golden_reports();
        for report in &reports {
            assert_eq!(report_value(report).encode(), verdict_of(report));
        }
        assert_eq!(
            report_value(&reports[0]).encode(),
            "{\"epoch\":0,\"agents\":0,\"realloc\":\"empty_market\",\"warm\":true,\
             \"observations\":0,\"refits\":0,\"temporal_violations\":0,\
             \"worst_temporal_ratio\":1,\"fairness\":null,\"enforcement\":[],\
             \"worst_enforcement_deviation\":0}"
        );
        assert_eq!(
            report_value(&reports[1]).encode(),
            "{\"epoch\":7,\"agents\":2,\"realloc\":\"cache_hit\",\"warm\":false,\
             \"observations\":2,\"refits\":1,\"temporal_violations\":1,\
             \"worst_temporal_ratio\":0.875,\"fairness\":null,\
             \"enforcement\":[{\"resource\":0,\"max_deviation\":0.01}],\
             \"worst_enforcement_deviation\":0.01}"
        );
        // A live engine's report, fairness block included.
        let metrics = ServeMetrics::new();
        let mut core = ServiceCore::new(config(), JournalLimit::default()).unwrap();
        core.handle(&join(1, 0.6), &metrics);
        core.handle(&join(2, 0.2), &metrics);
        let tick = core.handle(&Request::Tick, &metrics);
        let report = core.last_report.as_ref().unwrap();
        assert!(report.fairness.is_some() && report.allocation.is_some());
        assert_eq!(tick.get("report").unwrap().encode(), verdict_of(report));
        let market = core.handle(&Request::Metrics { text: false }, &metrics);
        assert_eq!(
            market.get("market").unwrap().encode(),
            core.engine().metrics().to_json()
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
            assert!(matches!(applied, ReplApply::Applied { .. }), "{applied:?}");
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

    mod wire_bytes {
        use super::super::{market_metrics_value, report_value};
        use super::verdict_of;
        use proptest::prelude::*;
        use ref_core::properties::{EnvyEdge, FairnessReport, SiViolation};
        use ref_core::resource::{Allocation, Bundle, Capacity};
        use ref_market::epoch::EnforcementSummary;
        use ref_market::{EpochReport, MarketMetrics, ReallocationOutcome};

        /// Any `f64` at all: non-finite values must come out `null` and
        /// `-0`, subnormals and 17-digit values digit for digit.
        fn any_f64(bits: u64) -> f64 {
            f64::from_bits(bits)
        }

        /// A report assembled from raw words, including the shapes a live
        /// engine produces only in corners: no allocation (an empty
        /// market), no fairness block (an epoch that was not audited),
        /// agents without bundles.
        ///
        /// Unless `wide`, every integer is below 2^53, what a JSON number
        /// holds exactly (and ids on the wire must stay below).
        fn report(words: &[u64], agents: &[u64], resources: usize, wide: bool) -> EpochReport {
            let word = |i: usize| words[i % words.len()];
            let int = |n: u64| if wide { n } else { n >> 11 };
            let agents: Vec<u64> = agents.iter().copied().map(int).collect();
            let flags = word(0);
            let allocation = (flags & 1 == 1 && !agents.is_empty()).then(|| {
                let bundles: Vec<Bundle> = (0..agents.len())
                    .map(|a| {
                        let quantity = |r| any_f64(word(7 + a * resources + r) >> 2);
                        Bundle::new((0..resources).map(quantity).collect()).unwrap()
                    })
                    .collect();
                // Exponent's top bits cleared: every quantity is below 2.
                let capacity = Capacity::new(vec![2.0 * agents.len() as f64; resources]).unwrap();
                Allocation::new(bundles, &capacity).unwrap()
            });
            let fairness = (flags & 2 == 2).then(|| FairnessReport {
                si_violations: vec![
                    SiViolation {
                        agent: 0,
                        allocated_utility: 0.5,
                        equal_split_utility: 1.0,
                    };
                    (flags >> 8) as usize % 4
                ],
                envy_edges: vec![
                    EnvyEdge {
                        envious: 0,
                        envied: 1,
                        own_utility: 0.5,
                        other_utility: 1.0,
                    };
                    (flags >> 12) as usize % 4
                ],
                pareto_efficient: flags & 4 == 4,
                max_mrs_mismatch: any_f64(word(1)),
            });
            let enforcement = (0..(flags >> 16) as usize % (resources + 1))
                .map(|resource| EnforcementSummary {
                    resource,
                    target: vec![],
                    achieved: vec![],
                    max_deviation: any_f64(word(2 + resource)),
                })
                .collect();
            EpochReport {
                epoch: int(word(3)),
                agents,
                realloc: match flags >> 20 & 3 {
                    0 => ReallocationOutcome::Reallocated,
                    1 => ReallocationOutcome::CacheHit,
                    _ => ReallocationOutcome::EmptyMarket,
                },
                allocation,
                fairness,
                enforcement,
                warm: flags & 8 == 8,
                observations: int(word(4)) as usize,
                refits: int(word(5)) as usize,
                temporal_violations: (word(6) >> 40) as usize,
                worst_temporal_ratio: any_f64(word(6)),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn report_value_encodes_to_the_bytes_of_to_json(
                words in collection::vec(0u64..=u64::MAX, 8..40),
                agents in collection::vec(0u64..=u64::MAX, 0..6),
                resources in 1usize..4,
            ) {
                let exact = report(&words, &agents, resources, false);
                prop_assert_eq!(report_value(&exact).encode(), verdict_of(&exact));
                // Past 2^53 a count goes out as the nearest f64, which is
                // what parsing the text gives.
                let wide = report(&words, &agents, resources, true);
                prop_assert_eq!(report_value(&wide).encode(), verdict_of(&wide));
            }

            #[test]
            fn market_metrics_value_encodes_to_the_bytes_of_to_json(
                counts in collection::vec(0u64..(1 << 53), 20),
            ) {
                let metrics = MarketMetrics {
                    epochs: counts[0],
                    events: counts[1],
                    joins: counts[2],
                    leaves: counts[3],
                    demand_changes: counts[4],
                    external_observations: counts[5],
                    reallocations: counts[6],
                    cache_hits: counts[7],
                    refits: counts[8],
                    rejected_events: counts[9],
                    degenerate_refits: counts[10],
                    quarantines: counts[11],
                    reallotments: counts[12],
                    warm_start_hits: counts[13],
                    warm_start_misses: counts[14],
                    warm_start_fallbacks: counts[15],
                    incremental_refits: counts[16],
                    credits_accrued: counts[17],
                    credits_spent: counts[18],
                    temporal_si_violations: counts[19],
                };
                prop_assert_eq!(market_metrics_value(&metrics).encode(), metrics.to_json());
            }
        }
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
    }
}
